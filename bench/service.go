package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/pwcetd"
	"repro/pkg/mbpta"
)

// serviceMixed drives an in-process pwcetd with closed-loop clients —
// the only workload with several executors, several sessions at once,
// and campaign telemetry on.
type serviceMixed struct{}

// specCount is how many distinct campaign specs the clients cycle
// through (five rounds of the six-request mix); every client submits
// them in the same order, so each spec is done once per client.
const specCount = 30

// pollEvery is the clients' status poll period.
const pollEvery = 5 * time.Millisecond

// Two clients and two executors keep the service within the host's two
// vCPUs, with two connections open at most.
const (
	serviceClients   = 2
	serviceExecutors = 2
)

// spec is request k's campaign. The mix repeats every six requests:
// 4-frame TVCA twice, 4-frame TVCA with SEU injection mitigated by ECC
// twice (pwcetd runs those on local workers, not the pool), crc32 once,
// and isort under the quantile gate once. Each kind's latency forms its
// own band (crc32 fastest, then isort, TVCA, TVCA with ECC); with these
// shares p50 falls inside the TVCA band and p80 inside the ECC band,
// not on a boundary between two bands, where a percentile would jump
// from run to run.
func (serviceMixed) spec(e env, k int) mbpta.CampaignSpec {
	k %= specCount
	sp := mbpta.CampaignSpec{
		Platform: "RAND",
		Runs:     e.size.serviceRuns,
		Batch:    e.size.serviceBatch,
		BaseSeed: e.seed + uint64(k),
	}
	tvca4 := mbpta.WorkloadSpec{Kind: "tvca", Params: json.RawMessage(`{"Frames":4}`)}
	switch k % 6 {
	case 0, 3:
		sp.Workload = tvca4
	case 1, 4:
		sp.Workload = tvca4
		sp.FaultRate = 0.3
		sp.Mitigation = "ecc"
	case 2:
		sp.Workload = mbpta.WorkloadSpec{Kind: "crc32", Params: json.RawMessage(`{"Bytes":1024,"Seed":1}`)}
	case 5:
		sp.Workload = mbpta.WorkloadSpec{Kind: "isort"}
		sp.QuantileGate = true
	}
	return sp
}

// service is one pwcetd behind an in-process HTTP server.
type service struct {
	pool   *fabric.Pool
	server *pwcetd.Server
	http   *httptest.Server
	hc     *http.Client
	client *mbpta.ServiceClient
}

func (serviceMixed) start() (*service, error) {
	pool := fabric.NewPool(fabric.Config{Executors: serviceExecutors})
	srv, err := pwcetd.New(pwcetd.Config{Pool: pool})
	if err != nil {
		pool.Close()
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serviceClients,
		MaxIdleConnsPerHost: serviceClients,
	}}
	return &service{pool: pool, server: srv, http: hs, hc: hc, client: mbpta.NewServiceClient(hs.URL, hc)}, nil
}

func (sv *service) close() {
	sv.hc.CloseIdleConnections()
	sv.http.Close()
	sv.server.Close()
	sv.pool.Close()
}

// reply is one finished request.
type reply struct {
	spec      int
	latency   float64
	runs      int
	fp        string
	failed    bool
	mitigated int
	// bound is the queried pWCET(1e-12) and tabulated the report's entry
	// for it; both are 0 for a campaign without a curve.
	bound, tabulated float64
}

// request submits a campaign, waits for it, fetches its report and —
// when it was analyzed — its pWCET(1e-12). With s set, each call is
// traced and the wait is the same poll loop as ServiceClient.Wait,
// timed call by call.
func (sv *service) request(ctx context.Context, sp mbpta.CampaignSpec, s *scope) (r reply) {
	start := time.Now()
	defer func() { r.latency = time.Since(start).Seconds() }()
	call := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		if s != nil {
			s.leaf(name, t0)
		}
		return err
	}
	var id string
	err := call("pwcetd.submit", func() (err error) { id, err = sv.client.Submit(ctx, sp); return err })
	if err != nil {
		r.failed = true
		return r
	}
	var st mbpta.CampaignStatus
	if s == nil {
		st, err = sv.client.Wait(ctx, id, pollEvery)
	} else {
		st, err = sv.tracedWait(ctx, id, *s)
	}
	if err != nil || st.State != "done" {
		r.failed = true
		return r
	}
	r.runs, r.fp = st.RunsDone, st.Fingerprint
	var rep mbpta.ServiceReport
	if err := call("pwcetd.report", func() (err error) { rep, err = sv.client.Report(ctx, id); return err }); err != nil {
		r.failed = true
		return r
	}
	for _, n := range rep.FaultMitigated {
		r.mitigated += n
	}
	if st.Error != "" {
		// A done campaign's error is pwcetd's analysis advisory (a gate
		// rejection, an unfittable tail): the measurements are valid but
		// there is no curve to query.
		return r
	}
	r.tabulated = rep.PWCET["1e-12"]
	if err := call("pwcetd.pwcet", func() (err error) { r.bound, err = sv.client.PWCET(ctx, id, 1e-12); return err }); err != nil {
		r.failed = true
	}
	return r
}

// tracedWait is ServiceClient.Wait with each status call timed as
// pwcetd.status and each pause between polls as pwcetd.poll_wait.
func (sv *service) tracedWait(ctx context.Context, id string, s scope) (mbpta.CampaignStatus, error) {
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		start := time.Now()
		st, err := sv.client.Status(ctx, id)
		s.leaf("pwcetd.status", start)
		s.t.count("pwcetd.status_polls", 1)
		if err != nil || st.State != "running" {
			return st, err
		}
		start = time.Now()
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-tick.C:
		}
		s.leaf("pwcetd.poll_wait", start)
	}
}

// drive runs the closed-loop clients; each submits specs 0, 1, 2, ...
// and sends its next request only when the previous one has finished.
// A client stops before its request k when more(k, ok) is false, ok
// being the requests all clients have completed successfully so far.
func (m serviceMixed) drive(ctx context.Context, e env, sv *service, more func(k, ok int) bool, tr *tracer) []reply {
	var mu sync.Mutex
	var out []reply
	ok := 0
	next := func(k int) bool {
		mu.Lock()
		defer mu.Unlock()
		return more(k, ok) && ctx.Err() == nil
	}
	var wg sync.WaitGroup
	for cl := 0; cl < serviceClients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; next(k); k++ {
				var r reply
				if tr == nil {
					r = sv.request(ctx, m.spec(e, k), nil)
				} else {
					s := tr.root("bench.request")
					r = sv.request(ctx, m.spec(e, k), &s)
					s.end()
				}
				r.spec = k % specCount
				mu.Lock()
				out = append(out, r)
				if !r.failed {
					ok++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

func (m serviceMixed) timed(ctx context.Context, e env, c *checks) (*timedRun, error) {
	sv, setups, err := repeatSetup(e.size.setups, m.start, (*service).close)
	if err != nil {
		return nil, err
	}
	defer sv.close()
	tr := &timedRun{setups: setups}
	var replies []reply
	tr.wall, tr.cpu, err = measure(func() error {
		begin := time.Now()
		replies = m.drive(ctx, e, sv, func(k, ok int) bool { return k == 0 || e.more(begin, ok) }, nil)
		return ctx.Err()
	})
	if err != nil {
		return nil, err
	}
	tr.attempted = len(replies)
	for _, r := range replies {
		if r.failed {
			tr.failed++
			continue
		}
		tr.runs += r.runs
		tr.latencies = append(tr.latencies, r.latency)
	}
	fps := checkReplies(c, replies)
	tr.golden = digest(fps[:6])
	return tr, nil
}

// checkReplies checks that every submission of a spec fingerprints
// identically and that a pWCET query answers what the report tabulates,
// and returns each spec's fingerprint ("" if never done).
func checkReplies(c *checks, replies []reply) []string {
	fps := make([]string, specCount)
	for _, r := range replies {
		if r.bound != r.tabulated {
			c.failf("spec %d: pWCET(1e-12) query answers %g, the report tabulates %g", r.spec, r.bound, r.tabulated)
		}
		switch {
		case r.failed:
		case fps[r.spec] == "":
			fps[r.spec] = r.fp
		case fps[r.spec] != r.fp:
			c.failf("spec %d fingerprints %s and %s on two submissions", r.spec, fps[r.spec], r.fp)
		}
	}
	return fps
}

// traced runs tracedRequests requests per client untraced on one
// service, then the same requests traced on a fresh one, and reads the
// traced service's per-campaign counters from /metrics.json. Afterwards
// one spec of each kind is re-run locally through mbpta.Campaign: it
// must fingerprint as the service did, and its series feeds the gate
// and fit replay.
func (m serviceMixed) traced(ctx context.Context, e env, t *tracer, c *checks) (*tracedRun, error) {
	n := e.size.tracedRequests
	more := func(k, _ int) bool { return k < n }
	// phase drives the requests on a fresh service; traced, it also
	// samples the pool and returns the service's counters.
	phase := func(tr *tracer) (replies []reply, wall float64, counters map[string]float64, err error) {
		sv, err := m.start()
		if err != nil {
			return nil, 0, nil, fmt.Errorf("set-up: %w", err)
		}
		defer sv.close()
		if tr != nil {
			defer tr.samplePool(sv.pool)()
		}
		wall, _, err = measure(func() error {
			replies = m.drive(ctx, e, sv, more, tr)
			return ctx.Err()
		})
		if err == nil && tr != nil {
			counters, err = sv.metricsJSON()
		}
		return replies, wall, counters, err
	}
	plain, untraced, _, err := phase(nil)
	if err != nil {
		return nil, err
	}
	replies, traced, counters, err := phase(t)
	if err != nil {
		return nil, err
	}

	all := append(plain, replies...)
	run := &tracedRun{untraced: untraced, traced: traced, attempted: len(all)}
	for _, r := range all {
		if r.failed {
			run.failed++
		}
	}
	for _, r := range replies {
		t.count("faults.mitigated", float64(r.mitigated))
	}
	fps := checkReplies(c, all)
	t.addServiceCounters(counters)

	for _, k := range []int{0, 1, 2, 5} { // the first spec of each kind
		sp := m.spec(e, k)
		rep, err := localCampaign(ctx, sp)
		if err != nil {
			return nil, fmt.Errorf("local re-run of spec %d: %w", k, err)
		}
		if got := rep.Fingerprint(); got != fps[k] {
			c.failf("spec %d fingerprints %s through pwcetd, %s through mbpta.Campaign", k, fps[k], got)
		}
		t.replay(rep.Campaign.Times(), rep.Snapshots, core.Options{QuantileGate: sp.QuantileGate})
	}
	run.golden = digest(fps[:6])
	return run, nil
}

// localCampaign runs spec as pwcetd would, on one local worker.
func localCampaign(ctx context.Context, sp mbpta.CampaignSpec) (*mbpta.CampaignReport, error) {
	cfg, err := mbpta.NamedPlatformConfig(sp.Platform)
	if err != nil {
		return nil, err
	}
	w, err := mbpta.BuiltinWorkloads().Build(sp.Workload)
	if err != nil {
		return nil, err
	}
	opts := []mbpta.CampaignOption{
		mbpta.WithRuns(sp.Runs),
		mbpta.WithBatchSize(sp.Batch),
		mbpta.WithBaseSeed(sp.BaseSeed),
		mbpta.WithParallelism(1),
	}
	if sp.FaultRate > 0 {
		mit, err := mbpta.ParseMitigation(sp.Mitigation)
		if err != nil {
			return nil, err
		}
		hz, err := mbpta.ParseHazard(sp.Hazard)
		if err != nil {
			return nil, err
		}
		opts = append(opts, mbpta.WithFaultInjection(mbpta.FaultConfig{Rate: sp.FaultRate, Mitigation: mit, Hazard: hz}))
	}
	if sp.QuantileGate {
		opts = append(opts, mbpta.WithQuantileGate(sp.QuantileAlpha))
	}
	rep, err := mbpta.Campaign(ctx, cfg, w, opts...)
	if campaignFailed(rep, err) {
		return nil, err
	}
	return rep, nil
}

// metricsJSON fetches the service's flattened instruments.
func (sv *service) metricsJSON() (map[string]float64, error) {
	resp, err := sv.hc.Get(sv.http.URL + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics.json: HTTP %d", resp.StatusCode)
	}
	var out map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("/metrics.json: %w", err)
	}
	return out, nil
}

// addServiceCounters folds pwcetd's per-campaign instruments ("<id>.<name>")
// into the layer metrics: the service's boards are out of the
// benchmark's reach, so the simulator counters come from campaign
// telemetry. Pool campaigns publish only result-derived counters; the
// cache and TLB counters come from the locally run fault campaigns.
func (t *tracer) addServiceCounters(m map[string]float64) {
	sum := func(name string) float64 {
		v := 0.0
		for k, x := range m {
			if strings.HasSuffix(k, "."+name) {
				v += x
			}
		}
		return v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sim.runs += sum("campaign_runs_total")
	t.sim.instructions += sum("sim_instructions_total")
	t.sim.cycles += sum("sim_cycles_total")
	for i, arr := range []string{"il1", "dl1", "itlb", "dtlb"} {
		miss := sum("sim_"+arr+"_misses_total") + sum("sim_"+arr+"_write_misses_total")
		t.sim.accesses[i] += sum("sim_"+arr+"_hits_total") + sum("sim_"+arr+"_write_hits_total") + miss
		t.sim.misses[i] += miss
	}
	t.sim.replay += sum("sim_replay_runs_total")
	t.sim.interpret += sum("sim_interpret_runs_total")
	t.layer["core.batches"] += sum("analysis_batches_total")
	t.layer["faults.injected"] += sum("campaign_faults_injected_total")
	t.layer["faults.quarantined"] += sum("campaign_quarantined_total")
}
