package pwcetd_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/pwcetd"
	"repro/pkg/mbpta"
)

// startService spins up a service over its own small fabric pool and
// returns a client against an httptest server.
func startService(t *testing.T, poolCfg fabric.Config) *mbpta.ServiceClient {
	t.Helper()
	pool := fabric.NewPool(poolCfg)
	t.Cleanup(pool.Close)
	svc, err := pwcetd.New(pwcetd.Config{Pool: pool})
	if err != nil {
		t.Fatalf("pwcetd.New: %v", err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return mbpta.NewServiceClient(ts.URL, ts.Client())
}

func params(t *testing.T, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestServiceCampaignLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs measurement campaigns")
	}
	c := startService(t, fabric.Config{Executors: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	spec := mbpta.CampaignSpec{
		Workload: mbpta.WorkloadSpec{Kind: "crc32", Params: params(t, map[string]any{"Bytes": 512, "Seed": 7})},
		Runs:     400,
		Batch:    100,
		BaseSeed: 42,
	}
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty campaign ID")
	}

	st, err := c.Wait(ctx, id, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("state %q (error %q), want done", st.State, st.Error)
	}
	if st.RunsDone != 400 || st.RunsTotal != 400 {
		t.Errorf("runs %d/%d, want 400/400", st.RunsDone, st.RunsTotal)
	}
	if st.Fingerprint == "" {
		t.Error("finished campaign has no fingerprint")
	}

	rep, err := c.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rep.Workload, "crc32") || rep.Platform == "" {
		t.Errorf("report identity: workload %q platform %q", rep.Workload, rep.Platform)
	}
	if rep.Fingerprint != st.Fingerprint {
		t.Errorf("report fingerprint %q != status fingerprint %q", rep.Fingerprint, st.Fingerprint)
	}

	// The analysis either completed (gate passed: quantiles answer and
	// cache) or rejected the gate (state done, error recorded) — both
	// are valid service outcomes; the quantile endpoint must agree.
	if rep.GatePass != nil && *rep.GatePass {
		v1, err := c.PWCET(ctx, id, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := c.PWCET(ctx, id, 1e-9) // cached second query
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 || v1 <= 0 {
			t.Errorf("pWCET(1e-9) = %g then %g", v1, v2)
		}
		if len(rep.PWCET) == 0 {
			t.Error("analyzed report carries no pWCET ladder")
		}
	} else if st.Error == "" && rep.GatePass == nil {
		t.Error("no analysis and no recorded error")
	}
}

// TestServiceMatchesLocalFingerprint proves the service's fabric
// execution is bit-identical to a local single-process campaign of the
// same spec.
func TestServiceMatchesLocalFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs measurement campaigns")
	}
	c := startService(t, fabric.Config{Executors: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	kernel := map[string]any{"Bytes": 256, "Seed": 3}
	id, err := c.Submit(ctx, mbpta.CampaignSpec{
		Workload:    mbpta.WorkloadSpec{Kind: "crc32", Params: params(t, kernel)},
		Runs:        90,
		Batch:       30,
		BaseSeed:    9,
		MeasureOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, id, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("state %q (error %q)", st.State, st.Error)
	}

	w, err := mbpta.BuiltinWorkloads().Build(mbpta.WorkloadSpec{Kind: "crc32", Params: params(t, kernel)})
	if err != nil {
		t.Fatal(err)
	}
	local, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), w,
		mbpta.WithRuns(90), mbpta.WithBatchSize(30), mbpta.WithBaseSeed(9),
		mbpta.WithParallelism(1), mbpta.MeasureOnly())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Fingerprint, local.Fingerprint(); got != want {
		t.Errorf("service fingerprint %s != local %s", got, want)
	}
}

// TestServiceStress multiplexes well over 100 concurrent campaigns
// over a pool far smaller than the campaign count: admission
// backpressure bounds the in-flight set, fair lease scheduling lets
// every admitted campaign progress, and all of them must finish with
// deterministic results (same spec => same fingerprint). This is the
// acceptance stress test of the service layer.
func TestServiceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 120 measurement campaigns")
	}
	pool := fabric.NewPool(fabric.Config{Executors: 4, MaxSessions: 8, SessionLeases: 2})
	t.Cleanup(pool.Close)
	svc, err := pwcetd.New(pwcetd.Config{Pool: pool})
	if err != nil {
		t.Fatalf("pwcetd.New: %v", err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	c := mbpta.NewServiceClient(ts.URL, ts.Client())

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	const campaigns = 120
	kinds := []string{"crc32", "isort", "vecnorm"}
	ids := make([]string, campaigns)
	var wg sync.WaitGroup
	errs := make(chan error, campaigns)
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := mbpta.CampaignSpec{
				Workload:    mbpta.WorkloadSpec{Kind: kinds[i%len(kinds)]},
				Runs:        40,
				Batch:       20,
				BaseSeed:    uint64(1 + i%len(kinds)), // same kind+seed => same fingerprint
				MeasureOnly: true,
			}
			id, err := c.Submit(ctx, spec)
			if err != nil {
				errs <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// While the flood drains, the pool must stay inside its admission
	// bound (backpressure) — observed via the service's pool endpoint.
	stats, err := c.PoolStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Admitted > 8 {
		t.Errorf("admission bound violated: %d campaigns admitted, MaxSessions 8", stats.Admitted)
	}

	fps := make(map[string]string) // kind -> fingerprint
	for i, id := range ids {
		st, err := c.Wait(ctx, id, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != "done" {
			t.Fatalf("campaign %s: state %q (error %q)", id, st.State, st.Error)
		}
		if st.RunsDone != 40 {
			t.Errorf("campaign %s: %d runs done, want 40", id, st.RunsDone)
		}
		kind := kinds[i%len(kinds)]
		if prev, ok := fps[kind]; ok {
			if st.Fingerprint != prev {
				t.Errorf("campaign %s (%s): fingerprint diverged under load:\n  %s\n  %s",
					id, kind, st.Fingerprint, prev)
			}
		} else {
			fps[kind] = st.Fingerprint
		}
	}

	// Per-campaign telemetry is scrapeable: the Prometheus exposition
	// carries service counters and a labelled section per campaign.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, fmt.Sprintf("campaigns_done_total %d", campaigns)) {
		t.Errorf("/metrics missing campaigns_done_total %d:\n%.600s", campaigns, body)
	}
	if !strings.Contains(body, `campaign_runs_done{campaign="`+ids[0]+`"} 40`) {
		t.Errorf("/metrics missing per-campaign sample for %s", ids[0])
	}
	if !strings.Contains(body, "pool_sessions") {
		t.Error("/metrics missing pool gauges")
	}
}

func TestServiceAPIErrors(t *testing.T) {
	c := startService(t, fabric.Config{Executors: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Unknown workload kind and unknown platform are submit-time errors.
	if _, err := c.Submit(ctx, mbpta.CampaignSpec{
		Workload: mbpta.WorkloadSpec{Kind: "no-such-kernel"},
	}); err == nil || !strings.Contains(err.Error(), "unknown workload kind") {
		t.Errorf("unknown kind: %v", err)
	}
	if _, err := c.Submit(ctx, mbpta.CampaignSpec{
		Platform: "SPARC", Workload: mbpta.WorkloadSpec{Kind: "crc32"},
	}); err == nil || !strings.Contains(err.Error(), "unknown platform") {
		t.Errorf("unknown platform: %v", err)
	}

	// Unknown campaign IDs 404 on every read endpoint.
	if _, err := c.Status(ctx, "c999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("status of unknown ID: %v", err)
	}
	if _, err := c.Report(ctx, "c999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("report of unknown ID: %v", err)
	}

	// A real campaign rejects malformed quantiles and pre-completion
	// report reads with the documented statuses.
	id, err := c.Submit(ctx, mbpta.CampaignSpec{
		Workload: mbpta.WorkloadSpec{Kind: "crc32"}, Runs: 20, Batch: 10, MeasureOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWCET(ctx, id, 0); err == nil || !strings.Contains(err.Error(), "exceedance probability") {
		t.Errorf("q=0: %v", err)
	}
	st, err := c.Wait(ctx, id, 20*time.Millisecond)
	if err != nil || st.State != "done" {
		t.Fatalf("small campaign: %v, state %v", err, st.State)
	}
	// Measure-only campaigns have no analysis to query.
	if _, err := c.PWCET(ctx, id, 1e-9); err == nil || !strings.Contains(err.Error(), "no analysis") {
		t.Errorf("pwcet on measure-only campaign: %v", err)
	}
}

// TestServiceFaultCampaign: a mitigated fault campaign runs on the
// daemon's executor pool, reports the outcome tallies, and fingerprints
// exactly as the same campaign run directly on one local worker. That
// holds on an ordinary pool and on a remote-only one with no remote
// executor connected: fault campaigns are never leased to remote
// executors, so the pool keeps in-process executors for them.
func TestServiceFaultCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs measurement campaigns")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	spec := mbpta.CampaignSpec{
		Workload:    mbpta.WorkloadSpec{Kind: "crc32", Params: params(t, map[string]any{"Bytes": 512, "Seed": 7})},
		Runs:        120,
		BaseSeed:    42,
		MeasureOnly: true,
		FaultRate:   0.5,
		Mitigation:  "ecc",
		Hazard:      "weibull",
	}
	w, err := fabric.BuiltinRegistry().Build(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	local, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), w,
		mbpta.WithRuns(120), mbpta.WithBaseSeed(42), mbpta.MeasureOnly(), mbpta.WithParallelism(1),
		mbpta.WithFaultInjection(mbpta.FaultConfig{
			Rate:       0.5,
			Mitigation: mbpta.Mitigation{Kind: mbpta.MitigationECC},
			Hazard:     mbpta.Hazard{Kind: mbpta.HazardWeibull},
		}))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		pool fabric.Config
	}{
		{"in-process", fabric.Config{Executors: 2}},
		{"remote-only", fabric.Config{Executors: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := startService(t, tc.pool)
			id, err := c.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			st, err := c.Wait(ctx, id, 25*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != "done" {
				t.Fatalf("state %q (error %q)", st.State, st.Error)
			}
			rep, err := c.Report(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if rep.FaultClean == 0 {
				t.Error("fault campaign reports zero clean runs")
			}
			if rep.FaultClean+sumOutcomes(rep.FaultQuarantined) != 120 {
				t.Errorf("outcome tallies do not add up: clean %d + quarantined %v != 120",
					rep.FaultClean, rep.FaultQuarantined)
			}
			if sumOutcomes(rep.FaultMitigated) == 0 {
				t.Error("ECC at rate 0.5 over 120 runs corrected nothing")
			}
			if fp := local.Fingerprint(); fp != st.Fingerprint {
				t.Errorf("service fingerprint %q != local %q", st.Fingerprint, fp)
			}
		})
	}
}

func sumOutcomes(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func TestServiceFaultSpecValidation(t *testing.T) {
	c := startService(t, fabric.Config{Executors: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := mbpta.WorkloadSpec{Kind: "crc32", Params: params(t, map[string]any{"Bytes": 64, "Seed": 1})}
	for _, spec := range []mbpta.CampaignSpec{
		{Workload: w, FaultRate: -1},
		{Workload: w, Mitigation: "ecc"},               // mitigation without a rate
		{Workload: w, Hazard: "orbit"},                 // hazard without a rate
		{Workload: w, FaultRate: 1, Mitigation: "x"},   // unknown scheme
		{Workload: w, FaultRate: 1, Hazard: "sunspot"}, // unknown profile
	} {
		if _, err := c.Submit(ctx, spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}
