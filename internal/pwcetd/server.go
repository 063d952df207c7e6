// Package pwcetd is the long-lived pWCET analysis service: an HTTP
// front end over a shared campaign-fabric pool. Clients submit
// campaign specs (platform + workload + budget) and poll for status,
// the finished report and cached pWCET quantiles; many concurrent
// campaigns multiplex over the pool's executors with fair scheduling
// and bounded backpressure, and per-campaign telemetry is exposed at
// /metrics. The wire types and a client live in pkg/mbpta
// (CampaignSpec, ServiceClient); cmd/pwcetd is the daemon.
//
// API (JSON):
//
//	POST /api/v1/campaigns                 spec -> {"id": "c000001"}
//	GET  /api/v1/campaigns                 all campaign statuses
//	GET  /api/v1/campaigns/{id}            status (state, runs done, fingerprint)
//	GET  /api/v1/campaigns/{id}/report     finished report (409 while running)
//	GET  /api/v1/campaigns/{id}/pwcet?q=   pWCET at exceedance probability q
//	POST /api/v1/matrix                    matrix.Spec -> {"id": "m000001"}
//	GET  /api/v1/matrix                    all matrix statuses
//	GET  /api/v1/matrix/{id}               status (cells done, cached vs simulated runs)
//	GET  /api/v1/matrix/{id}/report        finished comparative report (409 while running)
//	GET  /api/v1/pool                      fabric pool stats
//	GET  /metrics, /metrics.json           service + per-campaign telemetry
//	GET  /healthz                          liveness
package pwcetd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"repro/internal/fabric"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/telemetry"
	"repro/pkg/mbpta"
)

// Standard exceedance-probability cutoffs reported by default (the
// paper's ladder).
var defaultCutoffs = []float64{1e-6, 1e-9, 1e-12, 1e-15}

// Config assembles a Server.
type Config struct {
	// Pool is the campaign fabric the service executes on (required;
	// the caller owns its lifecycle).
	Pool *fabric.Pool
	// Registry resolves workload specs (default BuiltinRegistry).
	Registry *fabric.Registry
	// MatrixCacheDir, when non-empty, enables the content-addressed run
	// cache for matrix submissions: cells sharing simulation-relevant
	// configuration (within one matrix or across submissions) share one
	// set of raw runs.
	MatrixCacheDir string
	// QuantileGate, when true, screens every submitted campaign with the
	// nine-decile identical-distribution gate at QuantileAlpha
	// (0 = the default 0.01) — a service-wide policy; specs can still
	// request the gate individually.
	QuantileGate  bool
	QuantileAlpha float64
}

// Server is the pWCET analysis service. Create with New, mount
// Handler, Close when done.
type Server struct {
	pool    *fabric.Pool
	reg     *fabric.Registry
	metrics *telemetry.Registry

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	seq       int
	running   int
	campaigns map[string]*campaign
	order     []string // submission order, for listings and /metrics

	matrixCache *matrix.Cache // nil when no cache dir was configured
	mseq        int
	matrices    map[string]*matrixJob
	morder      []string

	qgate      bool    // service-wide quantile-gate policy
	qgateAlpha float64 // its family-wise alpha (0 = gate default)
}

// campaign is one submitted campaign's lifecycle record.
type campaign struct {
	id       string
	spec     mbpta.CampaignSpec
	platform string
	workload string
	// mitigation/hazard are the spec's parsed fault-layer selectors
	// (zero values when the spec requested no injection).
	mitigation mbpta.Mitigation
	hazard     mbpta.Hazard
	tele       *telemetry.Registry
	done       chan struct{}

	mu          sync.Mutex
	state       string // "running" -> "done" | "failed"
	runsDone    int
	runsTotal   int
	converged   bool
	fingerprint string
	rule        string
	errText     string
	rep         *mbpta.CampaignReport
	quantiles   map[float64]float64
}

// New starts a service over cfg.Pool. The pool may be shared with
// other frontends; the service only adds sessions to it. A bad matrix
// cache directory fails the service at construction rather than every
// matrix submission.
func New(cfg Config) (*Server, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = fabric.BuiltinRegistry()
	}
	var cache *matrix.Cache
	if cfg.MatrixCacheDir != "" {
		var err error
		if cache, err = matrix.NewCache(cfg.MatrixCacheDir); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		pool:        cfg.Pool,
		reg:         reg,
		metrics:     telemetry.New(),
		ctx:         ctx,
		cancel:      cancel,
		campaigns:   make(map[string]*campaign),
		matrixCache: cache,
		matrices:    make(map[string]*matrixJob),
		qgate:       cfg.QuantileGate,
		qgateAlpha:  cfg.QuantileAlpha,
	}, nil
}

// Close cancels every running campaign and waits for their goroutines.
// The fabric pool is not closed; the caller owns it.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// Submit validates spec, registers a campaign and starts executing it
// on the fabric pool. It returns immediately with the campaign ID;
// admission backpressure (the pool's MaxSessions bound) is absorbed by
// the campaign goroutine, not the submitter.
func (s *Server) Submit(spec mbpta.CampaignSpec) (string, error) {
	if spec.Runs < 0 || spec.Batch < 0 {
		return "", fmt.Errorf("pwcetd: negative runs (%d) or batch size (%d)", spec.Runs, spec.Batch)
	}
	if spec.Runs > platform.MaxCampaignRuns {
		return "", fmt.Errorf("pwcetd: runs %d above the %d-run budget limit", spec.Runs, platform.MaxCampaignRuns)
	}
	if spec.FaultRate < 0 {
		return "", fmt.Errorf("pwcetd: negative fault rate %g", spec.FaultRate)
	}
	if spec.FaultRate == 0 && (spec.Mitigation != "" || spec.Hazard != "") {
		return "", fmt.Errorf("pwcetd: mitigation/hazard require fault_rate > 0")
	}
	mitigation, err := mbpta.ParseMitigation(spec.Mitigation)
	if err != nil {
		return "", fmt.Errorf("pwcetd: %w", err)
	}
	hazard, err := mbpta.ParseHazard(spec.Hazard)
	if err != nil {
		return "", fmt.Errorf("pwcetd: %w", err)
	}
	cfg, err := fabric.NamedPlatform(spec.Platform)
	if err != nil {
		return "", err
	}
	w, err := s.reg.Build(spec.Workload)
	if err != nil {
		return "", err
	}
	if s.qgate && !spec.QuantileGate {
		spec.QuantileGate, spec.QuantileAlpha = true, s.qgateAlpha
	}
	runsTotal := spec.Runs
	if runsTotal == 0 {
		runsTotal = 3000 // the engine's default budget
	}

	s.mu.Lock()
	s.seq++
	c := &campaign{
		id:         fmt.Sprintf("c%06d", s.seq),
		spec:       spec,
		platform:   cfg.Name,
		workload:   w.Name(),
		mitigation: mitigation,
		hazard:     hazard,
		tele:       telemetry.New(),
		done:       make(chan struct{}),
		state:      "running",
		runsTotal:  runsTotal,
		quantiles:  make(map[float64]float64),
	}
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.running++
	s.metrics.Gauge("campaigns_running").Set(float64(s.running))
	s.mu.Unlock()

	s.metrics.Counter("campaigns_submitted_total").Inc()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.execute(c, cfg, w)
	}()
	return c.id, nil
}

// execute runs one campaign on the pool and records its outcome.
func (s *Server) execute(c *campaign, cfg mbpta.PlatformConfig, w mbpta.Workload) {
	opts := []mbpta.CampaignOption{
		mbpta.WithExecutorPool(s.pool),
		mbpta.WithTelemetry(c.tele),
		mbpta.WithProgress(func(p mbpta.Progress) {
			c.mu.Lock()
			c.runsDone = p.TotalRuns
			c.mu.Unlock()
		}),
	}
	if c.spec.FaultRate > 0 {
		opts = append(opts, mbpta.WithFaultInjection(mbpta.FaultConfig{
			Rate:       c.spec.FaultRate,
			Mitigation: c.mitigation,
			Hazard:     c.hazard,
			Telemetry:  c.tele,
		}))
	}
	if c.spec.Runs > 0 {
		opts = append(opts, mbpta.WithRuns(c.spec.Runs))
	}
	if c.spec.Batch > 0 {
		opts = append(opts, mbpta.WithBatchSize(c.spec.Batch))
	}
	if c.spec.BaseSeed != 0 {
		opts = append(opts, mbpta.WithBaseSeed(c.spec.BaseSeed))
	}
	if c.spec.MeasureOnly {
		opts = append(opts, mbpta.MeasureOnly())
	}
	if c.spec.QuantileGate {
		opts = append(opts, mbpta.WithQuantileGate(c.spec.QuantileAlpha))
	}
	rep, err := mbpta.Campaign(s.ctx, cfg, w, opts...)

	c.mu.Lock()
	c.rep = rep
	if rep != nil {
		// Measurements exist (possibly alongside a gate rejection or a
		// not-converged verdict); the campaign is done, the error is
		// advisory.
		c.state = "done"
		c.fingerprint = rep.Fingerprint()
		c.converged = rep.Converged
		c.runsDone = rep.StopRuns
		c.rule = rep.Rule
		if err != nil {
			c.errText = err.Error()
		}
	} else {
		c.state = "failed"
		c.errText = err.Error()
	}
	state := c.state
	c.mu.Unlock()

	s.mu.Lock()
	s.running--
	s.metrics.Gauge("campaigns_running").Set(float64(s.running))
	s.mu.Unlock()
	if state == "done" {
		s.metrics.Counter("campaigns_done_total").Inc()
	} else {
		s.metrics.Counter("campaigns_failed_total").Inc()
	}
	close(c.done)
}

// status snapshots a campaign's wire status.
func (c *campaign) status() mbpta.CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return mbpta.CampaignStatus{
		ID:          c.id,
		State:       c.state,
		RunsDone:    c.runsDone,
		RunsTotal:   c.runsTotal,
		Converged:   c.converged,
		Fingerprint: c.fingerprint,
		Error:       c.errText,
	}
}

// pwcet answers a quantile query from the finished report, caching
// computed values.
func (c *campaign) pwcet(q float64) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != "done" {
		return 0, fmt.Errorf("campaign %s is %s", c.id, c.state)
	}
	if v, ok := c.quantiles[q]; ok {
		return v, nil
	}
	if c.rep.Analysis == nil {
		return 0, fmt.Errorf("campaign %s has no analysis (measure-only or analysis failed)", c.id)
	}
	v, err := c.rep.Analysis.PWCET(q)
	if err != nil {
		return 0, err
	}
	c.quantiles[q] = v
	return v, nil
}

// report builds the finished campaign's wire report.
func (c *campaign) report() (mbpta.ServiceReport, error) {
	st := c.status()
	if st.State != "done" {
		return mbpta.ServiceReport{}, fmt.Errorf("campaign %s is %s", c.id, st.State)
	}
	c.mu.Lock()
	rep := c.rep
	c.mu.Unlock()
	out := mbpta.ServiceReport{
		CampaignStatus: st,
		Platform:       c.platform,
		Workload:       c.workload,
		Rule:           rep.Rule,
	}
	if c.spec.FaultRate > 0 {
		out.FaultClean = rep.Faults.Clean
		out.FaultQuarantined = rep.Faults.ByOutcome
		out.FaultMitigated = rep.Faults.Mitigated
		out.FaultClamped = rep.Faults.ClampedRuns
	}
	if rep.Analysis != nil {
		pass := true
		for _, p := range rep.Analysis.Paths {
			if !p.IID.Pass {
				pass = false
			}
		}
		out.GatePass = &pass
		qChecked, qpass, leakP := false, true, 0.0
		for _, p := range rep.Analysis.Paths {
			if p.QGate == nil {
				continue
			}
			qChecked = true
			qpass = qpass && p.QGate.Pass
			if p.QGate.LeakProbability > leakP {
				leakP = p.QGate.LeakProbability
			}
		}
		if qChecked {
			out.QGatePass, out.QGateLeakP = &qpass, &leakP
		}
		out.PWCET = make(map[string]float64, len(defaultCutoffs))
		for _, q := range defaultCutoffs {
			if v, err := c.pwcet(q); err == nil {
				out.PWCET[strconv.FormatFloat(q, 'e', -1, 64)] = v
			}
		}
	}
	return out, nil
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/pwcet", s.handlePWCET)
	mux.HandleFunc("POST /api/v1/matrix", s.handleMatrixSubmit)
	mux.HandleFunc("GET /api/v1/matrix", s.handleMatrixList)
	mux.HandleFunc("GET /api/v1/matrix/{id}", s.handleMatrixStatus)
	mux.HandleFunc("GET /api/v1/matrix/{id}/report", s.handleMatrixReport)
	mux.HandleFunc("GET /api/v1/pool", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.pool.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.writeMetrics(w)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.metricsJSON())
	})
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec mbpta.CampaignSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode campaign spec: %w", err))
		return
	}
	id, err := s.Submit(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	all := s.all()
	out := make([]mbpta.CampaignStatus, 0, len(all))
	for _, c := range all {
		out = append(out, c.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, c.status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	rep, err := c.report()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handlePWCET(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	q, err := strconv.ParseFloat(r.URL.Query().Get("q"), 64)
	if err != nil || q <= 0 || q >= 1 {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("query parameter q must be an exceedance probability in (0,1), got %q", r.URL.Query().Get("q")))
		return
	}
	v, err := c.pwcet(q)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, mbpta.PWCETAnswer{ID: c.id, Q: q, Cycles: v})
}

func (s *Server) lookup(id string) (*campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// all returns the campaigns in submission order.
func (s *Server) all() []*campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*campaign, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.campaigns[id])
	}
	return out
}

// refreshPoolGauges mirrors the fabric pool snapshot into the service
// registry so scrapes see live pool pressure.
func (s *Server) refreshPoolGauges() {
	st := s.pool.Stats()
	s.metrics.Gauge("pool_executors").Set(float64(st.Executors))
	s.metrics.Gauge("pool_sessions").Set(float64(st.Sessions))
	s.metrics.Gauge("pool_queued_leases").Set(float64(st.QueuedLeases))
	s.metrics.Gauge("pool_running_leases").Set(float64(st.RunningLeases))
	s.metrics.Gauge("pool_admitted").Set(float64(st.Admitted))
}

// writeMetrics renders the service registry followed by every
// campaign's registry, each sample labelled with its campaign ID
// (Prometheus text format; campaign instruments are exported untyped).
func (s *Server) writeMetrics(w io.Writer) error {
	s.refreshPoolGauges()
	if err := s.metrics.WriteProm(w); err != nil {
		return err
	}
	for _, c := range s.all() {
		st := c.status()
		if _, err := fmt.Fprintf(w, "# campaign %s: %s %s on %s\n", st.ID, st.State, c.workload, c.platform); err != nil {
			return err
		}
		snap := c.tele.Snapshot()
		snap["campaign_runs_done"] = float64(st.RunsDone)
		snap["campaign_runs_total"] = float64(st.RunsTotal)
		names := make([]string, 0, len(snap))
		for n := range snap {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			_, err := fmt.Fprintf(w, "%s{campaign=%q} %s\n",
				telemetry.SanitizeName(n), st.ID, strconv.FormatFloat(snap[n], 'g', -1, 64))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// metricsJSON flattens service and per-campaign instruments into one
// map (campaign instruments prefixed "<id>.").
func (s *Server) metricsJSON() map[string]float64 {
	s.refreshPoolGauges()
	out := s.metrics.Snapshot()
	for _, c := range s.all() {
		st := c.status()
		for n, v := range c.tele.Snapshot() {
			out[st.ID+"."+n] = v
		}
		out[st.ID+".campaign_runs_done"] = float64(st.RunsDone)
		out[st.ID+".campaign_runs_total"] = float64(st.RunsTotal)
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
