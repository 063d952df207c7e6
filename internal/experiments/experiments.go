// Package experiments regenerates every table and figure of the
// paper's evaluation (DESIGN.md experiment index E1..E7). Each
// experiment is a function over a shared Env that lazily runs and
// caches the measurement campaigns, so invoking several experiments
// reuses the same 3,000-run campaigns exactly as the paper does.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fpu"
	"repro/internal/mbta"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tvca"
	"repro/pkg/mbpta"
)

// Params configures a full evaluation run.
type Params struct {
	// Runs per campaign; the paper uses 3,000.
	Runs int
	// Seed is the base seed for the per-run seed derivation.
	Seed uint64
	// Parallel campaign workers (0 = GOMAXPROCS).
	Parallel int
	// TVCA is the workload configuration.
	TVCA tvca.Config
	// Analyzer options (zero value = paper defaults).
	Analysis core.Options
	// Converge switches the RAND campaign to the streaming engine with
	// a pWCET-delta stop rule: Runs becomes the budget and the campaign
	// stops as soon as pWCET(1e-12) is stable, instead of always paying
	// the fixed protocol size. The DET campaign stays fixed-size (it is
	// a baseline, not an MBPTA input).
	Converge bool
	// ConvergeTol is the relative pWCET-delta tolerance of the stop
	// rule (0 = default 0.01).
	ConvergeTol float64
	// FaultRate, when positive, attaches the deterministic SEU injector
	// to the RAND campaign at that expected-upsets-per-run rate: faulted
	// runs are classified (masked / timing-perturbed / wrong-output /
	// hung) and quarantined, so every experiment's analysis sees clean
	// measurements only. The DET campaign stays fault-free — it is the
	// industrial baseline, not an MBPTA input. FaultSummary reports the
	// outcome tally after the campaign has run.
	FaultRate float64
	// Mitigation layers a fault-mitigation scheme (scrub, ECC,
	// lockstep) over the injector when FaultRate is positive: recovered
	// runs stay in the analyzed series with their recovery overhead
	// charged as cycles. The zero value keeps plain quarantine.
	Mitigation faults.Mitigation
	// Hazard selects the time-varying upset-rate profile when FaultRate
	// is positive (zero value: constant).
	Hazard faults.Hazard
	// Telemetry, when non-nil, attaches the observability layer to the
	// RAND campaign: simulator and campaign instruments are harvested
	// at batch barriers, and the campaign's incremental analyzer
	// publishes its gate p-values and pWCET trajectory at every batch,
	// in fixed-size and Converge mode alike. Nil keeps every campaign
	// untelemetered.
	Telemetry *telemetry.Registry
	// Journal, when set, makes the RAND campaign crash-safe: every
	// completed run and a per-batch checkpoint are written to an
	// append-only checksummed WAL at this path, fsynced once per batch.
	// The empty string (default) does no durability work at all.
	Journal string
	// Resume continues the campaign journaled at Journal instead of
	// starting over: already-journaled runs are not re-executed, and the
	// completed campaign is bit-identical to an uninterrupted one. The
	// journal's identity record must match the configured campaign.
	Resume bool
}

// DefaultParams returns the paper's evaluation setup.
func DefaultParams() Params {
	return Params{
		Runs: 3000,
		Seed: 20170327, // DATE 2017 conference date
		TVCA: tvca.DefaultConfig(),
	}
}

// Env caches the shared campaigns.
type Env struct {
	P         Params
	app       *tvca.App
	rand      *platform.CampaignResult
	det       *platform.CampaignResult
	randConv  *ConvergeInfo
	randFault *faults.Summary
}

// ConvergeInfo summarizes an early-stopped RAND campaign.
type ConvergeInfo struct {
	Converged bool
	StopRuns  int
	MaxRuns   int
	Rule      string
	Snapshots []core.Snapshot
}

// RunsSaved returns how many of the budgeted runs the stop rule
// avoided.
func (ci *ConvergeInfo) RunsSaved() int { return ci.MaxRuns - ci.StopRuns }

// NewEnv validates params and builds the workload.
func NewEnv(p Params) (*Env, error) {
	if p.Runs < 500 {
		return nil, fmt.Errorf("experiments: %d runs too few for the MBPTA protocol (need >= 500)", p.Runs)
	}
	app, err := tvca.New(p.TVCA)
	if err != nil {
		return nil, err
	}
	return &Env{P: p, app: app}, nil
}

// App returns the workload.
func (e *Env) App() *tvca.App { return e.app }

// RAND returns the (cached) campaign on the time-randomized platform,
// measured by mbpta.Campaign (or mbpta.Resume under Params.Resume).
// With Params.Converge it stops at pWCET-delta convergence;
// RANDConvergence then reports where it stopped.
func (e *Env) RAND() (*platform.CampaignResult, error) {
	if e.rand != nil {
		return e.rand, nil
	}
	rule := mbpta.FixedRuns(e.P.Runs)
	if e.P.Converge {
		rule = mbpta.PWCETDelta(1e-12, e.P.ConvergeTol, 2)
	}
	opts := []mbpta.CampaignOption{
		mbpta.WithRuns(e.P.Runs),
		mbpta.WithBaseSeed(e.P.Seed),
		mbpta.WithParallelism(e.P.Parallel),
		mbpta.WithStopRule(rule),
		mbpta.WithAnalyzerOptions(e.P.Analysis),
		mbpta.WithTelemetry(e.P.Telemetry),
		mbpta.MeasureOnly(),
	}
	if e.P.FaultRate > 0 {
		opts = append(opts, mbpta.WithFaultInjection(faults.Config{
			Rate:       e.P.FaultRate,
			Mitigation: e.P.Mitigation,
			Hazard:     e.P.Hazard,
		}))
	}
	ctx, cfg := context.Background(), platform.RAND()
	var rep *mbpta.CampaignReport
	var err error
	switch {
	case e.P.Journal != "" && e.P.Resume:
		rep, err = mbpta.Resume(ctx, cfg, e.app, e.P.Journal, opts...)
	case e.P.Journal != "":
		// Journaled campaigns keep the engine's default batch size,
		// which bounds re-execution after a crash.
		rep, err = mbpta.Campaign(ctx, cfg, e.app, append(opts, mbpta.WithJournal(e.P.Journal))...)
	default:
		if !e.P.Converge {
			// One barrier at the end: the fixed protocol has nothing to
			// evaluate between batches.
			opts = append(opts, mbpta.WithBatchSize(e.P.Runs))
		}
		rep, err = mbpta.Campaign(ctx, cfg, e.app, opts...)
	}
	// An unconverged campaign is a result, reported by RANDConvergence.
	if err != nil && !errors.Is(err, mbpta.ErrNotConverged) {
		return nil, err
	}
	e.rand = rep.Campaign
	if e.P.FaultRate > 0 {
		e.randFault = &rep.Faults
	}
	if e.P.Converge {
		e.randConv = &ConvergeInfo{
			Converged: rep.Converged,
			StopRuns:  rep.StopRuns,
			MaxRuns:   e.P.Runs,
			Rule:      rep.Rule,
			Snapshots: rep.Snapshots,
		}
	}
	return e.rand, nil
}

// FaultSummary returns the RAND campaign's run-outcome tally, or nil
// when fault injection is off (or the campaign has not run yet).
func (e *Env) FaultSummary() *faults.Summary { return e.randFault }

// RANDConvergence returns the early-stopping summary of the RAND
// campaign, or nil when Params.Converge is off (or the campaign has
// not run yet).
func (e *Env) RANDConvergence() *ConvergeInfo { return e.randConv }

// DET returns the (cached) campaign on the deterministic platform.
func (e *Env) DET() (*platform.CampaignResult, error) {
	if e.det == nil {
		c, err := platform.StreamCampaign(context.Background(), platform.DET(), e.app,
			platform.StreamOptions{
				MaxRuns: e.P.Runs, BatchSize: e.P.Runs,
				BaseSeed: e.P.Seed + 1, Parallel: e.P.Parallel,
			}, nil)
		if err != nil {
			return nil, err
		}
		e.det = c
	}
	return e.det, nil
}

// analyze runs the MBPTA pipeline on the RAND campaign (per-path).
func (e *Env) analyze() (*core.Result, error) {
	c, err := e.RAND()
	if err != nil {
		return nil, err
	}
	return core.NewAnalyzer(e.P.Analysis).AnalyzeByPath(c.TimesByPath())
}

// E1Result is the i.i.d. table of §III ("Fulfilling the i.i.d.
// properties"): the paper reports p-values 0.83 (Ljung-Box) and 0.45
// (KS) for TVCA on the randomized platform.
type E1Result struct {
	Independence stats.TestResult
	IdentDist    stats.TestResult
	// QGate is the nine-decile split-half gate on the full series,
	// present only when the campaign opted in (Analysis.QuantileGate);
	// its verdict is folded into Pass.
	QGate *stats.QuantileGateReport
	Pass  bool
}

// E1IID runs the i.i.d. gate on the RAND campaign's full series. With
// Analysis.QuantileGate the nine-decile gate runs alongside and both
// must pass.
func E1IID(e *Env) (*E1Result, error) {
	c, err := e.RAND()
	if err != nil {
		return nil, err
	}
	rep, err := stats.CheckIID(c.Times(), 0.05)
	if err != nil {
		return nil, err
	}
	r := &E1Result{Independence: rep.Independence, IdentDist: rep.IdentDist, Pass: rep.Pass}
	if e.P.Analysis.QuantileGate {
		switch qg, err := stats.CheckQuantileGate(c.Times(), stats.QuantileGateOptions{Alpha: e.P.Analysis.QuantileGateAlpha}); {
		case errors.Is(err, stats.ErrTooFew):
			// Below the gate's sample floor: record nothing.
		case err != nil:
			return nil, fmt.Errorf("quantile gate: %w", err)
		default:
			r.QGate = &qg
			r.Pass = r.Pass && qg.Pass
		}
	}
	pass := 0.0
	if r.Pass {
		pass = 1
	}
	e.P.Telemetry.Gauge("analysis_gate_ljungbox_p").Set(rep.Independence.PValue)
	e.P.Telemetry.Gauge("analysis_gate_ks_p").Set(rep.IdentDist.PValue)
	e.P.Telemetry.Gauge("analysis_gate_pass").Set(pass)
	return r, nil
}

// E2Result is the pWCET curve of Figure 2: observed exceedance tail
// plus the projected (fitted) curve down to deep probabilities.
type E2Result struct {
	Analysis *core.Result
	Curve    []core.CurvePoint
	HWM      float64
	// Bounds at the probabilities the figure's Y axis spans.
	PWCET map[float64]float64
}

// E2PWCETCurve analyzes the RAND campaign and samples the curve.
func E2PWCETCurve(e *Env) (*E2Result, error) {
	res, err := e.analyze()
	if err != nil {
		return nil, err
	}
	c, _ := e.RAND()
	hwm, err := stats.Max(c.Times())
	if err != nil {
		return nil, err
	}
	deep, err := res.PWCET(1e-16)
	if err != nil {
		return nil, err
	}
	lo, _ := stats.Quantile(c.Times(), 0.01)
	curve, err := res.Curve(lo, deep, 200)
	if err != nil {
		return nil, err
	}
	out := &E2Result{Analysis: res, Curve: curve, HWM: hwm, PWCET: map[float64]float64{}}
	for _, q := range []float64{1e-3, 1e-6, 1e-9, 1e-12, 1e-15} {
		v, err := res.PWCET(q)
		if err != nil {
			return nil, err
		}
		out.PWCET[q] = v
	}
	return out, nil
}

// E3Result is Figure 3: MBPTA pWCET estimates next to the
// deterministic-platform observations and the industrial
// HWM-plus-margin practice.
type E3Result struct {
	DETAvg, RANDAvg float64
	DETHWM          float64
	Margin20        float64 // DET HWM * 1.2
	Margin50        float64 // DET HWM * 1.5
	PWCET           map[float64]float64
	// RatioAtCutoff = pWCET(cutoff)/DETHWM, the paper's "starting with
	// an increase of 50% for a cutoff probability of 1e-6".
	RatioAtCutoff map[float64]float64
}

// E3Comparison runs both campaigns and assembles the comparison.
func E3Comparison(e *Env) (*E3Result, error) {
	det, err := e.DET()
	if err != nil {
		return nil, err
	}
	randc, err := e.RAND()
	if err != nil {
		return nil, err
	}
	base, err := mbta.Analyze(det.Times())
	if err != nil {
		return nil, err
	}
	res, err := e.analyze()
	if err != nil {
		return nil, err
	}
	randAvg, err := stats.Mean(randc.Times())
	if err != nil {
		return nil, err
	}
	out := &E3Result{
		DETAvg:        base.Mean,
		RANDAvg:       randAvg,
		DETHWM:        base.HWM,
		PWCET:         map[float64]float64{},
		RatioAtCutoff: map[float64]float64{},
	}
	if out.Margin20, err = base.WCET(0.2); err != nil {
		return nil, err
	}
	if out.Margin50, err = base.WCET(0.5); err != nil {
		return nil, err
	}
	for _, q := range []float64{1e-6, 1e-9, 1e-12, 1e-15} {
		v, err := res.PWCET(q)
		if err != nil {
			return nil, err
		}
		out.PWCET[q] = v
		out.RatioAtCutoff[q] = v / base.HWM
	}
	return out, nil
}

// E4Result is the average-performance comparison of §III: the paper
// observes "no noticeable difference" between DET and RAND means.
type E4Result struct {
	DET, RAND        stats.Summary
	RelativeOverhead float64 // (RAND.Mean - DET.Mean)/DET.Mean
}

// E4AvgPerformance compares the campaign means.
func E4AvgPerformance(e *Env) (*E4Result, error) {
	det, err := e.DET()
	if err != nil {
		return nil, err
	}
	randc, err := e.RAND()
	if err != nil {
		return nil, err
	}
	ds, err := stats.Summarize(det.Times())
	if err != nil {
		return nil, err
	}
	rs, err := stats.Summarize(randc.Times())
	if err != nil {
		return nil, err
	}
	return &E4Result{DET: ds, RAND: rs, RelativeOverhead: (rs.Mean - ds.Mean) / ds.Mean}, nil
}

// E5Result is the convergence trace behind the paper's statement that
// 3,000 runs "satisfied the convergence criteria".
type E5Result struct {
	Trace  []core.ConvergencePoint
	StopAt int // run count at which the criterion allowed stopping
}

// E5Convergence replays the incremental protocol over the RAND series.
func E5Convergence(e *Env) (*E5Result, error) {
	c, err := e.RAND()
	if err != nil {
		return nil, err
	}
	an := core.NewAnalyzer(e.P.Analysis)
	// Re-fit every 2 blocks: fine enough granularity that the stop rule
	// has several comparison points even on reduced campaigns.
	batch := 2 * an.Options().BlockSize
	trace, stopAt, err := an.ConvergenceTrace(c.Times(), batch)
	if err != nil {
		return nil, err
	}
	return &E5Result{Trace: trace, StopAt: stopAt}, nil
}

// E6Result quantifies the FPU jitter control of §II: analysis-mode
// latency is fixed at the worst case and upper-bounds every
// operation-mode latency.
type E6Result struct {
	DivAnalysis     int // constant analysis-mode FDIV latency
	DivOpMin        int
	DivOpMax        int
	SqrtAnalysis    int
	SqrtOpMin       int
	SqrtOpMax       int
	UpperBoundsHold bool
	Samples         int
}

// E6FPUJitter sweeps operand values through both FPU modes.
func E6FPUJitter(e *Env) (*E6Result, error) {
	lat := fpu.DefaultLatencies()
	analysis, err := fpu.New(lat, fpu.ModeAnalysis)
	if err != nil {
		return nil, err
	}
	operation, err := fpu.New(lat, fpu.ModeOperation)
	if err != nil {
		return nil, err
	}
	src := rng.NewXoroshiro128(e.P.Seed)
	out := &E6Result{
		DivAnalysis:     analysis.DivLatency(1, 3),
		SqrtAnalysis:    analysis.SqrtLatency(2),
		DivOpMin:        math.MaxInt32,
		SqrtOpMin:       math.MaxInt32,
		UpperBoundsHold: true,
		Samples:         10000,
	}
	for i := 0; i < out.Samples; i++ {
		a := (rng.Float64(src) - 0.5) * 1e6
		b := (rng.Float64(src)-0.5)*1e6 + 1e-9
		d := operation.DivLatency(a, b)
		s := operation.SqrtLatency(math.Abs(a))
		if d < out.DivOpMin {
			out.DivOpMin = d
		}
		if d > out.DivOpMax {
			out.DivOpMax = d
		}
		if s < out.SqrtOpMin {
			out.SqrtOpMin = s
		}
		if s > out.SqrtOpMax {
			out.SqrtOpMax = s
		}
		if d > out.DivAnalysis || s > out.SqrtAnalysis {
			out.UpperBoundsHold = false
		}
	}
	return out, nil
}

// E7Result is the memory-layout ablation behind §II's random-placement
// claim: on DET, the link-time layout determines cache placement and
// hence execution time (which classical MBTA must enumerate); on RAND,
// a single binary re-rolls its placement every run, covering layouts
// probabilistically.
type E7Result struct {
	// DETByLayout: execution time of the same program relinked at
	// different base addresses, on the deterministic platform (one run
	// each; DET is input-deterministic given the layout).
	DETByLayout []float64
	DETSpread   float64 // (max-min)/min across layouts
	// RAND pWCET at 1e-3 from a single layout's campaign, and the
	// fraction of DET layout times it upper-bounds.
	RANDQuantile  float64
	CoverFraction float64
}

// E7PlacementAblation sweeps link-time layouts on DET and checks that
// the RAND distribution from one layout covers them.
func E7PlacementAblation(e *Env, layouts int) (*E7Result, error) {
	if layouts < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 layouts, got %d", layouts)
	}
	out := &E7Result{}
	// Same inputs for every layout: fix run index 0.
	for l := 0; l < layouts; l++ {
		cfg := e.P.TVCA
		cfg.CodeBase = 0x10000 + uint64(l)*0x2340  // shift text
		cfg.DataBase = 0x100000 + uint64(l)*0x4CC0 // shift data
		app, err := tvca.New(cfg)
		if err != nil {
			return nil, err
		}
		p, err := platform.New(platform.DET())
		if err != nil {
			return nil, err
		}
		r, err := p.ExecuteRun(context.Background(), app, 0, 1)
		if err != nil {
			return nil, err
		}
		out.DETByLayout = append(out.DETByLayout, float64(r.Cycles))
	}
	mn, _ := stats.Min(out.DETByLayout)
	mx, _ := stats.Max(out.DETByLayout)
	out.DETSpread = (mx - mn) / mn
	res, err := e.analyze()
	if err != nil {
		return nil, err
	}
	if out.RANDQuantile, err = res.PWCET(1e-3); err != nil {
		return nil, err
	}
	covered := 0
	for _, v := range out.DETByLayout {
		if v <= out.RANDQuantile {
			covered++
		}
	}
	out.CoverFraction = float64(covered) / float64(layouts)
	return out, nil
}
