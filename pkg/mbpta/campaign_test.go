package mbpta_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/pkg/mbpta"
)

func TestCampaignBatchAndParallelismInvariance(t *testing.T) {
	// The seed pipeline and the streaming engine must measure the exact
	// same series: run i always uses the same derived seed, whatever
	// the batch size or parallelism.
	app := smallApp(t)
	ref, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(40), mbpta.WithBaseSeed(42),
		mbpta.WithParallelism(1), mbpta.MeasureOnly())
	if err != nil {
		t.Fatal(err)
	}
	legacy := ref.TraceSet()
	rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(40),
		mbpta.WithBaseSeed(42),
		mbpta.WithBatchSize(7),
		mbpta.WithParallelism(3),
		mbpta.MeasureOnly())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.StopRuns != 40 {
		t.Fatalf("fixed-runs campaign: converged=%v stop=%d", rep.Converged, rep.StopRuns)
	}
	set := rep.TraceSet()
	if len(set.Samples) != len(legacy.Samples) {
		t.Fatalf("%d vs %d samples", len(set.Samples), len(legacy.Samples))
	}
	for i := range set.Samples {
		if set.Samples[i] != legacy.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, set.Samples[i], legacy.Samples[i])
		}
	}
}

func TestCampaignAnalysisMatchesSeedPipeline(t *testing.T) {
	// WithStopRule(FixedRuns(n)) must reproduce the seed pipeline's
	// estimates exactly: same seeds, same series, same fit.
	app := smallApp(t)
	const runs = 600
	rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(runs),
		mbpta.WithBaseSeed(42),
		mbpta.WithStopRule(mbpta.FixedRuns(runs)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Analysis == nil {
		t.Fatal("nil analysis")
	}
	mrep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(runs), mbpta.WithBaseSeed(42), mbpta.MeasureOnly())
	if err != nil {
		t.Fatal(err)
	}
	want, err := mbpta.NewAnalyzer(mbpta.Options{}).AnalyzeByPath(mrep.TraceSet().TimesByPath())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{1e-6, 1e-12} {
		got, err := rep.Analysis.PWCET(q)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := want.PWCET(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Errorf("pWCET(%g): streaming %v != seed pipeline %v", q, got, ref)
		}
	}
	if len(rep.Snapshots) == 0 {
		t.Error("no snapshots recorded")
	}
}

func TestCampaignProgressAndSnapshots(t *testing.T) {
	app := smallApp(t)
	var calls int
	rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(30),
		mbpta.WithBaseSeed(5),
		mbpta.WithBatchSize(10),
		mbpta.WithProgress(func(p mbpta.Progress) {
			if p.Batch != calls {
				t.Errorf("batch %d delivered out of order (call %d)", p.Batch, calls)
			}
			calls++
		}),
		mbpta.MeasureOnly())
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(rep.Snapshots) != 3 {
		t.Fatalf("progress calls=%d snapshots=%d, want 3", calls, len(rep.Snapshots))
	}
	last := rep.Snapshots[len(rep.Snapshots)-1]
	if last.Runs != 30 || !last.GateChecked {
		t.Errorf("last snapshot %+v", last)
	}
}

func TestCampaignCanceled(t *testing.T) {
	app := smallApp(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	_, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), app,
		mbpta.WithRuns(100000),
		mbpta.WithBatchSize(10),
		mbpta.WithProgress(func(mbpta.Progress) { cancel() }))
	if !errors.Is(err, mbpta.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v does not match context.Canceled", err)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i >= 50 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCampaignNotConverged(t *testing.T) {
	// An unsatisfiable convergence rule must exhaust the budget and
	// surface ErrNotConverged while still returning the report.
	app := smallApp(t)
	rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(20),
		mbpta.WithBatchSize(10),
		mbpta.WithStopRule(mbpta.PWCETDelta(1e-12, 1e-9, 50)),
		mbpta.MeasureOnly())
	if !errors.Is(err, mbpta.ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if rep == nil || rep.Converged || len(rep.Campaign.Results) != 20 {
		t.Fatalf("report %+v", rep)
	}
}

// trendingWorkload runs a loop whose iteration count grows with the
// run index — a blatant trend the identical-distribution test must
// reject, whatever the platform's jitter.
type trendingWorkload struct{}

func (trendingWorkload) Name() string { return "trending" }
func (trendingWorkload) Prepare(run int) (*mbpta.Machine, error) {
	b := mbpta.NewProgramBuilder("trending", 0x1000)
	b.Li(1, 0)
	b.Li(2, int32(10+5*run))
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return mbpta.NewMachine(prog, mbpta.NewMemory()), nil
}
func (trendingWorkload) PathOf(*mbpta.Machine) string { return "" }

func TestCampaignIIDGateFailed(t *testing.T) {
	// A trending series cannot pass the gate; the campaign must surface
	// the sentinel and still hand back the measurements.
	rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), trendingWorkload{},
		mbpta.WithRuns(100),
		mbpta.WithAnalyzerOptions(mbpta.Options{BlockSize: 10, MinPathRuns: 50}))
	if !errors.Is(err, mbpta.ErrIIDGateFailed) {
		t.Fatalf("err = %v, want ErrIIDGateFailed", err)
	}
	if !errors.Is(err, mbpta.ErrIIDRejected) {
		t.Errorf("v2 sentinel must remain compatible with ErrIIDRejected: %v", err)
	}
	if rep == nil || rep.Analysis != nil || len(rep.Campaign.Results) != 100 {
		t.Fatal("gate failure lost the measured campaign")
	}
	// MeasureOnly sidesteps the gate for trace collection (e.g. the DET
	// baseline, which MBPTA cannot analyze).
	app := smallApp(t)
	if _, err := mbpta.Campaign(context.Background(), mbpta.DETPlatform(), app,
		mbpta.WithRuns(30), mbpta.WithBaseSeed(8), mbpta.MeasureOnly()); err != nil {
		t.Fatalf("MeasureOnly on DET: %v", err)
	}
}

func TestCampaignConvergesBeforeBudget(t *testing.T) {
	// The point of the engine: a TVCA RAND campaign stops before the
	// budget with a pWCET estimate close to the full-budget value.
	app := smallApp(t)
	const budget = 1500
	rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(budget),
		mbpta.WithBaseSeed(42),
		mbpta.WithBatchSize(250),
		mbpta.WithStopRule(mbpta.PWCETDelta(1e-12, 0.02, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.StopRuns >= budget {
		t.Fatalf("no early stop: converged=%v at %d/%d", rep.Converged, rep.StopRuns, budget)
	}
	if rep.Analysis == nil {
		t.Fatal("nil analysis")
	}
}

func TestStopRuleConstructorsExported(t *testing.T) {
	for _, r := range []mbpta.StopRule{
		mbpta.FixedRuns(10),
		mbpta.PWCETDelta(0, 0, 0),
		mbpta.CRPSConverged(0, 0),
		core.MaxWallClock(time.Second),
		core.AnyRule(mbpta.FixedRuns(1), core.MaxWallClock(time.Hour)),
	} {
		if r.Name() == "" {
			t.Error("rule with empty name")
		}
	}
}

func TestCampaignFaultInjectionRateZeroIdentity(t *testing.T) {
	// WithFaultInjection at rate 0 must not change a single bit of the
	// measured series.
	app := smallApp(t)
	ref, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(30), mbpta.WithBaseSeed(13), mbpta.MeasureOnly())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(30), mbpta.WithBaseSeed(13), mbpta.MeasureOnly(),
		mbpta.WithFaultInjection(mbpta.FaultConfig{Rate: 0}))
	if err != nil {
		t.Fatal(err)
	}
	a, b := ref.Campaign.Results, rep.Campaign.Results
	if len(a) != len(b) {
		t.Fatalf("%d vs %d runs", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if rep.Faults.Quarantined() != 0 || rep.Faults.Injected != 0 {
		t.Errorf("rate 0 injected something: %+v", rep.Faults)
	}
}

func TestCampaignFaultInjectionQuarantines(t *testing.T) {
	// A faulted campaign still analyzes, but only over clean runs; the
	// quarantine tally is visible in the report and in every snapshot.
	app := smallApp(t)
	const runs = 600
	var last mbpta.Progress
	rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(runs), mbpta.WithBaseSeed(42),
		// The gate verdict itself is not under test (it can be marginal
		// on a reduced-frames campaign); the quarantine accounting is.
		mbpta.WithAnalyzerOptions(mbpta.Options{AllowIIDFailure: true}),
		mbpta.WithFaultInjection(mbpta.FaultConfig{Rate: 0.3}),
		mbpta.WithProgress(func(p mbpta.Progress) { last = p }))
	if err != nil {
		t.Fatal(err)
	}
	fs := rep.Faults
	if fs.Total != runs {
		t.Fatalf("summary total %d, want %d", fs.Total, runs)
	}
	if fs.Quarantined() == 0 {
		t.Fatal("rate 0.3 over 600 runs quarantined nothing")
	}
	// Quarantined runs never reach the gate or the fit.
	if got := len(rep.Campaign.Times()); got != fs.Clean {
		t.Errorf("measured series has %d entries, want %d clean", got, fs.Clean)
	}
	n := 0
	for _, p := range rep.Analysis.Paths {
		n += p.N
	}
	for _, sp := range rep.Analysis.SmallPaths {
		n += sp.N
	}
	if n != fs.Clean {
		t.Errorf("analysis saw %d samples, want %d clean", n, fs.Clean)
	}
	// Progress snapshots carry the outcome tally.
	if last.TotalRuns != runs || last.Quarantined != fs.Quarantined() {
		t.Errorf("snapshot totals %d/%d, want %d/%d",
			last.TotalRuns, last.Quarantined, runs, fs.Quarantined())
	}
	sum := 0
	for _, c := range last.Outcomes {
		sum += c
	}
	if sum != fs.Quarantined() {
		t.Errorf("snapshot outcomes %v sum to %d, want %d", last.Outcomes, sum, fs.Quarantined())
	}
	// The exported trace likewise excludes quarantined runs.
	if got := len(rep.TraceSet().Samples); got != fs.Clean {
		t.Errorf("trace has %d samples, want %d", got, fs.Clean)
	}
}

func TestCampaignFaultConfigValidated(t *testing.T) {
	app := smallApp(t)
	_, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(10), mbpta.MeasureOnly(),
		mbpta.WithFaultInjection(mbpta.FaultConfig{Rate: -1}))
	if err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestMitigationOffFingerprintIdentical(t *testing.T) {
	// The tentpole's bit-identity pledge: spelling out "no mitigation,
	// constant hazard" must produce byte-for-byte the fingerprint of a
	// plain rate-only fault campaign — the mitigation layer is invisible
	// until switched on.
	app := smallApp(t)
	run := func(cfg mbpta.FaultConfig) string {
		t.Helper()
		rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
			mbpta.WithRuns(60), mbpta.WithBaseSeed(42), mbpta.MeasureOnly(),
			mbpta.WithFaultInjection(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Fingerprint()
	}
	plain := run(mbpta.FaultConfig{Rate: 0.5})
	explicit := run(mbpta.FaultConfig{
		Rate:       0.5,
		Mitigation: mbpta.Mitigation{Kind: mbpta.MitigationNone},
		Hazard:     mbpta.Hazard{Kind: mbpta.HazardConstant},
	})
	if plain != explicit {
		t.Fatalf("explicit none/constant changed the fingerprint:\n%s\n%s", plain, explicit)
	}
	mitigated := run(mbpta.FaultConfig{Rate: 0.5, Mitigation: mbpta.Mitigation{Kind: mbpta.MitigationECC}})
	if mitigated == plain {
		t.Fatal("ECC campaign fingerprint equals the unmitigated one")
	}
}

func TestCampaignMitigatedRunsAnalyzed(t *testing.T) {
	// Mitigated runs carry an outcome yet stay in the measured series:
	// clean count includes them, the trace exports them, and the
	// summary's mitigated tally is a subset of clean.
	app := smallApp(t)
	rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(300), mbpta.WithBaseSeed(42), mbpta.MeasureOnly(),
		mbpta.WithFaultInjection(mbpta.FaultConfig{
			Rate:       0.5,
			Mitigation: mbpta.Mitigation{Kind: faults.MitigationLockstep},
		}))
	if err != nil {
		t.Fatal(err)
	}
	fs := rep.Faults
	if fs.MitigatedTotal() == 0 {
		t.Fatal("lockstep at rate 0.5 over 300 runs recovered nothing")
	}
	if fs.Quarantined() != 0 {
		t.Errorf("lockstep quarantined %d runs", fs.Quarantined())
	}
	if got := len(rep.Campaign.Times()); got != fs.Clean {
		t.Errorf("measured series has %d entries, want %d clean", got, fs.Clean)
	}
	if got := len(rep.TraceSet().Samples); got != fs.Clean {
		t.Errorf("trace has %d samples, want %d clean", got, fs.Clean)
	}
	// Lockstep overhead is real: the mitigated campaign's high-water
	// mark exceeds the unmitigated clean baseline's.
	base, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(300), mbpta.WithBaseSeed(42), mbpta.MeasureOnly())
	if err != nil {
		t.Fatal(err)
	}
	hwm := func(ts []float64) float64 {
		m := 0.0
		for _, v := range ts {
			if v > m {
				m = v
			}
		}
		return m
	}
	if lk, cl := hwm(rep.Campaign.Times()), hwm(base.Campaign.Times()); lk <= cl {
		t.Errorf("lockstep HWM %.0f not above clean HWM %.0f", lk, cl)
	}
}
