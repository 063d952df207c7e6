package faults

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/tvca"
)

func smallApp(t *testing.T) *tvca.App {
	t.Helper()
	cfg := tvca.DefaultConfig()
	cfg.Frames = 4 // short runs; keep the cache pressure
	app, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Rate: -1},
		{Rate: math.NaN()},
		{Rate: math.Inf(1)},
		{Rate: 1, WatchdogFactor: 1},
		{Rate: 1, Targets: []Target{"flux-capacitor"}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	in, err := New(Config{Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if in.cfg.WatchdogFactor != 8 {
		t.Errorf("default watchdog factor = %d, want 8", in.cfg.WatchdogFactor)
	}
	if in.cfg.Salt != faultStream {
		t.Errorf("default salt = %#x", in.cfg.Salt)
	}
	if len(in.targets) != len(AllTargets()) {
		t.Errorf("default targets = %v", in.targets)
	}
	if in.Rate() != 0.5 {
		t.Errorf("Rate() = %g", in.Rate())
	}
}

func TestPoisson(t *testing.T) {
	for _, lambda := range []float64{0, -3, math.NaN()} {
		if k, clamped := poisson(rng.NewSplitMix64(1), lambda, maxFaultsPerRun); k != 0 || clamped {
			t.Errorf("poisson(%g) = %d (clamped %v), want 0", lambda, k, clamped)
		}
	}
	// Deterministic in the source.
	a, b := rng.NewSplitMix64(42), rng.NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		ka, _ := poisson(a, 1.5, maxFaultsPerRun)
		kb, _ := poisson(b, 1.5, maxFaultsPerRun)
		if ka != kb {
			t.Fatalf("draw %d: %d vs %d", i, ka, kb)
		}
	}
	// Sample mean near lambda.
	src := rng.NewSplitMix64(7)
	const n, lambda = 5000, 1.5
	sum := 0
	for i := 0; i < n; i++ {
		k, clamped := poisson(src, lambda, maxFaultsPerRun)
		if clamped {
			t.Fatalf("draw %d clamped at rate %g", i, lambda)
		}
		sum += k
	}
	mean := float64(sum) / n
	if math.Abs(mean-lambda) > 0.1 {
		t.Errorf("sample mean %.3f, want ~%g", mean, lambda)
	}
}

// streamWith runs a short RAND campaign on boards from newBoard (nil =
// plain platforms).
func streamWith(t *testing.T, newBoard func() (platform.Board, error), runs int) *platform.CampaignResult {
	t.Helper()
	app := smallApp(t)
	c, err := platform.StreamCampaign(context.Background(), platform.RAND(), app,
		platform.StreamOptions{MaxRuns: runs, BatchSize: runs, Parallel: 4, BaseSeed: 11, NewBoard: newBoard},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRateZeroBitIdentical(t *testing.T) {
	// The acceptance criterion: with the injector installed at rate 0
	// the measured series is bit-identical to a campaign without it.
	const runs = 10
	ref := streamWith(t, nil, runs)
	in, err := New(Config{Rate: 0})
	if err != nil {
		t.Fatal(err)
	}
	got := streamWith(t, in.NewBoard(platform.RAND()), runs)
	if len(got.Results) != len(ref.Results) {
		t.Fatalf("%d vs %d runs", len(got.Results), len(ref.Results))
	}
	for i := range ref.Results {
		if got.Results[i] != ref.Results[i] {
			t.Fatalf("run %d differs: %+v vs %+v", i, got.Results[i], ref.Results[i])
		}
	}
}

func TestInjectedCampaignDeterministicAndClassified(t *testing.T) {
	const runs = 40
	mk := func() *platform.CampaignResult {
		in, err := New(Config{Rate: 2})
		if err != nil {
			t.Fatal(err)
		}
		return streamWith(t, in.NewBoard(platform.RAND()), runs)
	}
	c := mk()
	if len(c.Results) != runs {
		t.Fatalf("%d runs", len(c.Results))
	}
	// Same base seed, same schedule, same outcomes.
	again := mk()
	for i := range c.Results {
		if c.Results[i] != again.Results[i] {
			t.Fatalf("run %d not reproducible: %+v vs %+v", i, c.Results[i], again.Results[i])
		}
	}
	// Every run carries exactly one outcome: clean runs the empty one,
	// injected runs one of the canonical classes.
	canon := make(map[string]bool)
	for _, o := range Outcomes() {
		canon[o] = true
	}
	for i, r := range c.Results {
		switch {
		case r.Faults == 0 && r.Outcome != "":
			t.Errorf("run %d: no upsets but outcome %q", i, r.Outcome)
		case r.Faults > 0 && !canon[r.Outcome]:
			t.Errorf("run %d: %d upsets but outcome %q", i, r.Faults, r.Outcome)
		}
	}
	s := Summarize(c.Results)
	if s.Total != runs || s.Clean+s.Quarantined() != runs {
		t.Errorf("summary does not add up: %+v", s)
	}
	// At rate 2 only ~13.5%% of runs draw zero upsets; the campaign must
	// actually have quarantined something for this test to mean anything.
	if s.Quarantined() == 0 {
		t.Fatal("no run was quarantined at rate 2")
	}
	if s.Injected == 0 {
		t.Fatal("no upsets recorded")
	}
	// Quarantined runs never enter the measurement series.
	if n := len(c.Times()); n != s.Clean {
		t.Errorf("Times() has %d entries, want %d clean", n, s.Clean)
	}
	if q := c.Quarantined(); q != s.Quarantined() {
		t.Errorf("CampaignResult.Quarantined() = %d, want %d", q, s.Quarantined())
	}
}

// loopWorkload counts r1 down to zero; a high-bit upset in r1 makes the
// loop run ~2^30 iterations, far past any watchdog budget.
type loopWorkload struct{}

func (loopWorkload) Name() string { return "loop" }
func (loopWorkload) Prepare(run int) (*isa.Machine, error) {
	b := isa.NewBuilder("loop", 0)
	b.Li(1, 50).Li(2, 0)
	b.Label("top").Subi(1, 1, 1).Bne(1, 2, "top")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return isa.NewMachine(p, isa.NewMemory()), nil
}
func (loopWorkload) PathOf(*isa.Machine) string { return "" }

func TestWatchdogClassifiesHungRun(t *testing.T) {
	p, err := platform.New(platform.DET())
	if err != nil {
		t.Fatal(err)
	}
	w := loopWorkload{}
	base, err := p.ExecuteRun(context.Background(), w, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(Config{Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := []Fault{{Step: 10, Target: TargetIntReg, Set: 1, Bit: 30}}
	res, err := in.faultedRun(context.Background(), p, w, 0, 1, base, plan, nil)
	if err != nil {
		t.Fatalf("hung run must classify, not error: %v", err)
	}
	if res.Outcome != OutcomeHung {
		t.Errorf("outcome %q, want %q", res.Outcome, OutcomeHung)
	}
	// The watchdog bounds the stall: the run retired at most the budget.
	budget := uint64(in.cfg.WatchdogFactor) * base.Instructions
	if budget < base.Instructions+watchdogSlack {
		budget = base.Instructions + watchdogSlack
	}
	if res.Instructions > budget {
		t.Errorf("hung run retired %d instructions, budget %d", res.Instructions, budget)
	}
}

// checkedWorkload computes r1 = 7 and validates it afterwards, so a
// data-corrupting upset is caught as wrong-output even though the
// machine halts cleanly.
type checkedWorkload struct{}

func (checkedWorkload) Name() string { return "checked" }
func (checkedWorkload) Prepare(run int) (*isa.Machine, error) {
	b := isa.NewBuilder("checked", 0)
	b.Li(1, 7).Nop().Nop().Halt()
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return isa.NewMachine(p, isa.NewMemory()), nil
}
func (checkedWorkload) PathOf(*isa.Machine) string { return "" }
func (checkedWorkload) CheckOutput(m *isa.Machine, run int) error {
	if got := m.Reg(1); got != 7 {
		return fmt.Errorf("r1 = %d, want 7", got)
	}
	return nil
}

func TestClassificationAgainstReference(t *testing.T) {
	p, err := platform.New(platform.DET())
	if err != nil {
		t.Fatal(err)
	}
	w := checkedWorkload{}
	base, err := p.ExecuteRun(context.Background(), w, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(Config{Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		plan []Fault
		want string
	}{
		// Corrupt the checked register after it is written.
		{"wrong-output", []Fault{{Step: 1, Target: TargetIntReg, Set: 1, Bit: 0}}, OutcomeWrongOutput},
		// Upset an architecturally dead register: no output or timing effect.
		{"masked", []Fault{{Step: 1, Target: TargetIntReg, Set: 5, Bit: 3}}, OutcomeMasked},
	}
	for _, tc := range cases {
		res, err := in.faultedRun(context.Background(), p, w, 0, 1, base, tc.plan, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Outcome != tc.want {
			t.Errorf("%s: outcome %q, want %q", tc.name, res.Outcome, tc.want)
		}
		if res.Faults != len(tc.plan) {
			t.Errorf("%s: %d faults recorded, want %d", tc.name, res.Faults, len(tc.plan))
		}
	}
}

func TestSummarizeAndString(t *testing.T) {
	results := []platform.RunResult{
		{Cycles: 100},
		{Cycles: 110, Outcome: OutcomeTimingPerturbed, Faults: 2},
		{Cycles: 100, Outcome: OutcomeMasked, Faults: 1},
		{Cycles: 400, Outcome: OutcomeHung, Faults: 1},
		{Cycles: 100},
	}
	s := Summarize(results)
	if s.Total != 5 || s.Clean != 2 || s.Quarantined() != 3 {
		t.Fatalf("summary %+v", s)
	}
	if s.Injected != 4 {
		t.Errorf("injected = %d, want 4", s.Injected)
	}
	str := s.String()
	for _, want := range []string{"5 runs", "2 clean", "3 quarantined", "masked 1", "timing-perturbed 1", "hung 1", "4 upsets"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
	// Empty campaign renders without division blowups.
	if z := Summarize(nil).String(); !strings.Contains(z, "0 runs") {
		t.Errorf("empty summary: %q", z)
	}
}

// TestClampedRunsCountDeliveredRuns: the clamp tally is a function of
// the delivered runs alone. A local campaign, a pooled one whose leases
// ran past an early stop, and a canceled campaign resumed on a fresh
// injector (which executes only the missing runs) report the same
// series and the same summary, clamp count included.
func TestClampedRunsCountDeliveredRuns(t *testing.T) {
	app := smallApp(t)
	cfg := platform.RAND()
	const runs, batch, stopAt, seed = 60, 10, 30, 5
	newInjector := func() *Injector {
		in, err := New(Config{Rate: 6})
		if err != nil {
			t.Fatal(err)
		}
		in.limit = 8 // a low cap, so a fair share of the draws clamp
		return in
	}
	opts := func(in *Injector) platform.StreamOptions {
		return platform.StreamOptions{MaxRuns: runs, BatchSize: batch, Parallel: 1, BaseSeed: seed, NewBoard: in.NewBoard(cfg)}
	}
	stop := func(b platform.Batch) (bool, error) { return b.Start+len(b.Results) >= stopAt, nil }
	summary := func(in *Injector, c *platform.CampaignResult) Summary {
		s := Summarize(c.Results)
		s.ClampedRuns = in.ClampedRuns(seed, len(c.Results))
		return s
	}
	check := func(mode string, got *platform.CampaignResult, s, want Summary, ref *platform.CampaignResult) {
		t.Helper()
		if len(got.Results) != len(ref.Results) {
			t.Fatalf("%s: %d runs, want %d", mode, len(got.Results), len(ref.Results))
		}
		for i := range ref.Results {
			if got.Results[i] != ref.Results[i] {
				t.Fatalf("%s: run %d = %+v, want %+v", mode, i, got.Results[i], ref.Results[i])
			}
		}
		if !reflect.DeepEqual(s, want) {
			t.Errorf("%s: summary %+v, want %+v", mode, s, want)
		}
	}

	in := newInjector()
	ref, err := platform.StreamCampaign(context.Background(), cfg, app, opts(in), stop)
	if err != nil {
		t.Fatal(err)
	}
	want := summary(in, ref)
	if len(ref.Results) != stopAt || want.ClampedRuns == 0 || want.ClampedRuns == stopAt {
		t.Fatalf("reference: %d runs, %d clamped; want %d runs, some but not all clamped", len(ref.Results), want.ClampedRuns, stopAt)
	}

	t.Run("pool-early-stop", func(t *testing.T) {
		pool := fabric.NewPool(fabric.Config{Executors: 2, SessionLeases: 4})
		defer pool.Close()
		in := newInjector()
		got, err := pool.StreamCampaign(context.Background(), cfg, app, opts(in), stop)
		if err != nil {
			t.Fatal(err)
		}
		check("pool", got, summary(in, got), want, ref)
	})

	t.Run("cancel-resume", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		first, err := platform.StreamCampaign(ctx, cfg, app, opts(newInjector()), func(b platform.Batch) (bool, error) {
			if b.Index == 1 {
				cancel() // the next batch never runs
			}
			return false, nil
		})
		if !errors.Is(err, platform.ErrCanceled) || first == nil || len(first.Results) != 2*batch {
			t.Fatalf("canceled campaign: err %v, want ErrCanceled after %d runs", err, 2*batch)
		}
		in := newInjector()
		o := opts(in)
		o.Resume = &platform.ResumeState{StartBatch: 2, Delivered: 2 * batch, Prefix: first.Results}
		got, err := platform.StreamCampaign(context.Background(), cfg, app, o, stop)
		if err != nil {
			t.Fatal(err)
		}
		check("resume", got, summary(in, got), want, ref)
	})
}
