// Package faults implements deterministic single-event-upset (SEU)
// injection for measurement campaigns. In the space domain SEUs are the
// dominant hardware hazard, so pWCET claims must be shown to survive
// them: the injector flips bits in the cache and TLB tag+state arrays
// and in the register files at a configurable per-run rate, classifies
// every injected run, and quarantines it from the timing analysis so
// the i.i.d. gate and the Gumbel fit only ever see clean measurements.
//
// Determinism follows the campaign's seed discipline: the fault
// schedule of run i is derived from DeriveRunSeed(BaseSeed, i) through
// an independent PRNG stream, so the same base seed reproduces the same
// upsets — and at rate 0 the injector is bit-identical to a fault-free
// campaign.
//
// Each injected run is classified into exactly one outcome:
//
//   - masked: the program halted with correct output in exactly the
//     fault-free cycle count — the upset had no observable effect.
//   - timing-perturbed: correct output, different cycle count (e.g. a
//     tag upset turned hits into misses).
//   - wrong-output: the program crashed, or halted with output that
//     disagrees with the workload's golden reference (OutputChecker).
//   - hung: the watchdog tripped — the run retired WatchdogFactor
//     times the fault-free instruction count without halting.
//
// Classification needs a fault-free reference, so a run whose Poisson
// draw is nonzero is first executed clean (same seed; the platform
// protocol makes that reproducible) and then re-executed with the
// upsets applied.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Run outcome classes, stored in platform.RunResult.Outcome. A clean
// (non-injected or zero-upset) run keeps the empty outcome.
const (
	OutcomeMasked          = "masked"
	OutcomeTimingPerturbed = "timing-perturbed"
	OutcomeWrongOutput     = "wrong-output"
	OutcomeHung            = "hung"
)

// Outcomes lists the outcome classes in canonical report order.
func Outcomes() []string {
	return []string{OutcomeMasked, OutcomeTimingPerturbed, OutcomeWrongOutput, OutcomeHung}
}

// Target selects a hardware array subject to upsets.
type Target string

// Injection targets.
const (
	TargetIL1    Target = "il1"  // IL1 tag + state arrays
	TargetDL1    Target = "dl1"  // DL1 tag + state arrays
	TargetITLB   Target = "itlb" // ITLB entry + state arrays
	TargetDTLB   Target = "dtlb" // DTLB entry + state arrays
	TargetIntReg Target = "ireg" // integer register file
	TargetFPReg  Target = "freg" // floating-point register file
)

// AllTargets lists every injection target (the default target set).
func AllTargets() []Target {
	return []Target{TargetIL1, TargetDL1, TargetITLB, TargetDTLB, TargetIntReg, TargetFPReg}
}

// OutputChecker is implemented by workloads that can validate a run's
// architectural output against a golden reference (e.g. the TVCA
// host-side reference). Without it wrong-output corruption that does
// not crash the machine is indistinguishable from a masked or
// timing-perturbed upset, so classification degrades to timing-only.
type OutputChecker interface {
	CheckOutput(m *isa.Machine, run int) error
}

// Config tunes the injector.
type Config struct {
	// Rate is the expected number of upsets per run; the per-run count
	// is Poisson(Rate), drawn deterministically from the run seed. Rate
	// 0 disables injection (every run is clean and bit-identical to a
	// campaign without the injector).
	Rate float64
	// Hazard modulates Rate over the campaign's run index (wear-out,
	// orbit phase). The zero value is the constant profile, bit-identical
	// to a hazard-free config.
	Hazard Hazard
	// Mitigation layers a fault-mitigation scheme (scrubbing, ECC,
	// lockstep) over the injector; mitigated runs stay in the analyzed
	// series with their recovery overhead charged as cycles. The zero
	// value disables mitigation, bit-identical to today's quarantine
	// behavior.
	Mitigation Mitigation
	// Targets restricts the arrays subject to upsets (nil = all);
	// duplicates are rejected (a repeated target would double-weight
	// that array in the upset-location draw).
	Targets []Target
	// WatchdogFactor declares a faulted run hung once it retires Factor
	// times the fault-free instruction count without halting (default 8,
	// minimum 2).
	WatchdogFactor int
	// Salt decorrelates the fault-schedule PRNG stream from the
	// platform's randomized resources; campaigns differing only in Salt
	// inject independent schedules. Zero selects a fixed default.
	Salt uint64
	// Telemetry, when non-nil, counts injected upsets per target array
	// (faults_upsets_<target>_total). Injection schedules are seed-
	// derived, so the totals are deterministic for a fixed base seed
	// even though workers update them concurrently, as long as every
	// run executes once; they count executions (see Injector).
	Telemetry *telemetry.Registry
}

// faultStream separates the injector's PRNG stream from every other
// consumer of the run seed.
const faultStream uint64 = 0xFA17D00D5EEDB175

// maxFaultsPerRun caps a single run's Poisson draw (absurd rates would
// otherwise stall scheduling).
const maxFaultsPerRun = 4096

// watchdogSlack is the minimum headroom, in retired instructions, the
// watchdog budget keeps above the fault-free instruction count.
const watchdogSlack = 4096

// Injector is a deterministic SEU injector; plug it into a campaign via
// NewBoard. Safe for concurrent use by multiple campaign workers: all
// mutable state is per-run.
//
// The telemetry counters count executions, not delivered runs: on the
// fabric a lease run past an early stop, or re-leased, counts again.
// Report figures come from the delivered runs (Summarize, ClampedRuns).
type Injector struct {
	cfg     Config
	targets []Target
	// limit caps a single run's Poisson draw (maxFaultsPerRun).
	limit int
	// upsets holds the pre-resolved per-target telemetry counters (nil
	// Counter values are no-ops when telemetry is disabled).
	upsets map[Target]*telemetry.Counter
	// clamped counts executions whose Poisson draw hit the cap and had
	// the fault schedule truncated (faults_clamped_runs_total).
	clamped *telemetry.Counter
}

// New validates cfg and returns an injector.
func New(cfg Config) (*Injector, error) {
	if cfg.Rate < 0 || math.IsNaN(cfg.Rate) || math.IsInf(cfg.Rate, 0) {
		return nil, fmt.Errorf("faults: rate %g must be finite and >= 0", cfg.Rate)
	}
	var err error
	if cfg.Hazard, err = cfg.Hazard.normalize(); err != nil {
		return nil, err
	}
	if cfg.Mitigation, err = cfg.Mitigation.normalize(); err != nil {
		return nil, err
	}
	if cfg.WatchdogFactor == 0 {
		cfg.WatchdogFactor = 8
	}
	if cfg.WatchdogFactor < 2 {
		return nil, fmt.Errorf("faults: watchdog factor %d < 2", cfg.WatchdogFactor)
	}
	if cfg.Salt == 0 {
		cfg.Salt = faultStream
	}
	targets := cfg.Targets
	if len(targets) == 0 {
		targets = AllTargets()
	}
	known := make(map[Target]bool)
	for _, t := range AllTargets() {
		known[t] = true
	}
	seen := make(map[Target]bool, len(targets))
	for _, t := range targets {
		if !known[t] {
			return nil, fmt.Errorf("faults: unknown target %q", t)
		}
		if seen[t] {
			return nil, fmt.Errorf("faults: duplicate target %q (a repeated target double-weights that array in the upset-location draw)", t)
		}
		seen[t] = true
	}
	upsets := make(map[Target]*telemetry.Counter, len(targets))
	for _, t := range targets {
		upsets[t] = cfg.Telemetry.Counter("faults_upsets_" + telemetry.SanitizeName(string(t)) + "_total")
	}
	return &Injector{
		cfg:     cfg,
		targets: targets,
		limit:   maxFaultsPerRun,
		upsets:  upsets,
		clamped: cfg.Telemetry.Counter("faults_clamped_runs_total"),
	}, nil
}

// Rate returns the configured expected upsets per run.
func (in *Injector) Rate() float64 { return in.cfg.Rate }

// ClampedRuns returns how many of runs 0..runs-1 under baseSeed have
// their Poisson draw hit the maxFaultsPerRun cap (fault schedule
// truncated). It replays the pure per-run draw, so the count cannot
// depend on where or how often runs executed (resume, lease lookahead,
// retries). Zero under any sane rate; nonzero means the rate is beyond
// what the injector faithfully models, surfaced in the report.
func (in *Injector) ClampedRuns(baseSeed uint64, runs int) int {
	n := 0
	for run := 0; run < runs; run++ {
		if _, _, clamped := in.draw(run, platform.DeriveRunSeed(baseSeed, run)); clamped {
			n++
		}
	}
	return n
}

// draw returns the fault-schedule source of run and its Poisson upset
// count.
func (in *Injector) draw(run int, seed uint64) (src rng.Source, n int, clamped bool) {
	src = rng.NewSplitMix64(seed ^ in.cfg.Salt)
	n, clamped = poisson(src, in.cfg.Hazard.RateAt(in.cfg.Rate, run), in.limit)
	return src, n, clamped
}

// NewBoard returns a board factory for campaigns with this injector:
// each board is a single-core Platform built from cfg whose ExecuteRun
// goes through Execute. Plug it into platform.StreamOptions.NewBoard;
// the campaign fabric's in-process executors take it the same way.
func (in *Injector) NewBoard(cfg platform.Config) func() (platform.Board, error) {
	return func() (platform.Board, error) {
		p, err := platform.New(cfg)
		if err != nil {
			return nil, err
		}
		return &board{Platform: p, in: in}, nil
	}
}

// board decorates a single-core Platform with fault injection. The
// embedded Platform keeps BoardStats, so telemetry harvest is
// unchanged.
type board struct {
	*platform.Platform
	in *Injector
}

// ExecuteRun implements platform.Board through the injector.
func (b *board) ExecuteRun(ctx context.Context, w platform.Workload, run int, seed uint64) (platform.RunResult, error) {
	return b.in.Execute(ctx, b.Platform, w, run, seed)
}

// Execute performs one (possibly injected) measurement run. A zero
// Poisson draw takes exactly the clean path, so the measured series at
// rate 0 is bit-identical to a campaign without the injector. A nonzero
// draw runs clean first (the classification baseline), then re-runs
// with the upsets applied and classifies the result; classified runs
// return a nil error so the campaign proceeds without retrying them.
func (in *Injector) Execute(ctx context.Context, p *platform.Platform, w platform.Workload, run int, seed uint64) (platform.RunResult, error) {
	src, n, clamped := in.draw(run, seed)
	if clamped {
		in.clamped.Inc()
	}
	if n == 0 {
		res, err := p.ExecuteRun(ctx, w, run, seed)
		if err != nil || !in.cfg.Mitigation.Enabled() {
			return res, err
		}
		return in.cleanOverhead(res), nil
	}
	base, err := p.ExecuteRun(ctx, w, run, seed)
	if err != nil {
		return base, err
	}
	plan := in.plan(src, n, base.Instructions, p.Core())
	switch in.cfg.Mitigation.Kind {
	case MitigationScrub:
		return in.scrubRun(ctx, p, w, run, seed, base, plan)
	case MitigationECC:
		return in.eccRun(ctx, p, w, run, seed, base, plan)
	case MitigationLockstep:
		return in.lockstepRun(ctx, p, w, run, seed, base, plan)
	}
	return in.faultedRun(ctx, p, w, run, seed, base, plan, nil)
}

// Fault is one scheduled upset: after the Step-th retired instruction,
// flip Bit of the addressed cell.
type Fault struct {
	Step   uint64
	Target Target
	// Set/Way address the cell: (set, way) for caches, entry index in
	// Set for TLBs, register number in Set for register files.
	Set, Way int
	// Bit is the flipped bit; for cache/TLB targets the value 64
	// selects the state (valid) bit instead of a tag bit.
	Bit int
}

// plan draws n upsets uniformly over the run's retired instructions and
// the selected arrays, sorted by injection step.
func (in *Injector) plan(src rng.Source, n int, instr uint64, c *cpu.Core) []Fault {
	span := int(instr)
	if span < 1 {
		span = 1
	}
	plan := make([]Fault, n)
	for i := range plan {
		t := in.targets[rng.Intn(src, len(in.targets))]
		f := Fault{Step: uint64(rng.Intn(src, span)) + 1, Target: t}
		switch t {
		case TargetIL1, TargetDL1:
			cc := c.IL1
			if t == TargetDL1 {
				cc = c.DL1
			}
			f.Set = rng.Intn(src, cc.Config().Sets())
			f.Way = rng.Intn(src, cc.Config().Ways)
			f.Bit = rng.Intn(src, 65) // 64 = state bit
		case TargetITLB, TargetDTLB:
			tt := c.ITLB
			if t == TargetDTLB {
				tt = c.DTLB
			}
			f.Set = rng.Intn(src, tt.Config().Entries)
			f.Bit = rng.Intn(src, 65) // 64 = state bit
		case TargetIntReg:
			f.Set = rng.Intn(src, isa.NumRegs)
			f.Bit = rng.Intn(src, 32)
		case TargetFPReg:
			f.Set = rng.Intn(src, isa.NumRegs)
			f.Bit = rng.Intn(src, 64)
		}
		plan[i] = f
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].Step < plan[j].Step })
	return plan
}

// faultedRun re-executes run with plan applied and classifies it
// against the clean baseline. A non-nil scrub reverts array upsets at
// its periodic boundaries (see scrubRun).
func (in *Injector) faultedRun(ctx context.Context, p *platform.Platform, w platform.Workload, run int, seed uint64, base platform.RunResult, plan []Fault, scrub *scrubber) (platform.RunResult, error) {
	m, err := w.Prepare(run)
	if err != nil {
		return platform.RunResult{}, fmt.Errorf("faults: prepare faulted run %d: %w", run, err)
	}
	p.PrepareRun(seed)
	c := p.Core()
	budget := uint64(in.cfg.WatchdogFactor) * base.Instructions
	if budget < base.Instructions+watchdogSlack {
		budget = base.Instructions + watchdogSlack
	}
	m.StepLimit = budget
	p.PollContext(ctx, m)
	startCycle := c.Cycle()
	sink := faultSink{in: in, m: m, c: c, plan: plan, scrub: scrub}
	_, runErr := m.RunBlocks(&sink)
	p.PollContext(nil, m)
	injected := sink.injected
	res := platform.RunResult{
		Cycles:       c.Cycle() - startCycle,
		Instructions: c.Stats().Instructions,
		Path:         w.PathOf(m),
		Faults:       injected,
	}
	switch {
	case runErr == nil:
		if chk, ok := w.(OutputChecker); ok {
			if cerr := chk.CheckOutput(m, run); cerr != nil {
				res.Outcome = OutcomeWrongOutput
				break
			}
		}
		if res.Cycles == base.Cycles {
			res.Outcome = OutcomeMasked
		} else {
			res.Outcome = OutcomeTimingPerturbed
		}
	case errors.Is(runErr, isa.ErrCancelled):
		// Campaign cancellation or per-run timeout, not a fault effect.
		return platform.RunResult{}, fmt.Errorf("faults: run %d canceled: %w", run, runErr)
	case errors.Is(runErr, isa.ErrStepLimit):
		res.Outcome = OutcomeHung
	default:
		// The machine crashed (PC escape, division by zero, unaligned
		// access, ...): architecturally corrupted.
		res.Outcome = OutcomeWrongOutput
	}
	return res, nil
}

// faultSink charges a faulted run to the core one instruction at a
// time and applies each planned upset, and each scrub boundary, right
// after the instruction whose retirement reaches its step.
type faultSink struct {
	in       *Injector
	m        *isa.Machine
	c        *cpu.Core
	plan     []Fault
	scrub    *scrubber
	idx      int // next plan entry
	injected int
}

// FetchBytes asks for one-instruction blocks: upsets land between
// instructions.
func (s *faultSink) FetchBytes() int { return 0 }

func (s *faultSink) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	s.c.ConsumeBlock(pc, classes, taken, ops)
	for s.idx < len(s.plan) && s.plan[s.idx].Step <= s.m.Steps() {
		s.in.apply(s.plan[s.idx], s.m, s.c)
		if s.scrub != nil {
			s.scrub.note(s.plan[s.idx])
		}
		s.idx++
		s.injected++
	}
	if s.scrub != nil {
		s.scrub.tick(s.m.Steps(), s.c)
	}
}

// apply flips the addressed bit.
func (in *Injector) apply(f Fault, m *isa.Machine, c *cpu.Core) {
	in.upsets[f.Target].Inc()
	switch f.Target {
	case TargetIL1, TargetDL1:
		cc := c.IL1
		if f.Target == TargetDL1 {
			cc = c.DL1
		}
		if f.Bit >= 64 {
			cc.InjectStateFault(f.Set, f.Way)
		} else {
			cc.InjectTagFault(f.Set, f.Way, f.Bit)
		}
	case TargetITLB, TargetDTLB:
		tt := c.ITLB
		if f.Target == TargetDTLB {
			tt = c.DTLB
		}
		if f.Bit >= 64 {
			tt.InjectStateFault(f.Set)
		} else {
			tt.InjectEntryFault(f.Set, f.Bit)
		}
	case TargetIntReg:
		r := isa.Reg(f.Set % isa.NumRegs)
		m.SetReg(r, m.Reg(r)^int32(1)<<(uint(f.Bit)%32))
	case TargetFPReg:
		fr := isa.FReg(f.Set % isa.NumRegs)
		bits := math.Float64bits(m.FRegVal(fr)) ^ uint64(1)<<(uint(f.Bit)%64)
		m.SetFReg(fr, math.Float64frombits(bits))
	}
}

// poisson draws Poisson(lambda) by Knuth's product method —
// deterministic in src, exact for the small rates injection uses.
// clamped reports that the draw hit limit and the schedule was
// truncated; callers surface it instead of silently dropping it.
func poisson(src rng.Source, lambda float64, limit int) (k int, clamped bool) {
	if lambda <= 0 || math.IsNaN(lambda) {
		return 0, false
	}
	l := math.Exp(-lambda)
	p := rng.Float64(src)
	for p > l {
		k++
		if k >= limit {
			return k, true
		}
		p *= rng.Float64(src)
	}
	return k, false
}

// Summary tallies a campaign's run outcomes.
type Summary struct {
	// Total counts every executed run; Clean those kept for analysis
	// (including mitigated runs — their overhead-laden timings are part
	// of the measurement series by design).
	Total int
	Clean int
	// Injected is the number of upsets that occurred across all runs
	// (applied or absorbed by a mitigation).
	Injected int
	// ByOutcome tallies the quarantined runs per class.
	ByOutcome map[string]int
	// Mitigated tallies the analysis-clean runs whose upsets a
	// mitigation layer absorbed, per mitigated outcome class
	// (corrected / scrubbed / voted). Empty when mitigation is off.
	Mitigated map[string]int
	// ClampedRuns counts runs whose Poisson draw hit the per-run fault
	// cap and had their schedule truncated (see Injector.ClampedRuns;
	// Summarize cannot recover it from results, so callers holding the
	// injector and the base seed fill it in).
	ClampedRuns int
}

// Summarize tallies results (clean runs have an empty outcome).
func Summarize(results []platform.RunResult) Summary {
	s := Summary{Total: len(results), ByOutcome: make(map[string]int), Mitigated: make(map[string]int)}
	for _, r := range results {
		s.Injected += r.Faults
		switch {
		case r.Quarantined():
			s.ByOutcome[r.Outcome]++
		case r.Outcome != "":
			s.Mitigated[r.Outcome]++
			s.Clean++
		default:
			s.Clean++
		}
	}
	return s
}

// Quarantined counts the runs excluded from the measurement series.
func (s Summary) Quarantined() int { return s.Total - s.Clean }

// MitigatedTotal counts the analysis-clean runs recovered by a
// mitigation.
func (s Summary) MitigatedTotal() int {
	n := 0
	for _, v := range s.Mitigated {
		n += v
	}
	return n
}

// String renders the summary in canonical outcome order.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d runs: %d clean, %d quarantined", s.Total, s.Clean, s.Quarantined())
	if s.Quarantined() > 0 {
		parts := make([]string, 0, len(s.ByOutcome))
		for _, o := range Outcomes() {
			if n := s.ByOutcome[o]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s %d", o, n))
			}
		}
		// Defensive: outcomes outside the canonical set, sorted.
		extra := make([]string, 0)
		canon := make(map[string]bool)
		for _, o := range Outcomes() {
			canon[o] = true
		}
		for o := range s.ByOutcome {
			if !canon[o] {
				extra = append(extra, o)
			}
		}
		sort.Strings(extra)
		for _, o := range extra {
			parts = append(parts, fmt.Sprintf("%s %d", o, s.ByOutcome[o]))
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
	}
	if s.MitigatedTotal() > 0 {
		parts := make([]string, 0, len(s.Mitigated))
		for _, o := range MitigatedOutcomes() {
			if n := s.Mitigated[o]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s %d", o, n))
			}
		}
		fmt.Fprintf(&b, ", %d mitigated (%s)", s.MitigatedTotal(), strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "; %d upsets injected", s.Injected)
	if s.ClampedRuns > 0 {
		fmt.Fprintf(&b, "; %d runs clamped at the fault cap", s.ClampedRuns)
	}
	return b.String()
}
