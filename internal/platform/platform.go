// Package platform composes the substrate models (cores, caches, TLBs,
// FPU, bus, DRAM) into the two processor builds the paper compares:
//
//   - DET: the baseline deterministic LEON3 — modulo placement, LRU
//     replacement, operation-mode (operand-dependent) FPU. This is the
//     platform industrial MBTA practice measures, inflating the
//     high-watermark by an engineering factor.
//   - RAND: the MBPTA-compliant build — random-modulo placement and
//     random replacement in IL1/DL1, random replacement in ITLB/DTLB,
//     analysis-mode (fixed worst-case) FDIV/FSQRT.
//
// The package also implements the paper's measurement protocol: for
// every run the caches and TLBs are flushed, the board (bus, DRAM, core
// clock) is reset, the binary is reloaded (fresh machine + data
// segments) and a new PRNG seed is installed.
package platform

import (
	"context"
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/tlb"
)

// Config is a full platform description.
type Config struct {
	Name       string
	Cores      int
	CoreParams cpu.Params
	IL1        cache.Config
	DL1        cache.Config
	ITLB       tlb.Config
	DTLB       tlb.Config
	FPUMode    fpu.Mode
	FPULat     fpu.Latencies
	Bus        bus.Config
	DRAM       mem.Config
	RNGKind    rng.Kind
}

// Validate checks the full configuration.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("platform %q: cores %d < 1", c.Name, c.Cores)
	}
	if err := c.CoreParams.Validate(); err != nil {
		return err
	}
	for _, cc := range []cache.Config{c.IL1, c.DL1} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	for _, tc := range []tlb.Config{c.ITLB, c.DTLB} {
		if err := tc.Validate(); err != nil {
			return err
		}
	}
	if err := c.FPULat.Validate(); err != nil {
		return err
	}
	switch c.FPUMode {
	case fpu.ModeAnalysis, fpu.ModeOperation:
	default:
		return fmt.Errorf("platform %q: bad FPU mode %q", c.Name, c.FPUMode)
	}
	if err := c.Bus.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	return nil
}

// reference geometry shared by both builds: 16KB 4-way 32B-line L1s,
// 64-entry TLBs, 4 cores, per the paper's platform section.
func baseConfig(name string) Config {
	return Config{
		Name:       name,
		Cores:      4,
		CoreParams: cpu.DefaultParams(),
		IL1: cache.Config{
			Name: "IL1", SizeBytes: 16 * 1024, LineBytes: 32, Ways: 4,
		},
		DL1: cache.Config{
			Name: "DL1", SizeBytes: 16 * 1024, LineBytes: 32, Ways: 4,
			WriteAllocate: false, // write-through no-write-allocate
		},
		ITLB: tlb.Config{
			Name: "ITLB", Entries: 64, PageBytes: 4096, WalkAccesses: 2,
		},
		DTLB: tlb.Config{
			Name: "DTLB", Entries: 64, PageBytes: 4096, WalkAccesses: 2,
		},
		FPULat:  fpu.DefaultLatencies(),
		Bus:     bus.Config{TransferCycles: 4, Cores: 4},
		DRAM:    mem.DefaultConfig(),
		RNGKind: rng.KindXoroshiro,
	}
}

// DET returns the deterministic baseline platform configuration.
func DET() Config {
	c := baseConfig("DET")
	c.IL1.Placement = cache.PlacementModulo
	c.IL1.Replacement = cache.ReplaceLRU
	c.DL1.Placement = cache.PlacementModulo
	c.DL1.Replacement = cache.ReplaceLRU
	c.ITLB.Replacement = tlb.ReplaceLRU
	c.DTLB.Replacement = tlb.ReplaceLRU
	c.FPUMode = fpu.ModeOperation
	return c
}

// RAND returns the MBPTA-compliant time-randomized platform
// configuration.
func RAND() Config {
	c := baseConfig("RAND")
	c.IL1.Placement = cache.PlacementRandomModulo
	c.IL1.Replacement = cache.ReplaceRandom
	c.DL1.Placement = cache.PlacementRandomModulo
	c.DL1.Replacement = cache.ReplaceRandom
	c.ITLB.Replacement = tlb.ReplaceRandom
	c.DTLB.Replacement = tlb.ReplaceRandom
	c.FPUMode = fpu.ModeAnalysis
	return c
}

// Platform is one instantiated board. Only core 0 executes the workload
// (as in the case study); Multicore runs co-runners on the other cores.
// Not safe for concurrent use — campaigns instantiate one Platform per
// worker.
type Platform struct {
	cfg   Config
	core  *cpu.Core
	bus   *bus.Bus
	dram  *mem.Controller
	il1   *cache.Cache
	dl1   *cache.Cache
	itlb  *tlb.TLB
	dtlb  *tlb.TLB
	fpu   *fpu.FPU
	rsrc  *rng.Xoroshiro128 // hardware randomness (replacement policies)
	seedr *rng.SplitMix64   // derives per-resource seeds from the run seed

	// Cumulative run-kind tallies for the telemetry harvest (see
	// BoardStats): how many measurements went through the trace-replay
	// fast path versus full interpretation, and how many of the
	// interpreted ones recorded their stream.
	replayRuns    uint64
	interpretRuns uint64
	recordings    uint64

	// Machine reuse: the steady-state campaign loop re-initializes a
	// Reloader workload's machine in place instead of allocating a fresh
	// memory image every run.
	machine machineCache

	// Decode-once trace replay (see TraceKeyer and traceSlot): the
	// block streams recorded for recurring keys, replayed through the
	// timing model for later runs with the same key. blind reports an
	// operand-blind FPU, where non-empty keys may replay.
	replayOff bool
	paranoid  bool
	blind     bool
	slot      traceSlot

	// runCtx is the context of the run in flight, polled through
	// cancelPoll — a method value bound once per board, so a cancelable
	// run allocates no closure.
	runCtx     context.Context
	cancelPoll func() bool
}

// New instantiates a platform from cfg.
func New(cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{cfg: cfg, blind: cfg.FPUMode == fpu.ModeAnalysis}
	p.cancelPoll = p.canceled
	p.rsrc = rng.NewXoroshiro128(1)
	p.seedr = rng.NewSplitMix64(1)
	var err error
	if p.il1, err = cache.New(cfg.IL1, p.rsrc); err != nil {
		return nil, err
	}
	if p.dl1, err = cache.New(cfg.DL1, p.rsrc); err != nil {
		return nil, err
	}
	if p.itlb, err = tlb.New(cfg.ITLB, p.rsrc); err != nil {
		return nil, err
	}
	if p.dtlb, err = tlb.New(cfg.DTLB, p.rsrc); err != nil {
		return nil, err
	}
	f, err := fpu.New(cfg.FPULat, cfg.FPUMode)
	if err != nil {
		return nil, err
	}
	p.fpu = f
	if p.bus, err = bus.New(cfg.Bus); err != nil {
		return nil, err
	}
	if p.dram, err = mem.New(cfg.DRAM); err != nil {
		return nil, err
	}
	if p.core, err = cpu.NewCore(0, cfg.CoreParams, p.il1, p.dl1, p.itlb, p.dtlb, f, cpu.BusMem{Bus: p.bus, Mem: p.dram}); err != nil {
		return nil, err
	}
	return p, nil
}

// Config returns the platform configuration.
func (p *Platform) Config() Config { return p.cfg }

// canceled reports whether the run in flight's context is done.
func (p *Platform) canceled() bool { return p.runCtx.Err() != nil }

// PollContext arms m to poll ctx for cancellation through the board's
// persistent poll, so a cancelable run allocates no closure; a ctx that
// can never fire, nil included, disarms m. Disarm m with a nil ctx once
// its run is over.
func (p *Platform) PollContext(ctx context.Context, m *isa.Machine) {
	p.runCtx, m.Cancel = nil, nil
	if ctx != nil && ctx.Done() != nil {
		p.runCtx, m.Cancel = ctx, p.cancelPoll
	}
}

// Core returns the measured core (core 0).
func (p *Platform) Core() *cpu.Core { return p.core }

// PrepareRun applies the paper's per-run protocol: flush caches and
// TLBs, reset the board, and install a fresh seed derived from runSeed
// for every randomized resource.
func (p *Platform) PrepareRun(runSeed uint64) {
	p.core.Reset()
	p.core.FlushAll()
	p.bus.Reset()
	p.dram.Reset()
	p.seedr.Seed(runSeed)
	p.il1.Reseed(p.seedr.Uint64())
	p.dl1.Reseed(p.seedr.Uint64())
	p.rsrc.Seed(p.seedr.Uint64())
}

// RunResult is the outcome of one measurement run.
type RunResult struct {
	Cycles       uint64
	Instructions uint64
	Path         string // workload path identifier ("" if single-path)
	// Outcome is empty for a clean measurement. A fault-injection layer
	// (see internal/faults) sets it to the run's classification
	// ("masked", "timing-perturbed", "wrong-output", "hung"); those
	// outcomes quarantine the run from the timing analysis —
	// CampaignResult.Times and TimesByPath skip it. Mitigated outcomes
	// ("corrected", "scrubbed", "voted") are the exception: the run was
	// recovered by a mitigation layer and stays in the analyzed series,
	// its recovery overhead included in Cycles.
	Outcome string
	// Faults counts the upsets that occurred in this run (0 for a clean
	// run), whether applied or absorbed by a mitigation.
	Faults int
}

// MitigatedOutcome reports whether o marks a run recovered by a
// fault-mitigation layer (ECC correction, array scrubbing, lockstep
// vote). Mitigated runs carry a non-empty outcome for reporting but
// stay in the measurement series — their overhead is the signal the
// timing analysis must see. The set matches the faults package's
// mitigated outcome constants (enforced by test there; platform sits
// below faults in the import graph, so the strings are spelled here).
func MitigatedOutcome(o string) bool {
	switch o {
	case "corrected", "scrubbed", "voted":
		return true
	}
	return false
}

// Quarantined reports whether the run must be excluded from the
// measurement series (a fault-injection layer classified it and no
// mitigation recovered it).
func (r RunResult) Quarantined() bool { return r.Outcome != "" && !MitigatedOutcome(r.Outcome) }

// Workload is a program under analysis. Prepare must return a fresh
// machine for run index run ("reload the executable": new memory image,
// per-run input vector). PathOf classifies the executed path after the
// run for per-path analysis; return "" for single-path programs.
//
// Workload values used with a Platform should be comparable (structs of
// scalars or pointers): the platform compares them to decide whether a
// cached machine or recorded trace belongs to the workload at hand.
type Workload interface {
	Name() string
	Prepare(run int) (*isa.Machine, error)
	PathOf(m *isa.Machine) string
}

// Reloader is an optional Workload extension: a workload that can
// re-initialize a previously prepared machine in place, with observable
// state identical to a fresh Prepare. The platform then reuses one
// machine across the campaign's runs, keeping the steady-state run loop
// allocation-free. Workloads whose Prepare is cheap or that cannot
// guarantee in-place equivalence simply do not implement it.
type Reloader interface {
	Reload(m *isa.Machine, run int) error
}

// Run performs one protocol-compliant measurement of w.
func (p *Platform) Run(w Workload, run int, runSeed uint64) (RunResult, error) {
	return p.RunCtx(context.Background(), w, run, runSeed)
}

// RunCtx is Run with cooperative cancellation: the guest machine polls
// ctx between instruction bursts and aborts promptly once it is
// canceled (e.g. by a per-run timeout). The poll does not interact with
// the timing model, so for a context that never fires the measured
// cycles are bit-identical to Run.
func (p *Platform) RunCtx(ctx context.Context, w Workload, run int, runSeed uint64) (RunResult, error) {
	var hit *recording
	var record bool
	if !p.replayOff {
		hit, record = p.slot.next(w, run, p.blind)
	}
	if hit != nil {
		return p.runReplay(ctx, w, run, runSeed, hit)
	}
	m, err := p.machine.get(w, run)
	if err != nil {
		return RunResult{}, fmt.Errorf("platform %s: prepare run %d: %w", p.cfg.Name, run, err)
	}
	p.PollContext(ctx, m)
	p.PrepareRun(runSeed)
	var cycles uint64
	if record {
		start := p.core.Cycle()
		err = p.slot.record(p.core, m)
		cycles = p.core.Cycle() - start
	} else {
		cycles, err = p.core.RunProgram(m)
	}
	p.PollContext(nil, m)
	if err != nil {
		return RunResult{}, fmt.Errorf("platform %s: run %d: %w", p.cfg.Name, run, err)
	}
	p.interpretRuns++
	if record {
		p.recordings++
	}
	return RunResult{
		Cycles:       cycles,
		Instructions: p.core.Stats().Instructions,
		Path:         w.PathOf(m),
	}, nil
}

// machineCache holds the last machine a Reloader workload prepared, so
// a board's later runs (or a co-runner's later iterations) of the same
// workload re-initialize it in place instead of preparing a fresh one.
type machineCache struct {
	w Workload
	m *isa.Machine
}

// get returns the machine for run: the cached machine reloaded in place
// when w is the Reloader workload that prepared it, else a fresh Prepare
// (cached when w is a Reloader).
func (c *machineCache) get(w Workload, run int) (*isa.Machine, error) {
	r, ok := w.(Reloader)
	if ok && c.m != nil && w == c.w {
		if err := r.Reload(c.m, run); err != nil {
			return nil, err
		}
		return c.m, nil
	}
	m, err := w.Prepare(run)
	if err != nil {
		return nil, err
	}
	if ok {
		c.w, c.m = w, m
	}
	return m, nil
}

// runReplay performs one measurement by replaying rec's block stream
// through the timing model: the per-run protocol (flush, reset,
// reseed) still applies, so placement/replacement/FPU randomness is
// exactly as in full execution, and the measured cycles are
// bit-identical. In paranoia mode every replayed run is cross-checked
// against a full execution with the same seed.
func (p *Platform) runReplay(ctx context.Context, w Workload, run int, runSeed uint64, rec *recording) (RunResult, error) {
	var before BoardStats
	if p.paranoid {
		before = p.BoardStats()
	}
	p.PrepareRun(runSeed)
	var canceled func() bool
	if ctx != nil && ctx.Done() != nil {
		p.runCtx, canceled = ctx, p.cancelPoll
	}
	ok := rec.trace.replay(p.core, canceled)
	p.runCtx = nil
	if !ok {
		return RunResult{}, fmt.Errorf("platform %s: replay run %d: %w",
			p.cfg.Name, run, isa.ErrCancelled)
	}
	res := RunResult{
		Cycles:       p.core.Cycle(),
		Instructions: p.core.Stats().Instructions,
		Path:         rec.path,
	}
	if p.paranoid {
		if err := p.crossCheck(ctx, w, run, runSeed, res, before); err != nil {
			return RunResult{}, err
		}
	}
	p.replayRuns++
	return res, nil
}

// crossCheck re-executes the run fully (fresh machine, same seed) and
// compares cycles, instruction count, path, the core's counters and
// the caches', TLBs' and FPU's counter deltas against the replay,
// whose deltas run from before.
func (p *Platform) crossCheck(ctx context.Context, w Workload, run int, runSeed uint64, got RunResult, before BoardStats) error {
	gotCore, after := p.core.Stats(), p.BoardStats()
	m, err := w.Prepare(run)
	if err != nil {
		return fmt.Errorf("platform %s: paranoia prepare run %d: %w", p.cfg.Name, run, err)
	}
	p.PollContext(ctx, m)
	p.PrepareRun(runSeed)
	cycles, err := p.core.RunProgram(m)
	p.PollContext(nil, m)
	if err != nil {
		return fmt.Errorf("platform %s: paranoia run %d: %w", p.cfg.Name, run, err)
	}
	want := RunResult{
		Cycles:       cycles,
		Instructions: p.core.Stats().Instructions,
		Path:         w.PathOf(m),
	}
	if got != want {
		return fmt.Errorf("platform %s: replay diverged from full execution on run %d: replay=%+v full=%+v",
			p.cfg.Name, run, got, want)
	}
	if gc, wc := gotCore, p.core.Stats(); gc != wc {
		return fmt.Errorf("platform %s: replay diverged from full execution on run %d: core replay=%+v full=%+v",
			p.cfg.Name, run, gc, wc)
	}
	if gs, ws := after.Sub(before), p.BoardStats().Sub(after); gs != ws {
		return fmt.Errorf("platform %s: replay diverged from full execution on run %d: counters replay=%+v full=%+v",
			p.cfg.Name, run, gs, ws)
	}
	return nil
}

// SetReplay enables or disables the decode-once trace-replay fast path
// (enabled by default). Disabling also drops the recorded traces.
func (p *Platform) SetReplay(on bool) {
	p.replayOff = !on
	if !on {
		p.slot = traceSlot{}
	}
}

// SetReplayParanoia toggles cross-checking of every replayed run
// against a full execution with the same seed (testing aid; doubles the
// cost of replayed runs).
func (p *Platform) SetReplayParanoia(on bool) { p.paranoid = on }
