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
	bus   *bus.Bus
	dram  *mem.Controller
	rsrc  *rng.Xoroshiro128 // hardware randomness (replacement policies)
	seedr *rng.SplitMix64   // derives per-resource seeds from the run seed
	meas  measured          // core 0 and its run step
}

// New instantiates a platform from cfg.
func New(cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{cfg: cfg}
	p.rsrc = rng.NewXoroshiro128(1)
	p.seedr = rng.NewSplitMix64(1)
	var err error
	if p.bus, err = bus.New(cfg.Bus); err != nil {
		return nil, err
	}
	if p.dram, err = mem.New(cfg.DRAM); err != nil {
		return nil, err
	}
	core, err := newCore(cfg, 0, p.rsrc, cpu.BusMem{Bus: p.bus, Mem: p.dram})
	if err != nil {
		return nil, err
	}
	p.meas.init(cfg, core)
	return p, nil
}

// Config returns the platform configuration.
func (p *Platform) Config() Config { return p.cfg }

// PollContext arms m to poll ctx for cancellation through the board's
// persistent poll, so a cancelable run allocates no closure; a ctx that
// can never fire, nil included, disarms m. Disarm m with a nil ctx once
// its run is over.
func (p *Platform) PollContext(ctx context.Context, m *isa.Machine) {
	p.meas.runCtx, m.Cancel = nil, nil
	if ctx != nil && ctx.Done() != nil {
		p.meas.runCtx, m.Cancel = ctx, p.meas.cancelFn
	}
}

// Core returns the measured core (core 0).
func (p *Platform) Core() *cpu.Core { return p.meas.core }

// PrepareRun applies the paper's per-run protocol: flush caches and
// TLBs, reset the board, and install a fresh seed derived from runSeed
// for every randomized resource.
func (p *Platform) PrepareRun(runSeed uint64) {
	c := p.meas.core
	c.Reset()
	c.FlushAll()
	p.bus.Reset()
	p.dram.Reset()
	p.seedr.Seed(runSeed)
	c.IL1.Reseed(p.seedr.Uint64())
	c.DL1.Reseed(p.seedr.Uint64())
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

// ExecuteRun implements Board: one protocol-compliant measurement of
// w. The guest machine, or the replay, polls ctx between instruction
// bursts and aborts promptly once it is canceled (e.g. by a per-run
// timeout); for a context that never fires the measured cycles are
// those of an uncancelable run.
func (p *Platform) ExecuteRun(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error) {
	p.PrepareRun(seed)
	res, err := p.meas.exec(ctx, w, run)
	if err != nil {
		return RunResult{}, fmt.Errorf("platform %s: run %d: %w", p.cfg.Name, run, err)
	}
	p.meas.tally()
	return res, nil
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

// SetReplay enables or disables the decode-once trace-replay fast path
// (enabled by default). Disabling also drops the recorded traces.
func (p *Platform) SetReplay(on bool) {
	p.meas.replayOff = !on
	if !on {
		p.meas.slot = traceSlot{}
	}
}
