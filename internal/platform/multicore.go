package platform

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/bus"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
)

// Multicore co-simulates real guest programs on all cores of the
// platform: the measured workload on core 0 and co-runner workloads on
// the remaining cores, all sharing the bus and DRAM. Every bus
// transaction is generated by actual co-runner execution (its own
// caches, TLBs and pipeline), so contention reflects the co-runners'
// real memory behaviour.
//
// A run executes in the caller's goroutine. The measured core runs its
// workload, and each of its bus requests first grants every co-runner
// request that issues before it (inlineRequest), in the (time, core
// index) order of a fixed-priority conservative arbiter. Co-runners are
// planned on demand (cpu.Plan) from a per-core block source (coState):
// a whole recorded iteration, which wraps; or the co-runner's own
// machine, run about 1,024 instructions at a time and paused between
// fills. Pausing is exact because a co-runner's instruction stream does
// not depend on timing: its memory, caches, TLBs and FPU are private,
// and no instruction reads the clock. A co-runner that declares the
// empty trace key (see TraceKeyer) has its first iteration recorded as
// it is produced, across runs when a run ends before the iteration
// does. Results are a pure function of the run and the co-runner list;
// a test-side reference board interprets every core in its own
// goroutine behind a locked arbiter and pins the same cycles.
//
// The board is reusable: the first run instantiates the bus, DRAM and
// per-core cache/TLB/FPU stacks once, and subsequent runs reset and
// reseed them in place (the same flush/reset/reseed protocol the
// single-core Platform applies), re-initialize Reloader workload
// machines in place, and replay recorded block streams (see
// TraceKeyer) instead of re-interpreting them — the steady-state run
// loop allocates nothing.
//
// Not safe for concurrent use: campaigns instantiate one board per
// worker (see StreamOptions.NewBoard).
type Multicore struct {
	cfg       Config
	coRunners []Workload

	// Reusable board, instantiated by the first run.
	built bool
	bus   *bus.Bus
	dram  *mem.Controller
	cores []*cpu.Core
	srcs  []*rng.Xoroshiro128 // per-core hardware randomness sources
	seedr *rng.SplitMix64     // derives per-core seeds from the run seed
	resm  *rng.SplitMix64     // derives per-resource placement seeds

	// Per-co-runner block sources and plans (index matches cores; entry
	// 0, the measured core, is unused).
	co []coState

	// Per-core failures of the run in flight, reset by prepareRun.
	errs []error

	// meas is core 0 and its run step, shared with Platform.
	meas measured
}

// NewMulticore validates the configuration and the co-runner list: at
// most Config.Cores-1 entries, none nil (cores beyond the list idle).
func NewMulticore(cfg Config, coRunners []Workload) (*Multicore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(coRunners) > cfg.Cores-1 {
		return nil, fmt.Errorf("platform %q: %d co-runners for %d cores", cfg.Name, len(coRunners), cfg.Cores)
	}
	for i, w := range coRunners {
		if w == nil {
			return nil, fmt.Errorf("platform %q: co-runner %d is nil (omit idle cores instead)", cfg.Name, i)
		}
	}
	return &Multicore{cfg: cfg, coRunners: coRunners}, nil
}

// coState is one co-runner core's block source and plan across runs.
type coState struct {
	w       Workload
	machine machineCache // reused machine (Reloader workloads)
	stable  bool         // the empty key: src records the first iteration

	// src is the block stream the plan reads: a stable co-runner's
	// recording — its whole first iteration once done, else the prefix
	// produced so far — or a keyless co-runner's last fill.
	src  blockTrace
	done bool // src holds the whole iteration: the plan wraps it

	// m is the machine producing src, paused between fills; nil between
	// iterations. iter counts the iterations started this run.
	m      *isa.Machine
	iter   int
	fetch  int         // src's fetch granule (see maxBlockBytes)
	filled bool        // m delivered a block since it was resumed
	pause  func() bool // m's Cancel: filled, or the run is canceled

	// Plan state: the next block to plan, the planned bus requests (see
	// cpu.Plan), and the issue time of the first one if queued, else the
	// cycle the plan has reached (cpu.NextRequest).
	cur    traceCursor
	plan   cpu.Plan
	next   uint64
	queued bool
}

// FetchBytes and ConsumeBlock make a co-runner the isa.BlockSink of its
// own machine: the blocks it produces go into src, unplanned.
func (cs *coState) FetchBytes() int { return cs.fetch }

func (cs *coState) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	cs.src.add(pc, classes, taken, ops)
	cs.filled = true
}

// restart rewinds the co-runner to the start of its program for a new
// run, whose plan starts empty. A stable co-runner replays its
// recording from the start, and when that is a prefix its paused
// machine resumes past it; a keyless one starts a fresh first
// iteration.
func (cs *coState) restart() {
	cs.cur, cs.next, cs.queued, cs.iter = traceCursor{}, 0, false, 0
	cs.plan.Reset()
	if !cs.stable {
		cs.m = nil
		cs.src.clear()
	}
}

// mcPort is the cores' cpu.Interconnect. Only the measured core
// requests through it — co-runners queue their requests in plans — so
// a request is the merge in front of core 0's (inlineRequest).
type mcPort struct {
	mc       *Multicore
	transfer uint64
}

// Request grants the measured core's request at time t.
func (p *mcPort) Request(t uint64, kind bus.Kind, addr uint64) (uint64, uint64) {
	return p.mc.inlineRequest(t, kind, addr)
}

// TransferCycles satisfies cpu.Interconnect.
func (p *mcPort) TransferCycles() uint64 { return p.transfer }

// ensureBoard instantiates the reusable board on the first run.
func (mc *Multicore) ensureBoard() error {
	if mc.built {
		return nil
	}
	n := 1 + len(mc.coRunners)
	var err error
	if mc.bus, err = bus.New(mc.cfg.Bus); err != nil {
		return err
	}
	if mc.dram, err = mem.New(mc.cfg.DRAM); err != nil {
		return err
	}
	mc.seedr = rng.NewSplitMix64(1)
	mc.resm = rng.NewSplitMix64(1)
	mc.cores = make([]*cpu.Core, n)
	mc.srcs = make([]*rng.Xoroshiro128, n)
	mc.errs = make([]error, n)
	mc.co = make([]coState, n)
	port := &mcPort{mc: mc, transfer: mc.cfg.Bus.TransferCycles}
	for c := 0; c < n; c++ {
		mc.srcs[c] = rng.NewXoroshiro128(1)
		if mc.cores[c], err = newCore(mc.cfg, c, mc.srcs[c], port); err != nil {
			return err
		}
	}
	mc.meas.init(mc.cfg, mc.cores[0])
	for i, w := range mc.coRunners {
		cs := &mc.co[i+1]
		cs.w, cs.stable = w, constantKey(w)
		cs.fetch = min(mc.cores[i+1].FetchBytes(), maxBlockBytes)
		cs.pause = func() bool { return cs.filled || mc.meas.canceled() }
	}
	mc.built = true
	return nil
}

// prepareRun applies the paper's per-run protocol to the reused board:
// reset the bus, DRAM and core clocks, flush every cache and TLB, and
// install fresh seeds for every randomized resource — the exact seed
// derivation a freshly constructed board would use, so a reused board
// is bit-identical to a fresh one.
func (mc *Multicore) prepareRun(runSeed uint64) {
	mc.bus.Reset()
	mc.dram.Reset()
	mc.seedr.Seed(runSeed)
	for c := range mc.cores {
		seed := mc.seedr.Uint64()
		mc.srcs[c].Seed(seed)
		// Per-run placement seeds (fresh layout roll per run, per core).
		mc.resm.Seed(seed ^ 0xA5A5A5A5)
		mc.cores[c].IL1.Reseed(mc.resm.Uint64())
		mc.cores[c].DL1.Reseed(mc.resm.Uint64())
		mc.cores[c].Reset()
		mc.cores[c].FlushAll()
		mc.errs[c] = nil
	}
	for c := 1; c < len(mc.co); c++ {
		mc.co[c].restart()
	}
}

// ExecuteRun implements Board: one protocol-compliant measurement of w
// on core 0 while the co-runners execute continuously on the other
// cores. The run seed derives independent seeds for every core's
// randomized resources. Results are a pure function of (w, run, seed)
// and the co-runner list. A co-runner failure fails the run, and the
// measured core's next cancel poll ends it; ctx is polled by every
// machine and replay of the run, and a core that it stops fails the run.
func (mc *Multicore) ExecuteRun(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return RunResult{}, err
		}
	}
	if err := mc.ensureBoard(); err != nil {
		return RunResult{}, err
	}
	mc.prepareRun(seed)
	// Core 0: the measured workload. Its bus requests drive the
	// co-runners (inlineRequest).
	res, err := mc.meas.exec(ctx, w, run)
	mc.errs[0] = err
	if err := mc.runError(); err != nil {
		return RunResult{}, err
	}
	mc.meas.tally(res.Path)
	return res, nil
}

// runError is the run's root-cause failure: the first core error, where
// a core that was merely cancelled by another core's failure (or by the
// run's context) is not a root cause unless every failure is one.
func (mc *Multicore) runError() error {
	var firstErr, cancelled error
	for c, err := range mc.errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("core %d: %w", c, err)
		if errors.Is(err, isa.ErrCancelled) {
			if cancelled == nil {
				cancelled = wrapped
			}
			continue
		}
		if firstErr == nil {
			firstErr = wrapped
		}
	}
	if firstErr == nil {
		return cancelled
	}
	return firstErr
}

// inlineRequest is the measured core's bus request at time t: a k-way
// merge of the co-runners' planned requests in front of it. Each pass
// plans every co-runner whose next request may issue before t up to t,
// then grants the earliest co-runner request issued strictly before t
// (ties to the lower core index). Once none is left the measured
// request is granted, winning ties at t as core 0. This is the (time,
// core index) grant order of a conservative arbiter that waits until no
// core can still request earlier.
func (mc *Multicore) inlineRequest(t uint64, kind bus.Kind, addr uint64) (uint64, uint64) {
	for {
		best, bt := 0, t
		for c := 1; c < len(mc.co); c++ {
			cs := &mc.co[c]
			if !cs.queued && cs.next < t {
				mc.plan(c, t)
			}
			if cs.queued && cs.next < bt {
				best, bt = c, cs.next
			}
		}
		if best == 0 {
			return mc.bus.Request(0, t, kind), mc.dram.Latency(addr)
		}
		cs, core := &mc.co[best], mc.cores[best]
		start := mc.bus.Request(best, bt, cs.plan.Kind())
		core.Grant(&cs.plan, start, mc.dram.Latency(cs.plan.Addr()))
		cs.next, cs.queued = core.NextRequest(&cs.plan)
	}
}

// plan plans co-runner core c one block at a time from its source,
// refilling the source whenever the plan has read all of it, and
// records when its next request issues. It stops after the block that
// queued a request, or once the core's clock plus the planned fixed
// cycles reaches bound. Every block costs at least one cycle, so a
// co-runner that no longer uses the bus still reaches the bound.
func (mc *Multicore) plan(c int, bound uint64) {
	cs := &mc.co[c]
	core := mc.cores[c]
	for !cs.queued && cs.next < bound {
		pc, classes, taken, ops, ok := cs.src.next(&cs.cur)
		if !ok {
			mc.produce(c)
			continue
		}
		core.PlanBlock(&cs.plan, pc, classes, taken, ops)
		cs.next, cs.queued = core.NextRequest(&cs.plan)
	}
}

// produce refills co-runner c's source once the plan has read all of
// it. A whole recorded iteration wraps. Otherwise the co-runner's
// machine — a new one for its next iteration when the last one halted —
// runs until its first cancel poll that finds blocks in the source,
// about 1,024 instructions on, or until it halts. A stable co-runner's
// blocks extend its recording, which is whole once the machine halts; a
// keyless co-runner refills its source from empty. Every refill adds at
// least one block, so planning always advances. A failure takes the
// co-runner out of the run (fail).
func (mc *Multicore) produce(c int) {
	cs := &mc.co[c]
	if cs.done {
		cs.cur = traceCursor{}
		return
	}
	if cs.m == nil {
		m, err := cs.machine.get(cs.w, cs.iter)
		if err != nil {
			mc.fail(c, err)
			return
		}
		m.Cancel = cs.pause
		cs.m, cs.iter = m, cs.iter+1
		cs.src.reset(m.Prog)
		cs.cur = traceCursor{}
	} else if !cs.stable {
		cs.src.clear()
		cs.cur = traceCursor{}
	}
	k, off := cs.src.mark()
	mc.meas.interpreted, cs.filled = true, false
	_, err := cs.m.RunBlocks(cs)
	switch {
	case err == nil:
		cs.m, cs.done = nil, cs.stable
	case !errors.Is(err, isa.ErrCancelled) || mc.meas.canceled():
		mc.fail(c, err)
		return
	}
	cs.src.seek(&cs.cur, k, off)
}

// fail records co-runner c's error and raises stop, so the measured
// core's cancel poll ends the run. The co-runner issues no more
// requests this run, and its next run starts its program afresh.
func (mc *Multicore) fail(c int, err error) {
	cs := &mc.co[c]
	mc.errs[c], mc.meas.stop = err, true
	cs.m, cs.next, cs.queued = nil, math.MaxUint64, false
	cs.src.clear()
}
