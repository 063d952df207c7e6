package platform

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/tlb"
)

// Multicore co-simulates real guest programs on all cores of the
// platform: the measured workload on core 0 and co-runner workloads on
// the remaining cores, all sharing the bus and DRAM. Unlike the
// synthetic InterferenceConfig traffic model, every bus transaction
// here is generated by actual co-runner execution (its own caches,
// TLBs and pipeline), so contention reflects the co-runners' real
// memory behaviour.
//
// The simulation is a conservative discrete-event co-simulation. In
// goroutine mode — a board's recording run, and every run with a
// co-runner that declares no trace key — each co-runner core runs in
// its own goroutine (the measured core runs in the caller's), and
// every bus transaction synchronizes through a
// shared arbiter state guarded by one mutex: a request parks until the
// arbiter can prove no other core will request at an earlier global
// timestamp (ties broken by core index, matching a fixed-priority
// arbiter's determinism), using periodic heartbeats from compute-bound
// cores as lookahead. Whichever goroutine delivers the event that
// makes a parked request provably safe grants it in the same critical
// section — there is no arbiter goroutine and no channel round-trip
// per transaction. Results are bit-reproducible regardless of
// goroutine scheduling and GOMAXPROCS. Once every co-runner has a
// recorded stream, runs execute inline in the caller's goroutine
// instead (see inlineReady), granting in the same order.
//
// The board is reusable: the first run instantiates the bus, DRAM and
// per-core cache/TLB/FPU stacks once, and subsequent runs reset and
// reseed them in place (the same flush/reset/reseed protocol the
// single-core Platform applies), re-initialize Reloader workload
// machines in place, and replay recorded co-runner block streams (see
// TraceKeyer) instead of re-interpreting them — the steady-state run
// loop allocates nothing.
//
// Not safe for concurrent use: campaigns instantiate one board per
// worker (see StreamOptions.NewBoard).
type Multicore struct {
	cfg       Config
	coRunners []Workload

	// Reusable board, instantiated by the first run.
	built  bool
	inline bool // this run replays every co-runner inline (no goroutines)
	bus    *bus.Bus
	dram   *mem.Controller
	cores  []*cpu.Core
	ports  []*mcPort
	srcs   []*rng.Xoroshiro128 // per-core hardware randomness sources
	seedr  *rng.SplitMix64     // derives per-core seeds from the run seed
	resm   *rng.SplitMix64     // derives per-resource placement seeds

	// Arbiter state: one entry per core, guarded by mu.
	mu     sync.Mutex
	states []coreState

	// Per-core-runner execution state (index matches cores; entry 0,
	// the measured core, is unused).
	co []coState
	wg sync.WaitGroup // a goroutine-mode run's co-runner goroutines

	// Per-core failures of the run in flight, reset by prepareRun.
	errs []error

	// Measured-machine reuse (Reloader workloads).
	machine machineCache

	// Decode-once trace replay for the measured core (see TraceKeyer
	// and the same slot on Platform): the block stream recorded on the
	// first keyed run, replayed through the timing model for later runs
	// with the same key. blind reports an operand-blind FPU.
	slot  traceSlot
	blind bool

	stop        atomic.Bool // measured run over, or a core failed
	interpreted atomic.Bool // a co-runner was interpreted this run

	// runCtx is the context of the run in flight (nil when it can never
	// fire), polled through cancelFn — the canceled method value, bound
	// once per board, so a cancelable run allocates no closure. Every
	// machine and replay of a run polls it.
	runCtx   context.Context
	cancelFn func() bool

	// Cumulative run-kind tallies for the telemetry harvest (see
	// BoardStats).
	replayRuns    uint64
	interpretRuns uint64
}

// NewMulticore validates the configuration and the co-runner list: at
// most Config.Cores-1 entries, none nil (cores beyond the list idle).
func NewMulticore(cfg Config, coRunners []Workload) (*Multicore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Interference != nil {
		return nil, fmt.Errorf("platform %q: synthetic interference and co-simulated co-runners are mutually exclusive", cfg.Name)
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

// pendReq is a parked bus request, inlined into coreState so posting a
// request allocates nothing.
type pendReq struct {
	time uint64
	kind bus.Kind
	addr uint64
}

// coreState is the arbiter's view of one core (guarded by Multicore.mu).
type coreState struct {
	alive   bool
	hasPend bool
	horizon uint64 // the core provably issues no request at or before this time
	pend    pendReq
}

// coState is one co-runner core's execution state across runs.
type coState struct {
	w       Workload
	machine machineCache // reused machine (Reloader workloads)
	stable  bool         // workload declares the empty key: a run-invariant stream
	trace   *blockTrace  // recorded iteration, replayed on later iterations
	sink    coreSink     // persistent sink (no per-iteration allocation)

	// Inline-replay state: the next block to plan, the planned bus
	// requests (see cpu.Plan), and the issue time of the first one if
	// queued, else the cycle the plan has reached (cpu.NextRequest).
	cur    traceCursor
	plan   cpu.Plan
	next   uint64
	queued bool
}

// heartbeatEvery is the lookahead granularity: a co-runner reports its
// local time at the end of the block in which its retired count
// crosses a multiple of heartbeatEvery.
const heartbeatEvery = 2048

// mcPort is the per-core cpu.Interconnect. Its identity (which core it
// requests for) is fixed at construction, satisfying the Interconnect
// contract's no-core-argument design: a port cannot misattribute a
// request.
type mcPort struct {
	mc       *Multicore
	core     int
	transfer uint64

	// Grant slot: the granting goroutine writes the g* fields inside the
	// arbiter's critical section and then publishes them with a token on
	// grant (capacity 1, so the send never blocks and the channel never
	// holds more than one outstanding grant). A channel rather than a
	// condition variable: the woken core must not have to reacquire the
	// arbiter mutex — which the granter still holds — just to observe
	// its grant.
	grant           chan struct{}
	gStart, gMemLat uint64

	// hbCount persists across workload iterations: a co-runner whose
	// working set becomes fully cached stops requesting the bus, and
	// only its heartbeats keep the arbiter's lookahead advancing.
	hbCount uint64
}

// Request asks for the bus at time t: it parks the request in the
// arbiter state and waits for a grant.
func (p *mcPort) Request(t uint64, kind bus.Kind, addr uint64) (uint64, uint64) {
	if p.mc.inline {
		// Inline-replay run: the whole board executes in this goroutine
		// (p is always the measured core's port here — replayed
		// co-runners request through their plans, not a port), so the
		// arbiter is a plain function call.
		return p.mc.inlineRequest(t, kind, addr)
	}
	mc := p.mc
	mc.mu.Lock()
	s := &mc.states[p.core]
	s.pend = pendReq{time: t, kind: kind, addr: addr}
	s.hasPend = true
	if t > s.horizon {
		s.horizon = t
	}
	mc.grantPassLocked()
	mc.mu.Unlock()
	<-p.grant
	return p.gStart, p.gMemLat
}

// TransferCycles satisfies cpu.Interconnect.
func (p *mcPort) TransferCycles() uint64 { return p.transfer }

// retire counts n more retired instructions and, when the count
// crosses a multiple of heartbeatEvery, advances the core's lookahead
// horizon to its local time t. Grant order does not depend on the
// cadence: a heartbeat only lets a grant happen sooner in wall time.
func (p *mcPort) retire(n int, t uint64) {
	before := p.hbCount
	p.hbCount += uint64(n)
	if p.hbCount/heartbeatEvery != before/heartbeatEvery {
		p.heartbeat(t)
	}
}

// heartbeat advances this core's lookahead horizon to local time t.
func (p *mcPort) heartbeat(t uint64) {
	mc := p.mc
	mc.mu.Lock()
	s := &mc.states[p.core]
	if t > s.horizon {
		s.horizon = t
	}
	mc.grantPassLocked()
	mc.mu.Unlock()
}

// doneNotice marks this core finished for the run; the arbiter stops
// waiting on it.
func (p *mcPort) doneNotice() {
	mc := p.mc
	mc.mu.Lock()
	s := &mc.states[p.core]
	s.alive = false
	s.hasPend = false
	mc.grantPassLocked()
	mc.mu.Unlock()
}

// grantPassLocked is the conservative arbiter (mu held): it grants the
// pending request with the smallest timestamp once every other live
// core is provably past that time (has a pending request of its own,
// has reported a later heartbeat, or has finished), and keeps granting
// in one pass until the lookahead no longer proves a grant safe. It
// runs in whichever goroutine delivered the enabling event.
func (mc *Multicore) grantPassLocked() {
	for {
		best := -1
		for c := range mc.states {
			s := &mc.states[c]
			if s.hasPend && (best < 0 || s.pend.time < mc.states[best].pend.time) {
				best = c
			}
		}
		if best < 0 {
			return
		}
		t := mc.states[best].pend.time
		for c := range mc.states {
			s := &mc.states[c]
			if !s.alive || s.hasPend {
				continue
			}
			if s.horizon <= t {
				return // this core might still request at or before t
			}
		}
		s := &mc.states[best]
		req := s.pend
		s.hasPend = false
		s.horizon = req.time
		p := mc.ports[best]
		p.gStart = mc.bus.Request(best, req.time, req.kind)
		p.gMemLat = mc.dram.Latency(req.addr)
		p.grant <- struct{}{}
	}
}

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
	mc.blind = mc.cfg.FPUMode == fpu.ModeAnalysis
	mc.seedr = rng.NewSplitMix64(1)
	mc.resm = rng.NewSplitMix64(1)
	mc.cores = make([]*cpu.Core, n)
	mc.ports = make([]*mcPort, n)
	mc.srcs = make([]*rng.Xoroshiro128, n)
	mc.states = make([]coreState, n)
	mc.errs = make([]error, n)
	mc.co = make([]coState, n)
	for c := 0; c < n; c++ {
		src := rng.NewXoroshiro128(1)
		il1, err := cache.New(mc.cfg.IL1, src)
		if err != nil {
			return err
		}
		dl1, err := cache.New(mc.cfg.DL1, src)
		if err != nil {
			return err
		}
		itlb, err := tlb.New(mc.cfg.ITLB, src)
		if err != nil {
			return err
		}
		dtlb, err := tlb.New(mc.cfg.DTLB, src)
		if err != nil {
			return err
		}
		f, err := fpu.New(mc.cfg.FPULat, mc.cfg.FPUMode)
		if err != nil {
			return err
		}
		port := &mcPort{
			mc:       mc,
			core:     c,
			transfer: mc.cfg.Bus.TransferCycles,
			grant:    make(chan struct{}, 1),
		}
		core, err := cpu.NewCore(c, mc.cfg.CoreParams, il1, dl1, itlb, dtlb, f, port)
		if err != nil {
			return err
		}
		mc.srcs[c] = src
		mc.cores[c] = core
		mc.ports[c] = port
	}
	for i, w := range mc.coRunners {
		cs := &mc.co[i+1]
		cs.w = w
		cs.stable = constantKey(w)
		cs.sink = coreSink{core: mc.cores[i+1], port: mc.ports[i+1]}
	}
	mc.cancelFn = mc.canceled
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
		mc.states[c] = coreState{alive: true}
		mc.ports[c].hbCount = 0
		mc.errs[c] = nil
		// A run may end with a co-runner's plan mid-iteration.
		mc.co[c].cur, mc.co[c].next, mc.co[c].queued = traceCursor{}, 0, false
		mc.co[c].plan.Reset()
	}
	mc.stop.Store(false)
	mc.interpreted.Store(false)
}

// canceled is the run's cancellation poll: the run is over (the
// measured core finished or a core failed) or its context is done.
func (mc *Multicore) canceled() bool {
	return mc.stop.Load() || mc.runCtx != nil && mc.runCtx.Err() != nil
}

// ExecuteRun implements Board: one protocol-compliant measurement of w
// on core 0 while the co-runners execute continuously on the other
// cores. The run seed derives independent seeds for every core's
// randomized resources. Results are a pure function of (w, run, seed)
// and the co-runner list. The first core failure cancels every other
// core, and so does ctx: every core polls it, so a canceled run stops
// within a poll interval, and a core that ctx stops before the measured
// core finishes fails the run.
func (mc *Multicore) ExecuteRun(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return RunResult{}, err
		}
	}
	if err := mc.ensureBoard(); err != nil {
		return RunResult{}, err
	}
	replay, record := mc.slot.next(w, run, mc.blind)
	var m *isa.Machine
	if !replay {
		var err error
		if m, err = mc.machine.get(w, run); err != nil {
			return RunResult{}, fmt.Errorf("core 0: %w", err)
		}
		m.Cancel = mc.cancelFn
	}
	mc.prepareRun(seed)
	if ctx != nil && ctx.Done() != nil {
		mc.runCtx = ctx
	}
	mc.inline = mc.inlineReady()
	if !mc.inline {
		for c := 1; c < len(mc.co); c++ {
			mc.wg.Add(1)
			go mc.runCoRunner(c)
		}
	}

	// Core 0: the measured workload, one protocol-compliant run in the
	// calling goroutine. stop must be raised on every exit path —
	// including failures — or the co-runners would loop forever; the
	// cancel poll lets a failing co-runner cancel the measurement in
	// return.
	var res RunResult
	var err error
	switch {
	case replay:
		res.Cycles, err = mc.replayMeasured()
		res.Path = mc.slot.path
	case record:
		mc.interpreted.Store(true)
		if err = mc.slot.record(mc.cores[0], m); err == nil {
			res.Cycles, res.Path = mc.cores[0].Cycle(), w.PathOf(m)
		}
	default:
		mc.interpreted.Store(true)
		if res.Cycles, err = mc.cores[0].RunProgram(m); err == nil {
			res.Path = w.PathOf(m)
		}
	}
	if !mc.inline {
		mc.stop.Store(true)
		mc.ports[0].doneNotice()
		mc.wg.Wait()
	}
	mc.runCtx = nil
	mc.errs[0] = err
	if err := mc.runError(); err != nil {
		return RunResult{}, err
	}
	if !mc.interpreted.Load() {
		mc.replayRuns++
	} else {
		mc.interpretRuns++
	}
	res.Instructions = mc.cores[0].Stats().Instructions
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

// inlineReady reports whether every co-runner has a recorded trace, so
// the whole run can execute in the caller's goroutine: replayed
// co-runners are planned (cpu.Plan) and granted on demand by the
// measured core's bus requests (inlineRequest), with no goroutines,
// locks or channel handoffs at all. This is where the
// board earns its steady-state throughput — after the first run of a
// campaign with run-invariant co-runners, every run takes this path.
func (mc *Multicore) inlineReady() bool {
	for i := range mc.coRunners {
		if mc.co[i+1].trace == nil {
			return false
		}
	}
	return true
}

// inlineRequest is the measured core's bus request at time t in an
// inline-replay run: a k-way merge of the co-runners' planned requests
// in front of it. Each pass plans every co-runner whose next request
// may issue before t up to t, then grants the earliest co-runner
// request issued strictly before t (ties to the lower core index).
// Once none is left the measured request is granted, winning ties at t
// as core 0. This is the (time, core index) grant order the
// goroutine-mode arbiter proves out, so results are bit-identical.
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

// plan plans co-runner core c's replay one recorded block at a time,
// wrapping its trace at each iteration end, and records when its next
// request issues. It stops after the block that queued a request, or
// once the core's clock plus the planned fixed cycles reaches bound.
// Every block costs at least one cycle, so a co-runner that no longer
// uses the bus still reaches the bound.
func (mc *Multicore) plan(c int, bound uint64) {
	cs := &mc.co[c]
	core := mc.cores[c]
	for !cs.queued && cs.next < bound {
		pc, classes, taken, ops, ok := cs.trace.next(&cs.cur)
		if !ok {
			cs.cur = traceCursor{}
			continue
		}
		core.PlanBlock(&cs.plan, pc, classes, taken, ops)
		cs.next, cs.queued = core.NextRequest(&cs.plan)
	}
}

// replayMeasured performs one measurement by replaying the recorded
// block stream through core 0's timing model. The per-run protocol
// (flush, reset, reseed) already ran, so placement/replacement
// randomness and bus contention are exactly as in full execution and
// the measured cycles are bit-identical. The stop poll matches the
// interpreter's Cancel granularity.
func (mc *Multicore) replayMeasured() (uint64, error) {
	core := mc.cores[0]
	if !mc.slot.trace.replay(core, nil, mc.cancelFn) {
		return 0, isa.ErrCancelled
	}
	return core.Cycle(), nil
}

// runCoRunner loops core c's workload until the measured run ends. Its
// first failure cancels the whole run.
func (mc *Multicore) runCoRunner(c int) {
	defer mc.wg.Done()
	defer mc.ports[c].doneNotice()
	cs := &mc.co[c]
	for iter := 0; !mc.stop.Load(); iter++ {
		err := mc.coIteration(cs, iter)
		if err == nil {
			continue
		}
		if errors.Is(err, isa.ErrCancelled) && mc.stop.Load() {
			return
		}
		// Anything else fails the run, a cancellation too: only the run's
		// context can cancel a co-runner before stop, and a measured core
		// that finished past its last poll would otherwise run on against
		// fewer co-runners.
		mc.errs[c] = err
		mc.stop.Store(true)
		return
	}
}

// coIteration runs one iteration of co-runner cs: it replays the
// recorded trace when one exists, and otherwise interprets the
// workload, recording the iteration of a run-invariant one so that
// every later iteration (and run) replays it. Replay and interpretation
// poll the run's cancellation at the same granularity.
func (mc *Multicore) coIteration(cs *coState, iter int) error {
	if cs.trace != nil {
		if !cs.trace.replay(cs.sink.core, cs.sink.port, mc.cancelFn) {
			return isa.ErrCancelled
		}
		return nil
	}
	mc.interpreted.Store(true)
	m, err := cs.machine.get(cs.w, iter)
	if err != nil {
		return err
	}
	m.Cancel = mc.cancelFn
	if cs.stable {
		cs.sink.trace = newBlockTrace(m.Prog)
	}
	_, err = m.RunBlocks(&cs.sink)
	rec := cs.sink.trace
	cs.sink.trace = nil
	if err != nil {
		return err // a partial trace must never be replayed
	}
	if rec != nil {
		cs.trace = rec
	}
	return nil
}
