package platform

import (
	"errors"
	"fmt"
	"runtime"
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
// The simulation is a conservative discrete-event co-simulation. Each
// co-runner core runs in its own goroutine (the measured core runs in
// the caller's), and every bus transaction synchronizes through a
// shared arbiter state guarded by one mutex: a request parks until the
// arbiter can prove no other core will request at an earlier global
// timestamp (ties broken by core index, matching a fixed-priority
// arbiter's determinism), using periodic heartbeats from compute-bound
// cores as lookahead. Whichever goroutine delivers the event that
// makes a parked request provably safe grants it in the same critical
// section — there is no arbiter goroutine and no channel round-trip
// per transaction. Results are bit-reproducible regardless of
// goroutine scheduling and GOMAXPROCS.
//
// The board is reusable: the first Run instantiates the bus, DRAM and
// per-core cache/TLB/FPU stacks once, and subsequent runs reset and
// reseed them in place (the same flush/reset/reseed protocol the
// single-core Platform applies), re-initialize Reloader workload
// machines in place, and replay recorded co-runner event streams (see
// TraceKeyer) instead of re-interpreting them — the steady-state run
// loop allocates only a handful of objects per run.
//
// Not safe for concurrent use: campaigns instantiate one board per
// worker (see StreamOptions.NewBoard).
type Multicore struct {
	cfg       Config
	coRunners []Workload

	// Reusable board, instantiated by the first Run.
	built  bool
	winOK  bool // closed-page DRAM: self-grant windows are sound
	spin   bool // spin-wait for grants before blocking (GOMAXPROCS > 1)
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

	// Per-run outcome slots, reset by prepareRun.
	errs       []error
	iterations []int
	measured   RunResult

	// Measured-machine reuse: the last machine a Reloader workload
	// prepared, re-initialized in place on subsequent runs.
	lastW Workload
	lastM *isa.Machine

	// Decode-once trace replay for the measured core (see TraceKeyer
	// and the same slot on Platform): the block stream recorded on the
	// first keyed run, replayed through the timing model for later runs
	// with the same key. blind reports an operand-blind FPU.
	slot  traceSlot
	blind bool

	stop        atomic.Bool // measured run over, or a core failed
	interpreted atomic.Bool // a co-runner was interpreted this run
	cancelFn    func() bool // persistent closure for isa.Machine.Cancel

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

// MulticoreResult is the outcome of one co-simulated measurement run.
type MulticoreResult struct {
	Measured RunResult
	// CoRunnerIterations counts completed co-runner program executions
	// during the measured run (index matches the co-runner list).
	CoRunnerIterations []int
	// BusStats is the shared-bus activity over the whole run.
	BusStats bus.Stats
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
	w      Workload
	m      *isa.Machine // reused machine (Reloader workloads)
	stable bool         // workload declares the empty key: a run-invariant stream
	trace  []isa.Event  // recorded stream, replayed on later iterations
	sink   mcSink       // persistent consume sink (no per-iteration closure)

	// Inline-replay state: the next trace index to plan, the planned
	// bus requests (see cpu.Plan), and the issue time of the first one
	// if queued, else the cycle the plan has reached (cpu.NextRequest).
	i      int
	plan   cpu.Plan
	next   uint64
	queued bool
}

// heartbeatEvery is the lookahead granularity: compute-bound cores
// report their local time every this many retired instructions.
const heartbeatEvery = 2048

// grantSpinBudget is how long a core spin-waits for its grant before
// parking on the arbiter's condition variable. Grants normally arrive
// within a few hundred nanoseconds (one critical section away), so a
// short spin avoids two scheduler round-trips per transaction; the
// budget keeps a core from burning its P when the granting core is far
// away in simulated time.
const grantSpinBudget = 1536

// mcPort is the per-core cpu.Interconnect. Its identity (which core it
// requests for) is fixed at construction, satisfying the Interconnect
// contract's no-core-argument design: a port cannot misattribute a
// request.
type mcPort struct {
	mc       *Multicore
	core     int
	transfer uint64
	memLat   uint64 // closed-page DRAM latency, for self-granted requests

	// Grant slot: the granting goroutine writes the g* fields inside the
	// arbiter's critical section and then publishes them with a token on
	// grant (capacity 1, so the send never blocks and the channel never
	// holds more than one outstanding grant). A channel rather than a
	// condition variable: the woken core must not have to reacquire the
	// arbiter mutex — which the granter still holds — just to observe
	// its grant.
	grant                             chan struct{}
	gStart, gMemLat, gWinEnd, gFreeAt uint64

	// Open self-grant window (port-local, touched only by this core's
	// goroutine): while winEnd is non-zero this core may grant its own
	// requests with timestamps below winEnd against its private copy of
	// the bus timeline, deferring the stats to the next arbiter event.
	winEnd  uint64 // exclusive; 0 = no window
	wFreeAt uint64 // private bus timeline while the window is open
	rTx     uint64 // deferred transaction count
	rWait   uint64 // deferred queueing delay

	// hbCount persists across workload iterations: a co-runner whose
	// working set becomes fully cached stops requesting the bus, and
	// only its heartbeats keep the arbiter's lookahead advancing.
	hbCount uint64
}

// Request asks for the bus at time t. If the port holds a window that
// covers t it grants itself locally — zero synchronization — otherwise
// it parks the request in the arbiter state and waits for a grant.
func (p *mcPort) Request(t uint64, kind bus.Kind, addr uint64) (uint64, uint64) {
	if p.mc.inline {
		// Inline-replay run: the whole board executes in this goroutine
		// (p is always the measured core's port here — replayed
		// co-runners request through their plans, not a port), so the
		// arbiter is a plain function call.
		return p.mc.inlineRequest(t, kind, addr)
	}
	if p.winEnd != 0 && t < p.winEnd {
		// Self-grant: by the window's construction (see grantPassLocked)
		// every other core is provably past t, so this transaction is
		// next on the global timeline and its grant is a pure function
		// of the port's private freeAt.
		start := t
		if p.wFreeAt > start {
			start = p.wFreeAt
		}
		p.rTx++
		p.rWait += start - t
		p.wFreeAt = start + p.transfer
		return start, p.memLat
	}
	mc := p.mc
	mc.mu.Lock()
	p.closeWindowLocked()
	s := &mc.states[p.core]
	s.pend = pendReq{time: t, kind: kind, addr: addr}
	s.hasPend = true
	if t > s.horizon {
		s.horizon = t
	}
	mc.grantPassLocked()
	mc.mu.Unlock()

	if mc.spin {
		// Parallel hardware: busy-poll — the granting core is running on
		// another P and grants arrive within a critical section, so the
		// token is usually a few hundred nanoseconds away.
		for i := 0; i < grantSpinBudget && len(p.grant) == 0; i++ {
			if i&255 == 255 {
				runtime.Gosched()
			}
		}
	}
	<-p.grant
	if p.gWinEnd > t {
		p.winEnd, p.wFreeAt = p.gWinEnd, p.gFreeAt
	}
	return p.gStart, p.gMemLat
}

// TransferCycles satisfies cpu.Interconnect.
func (p *mcPort) TransferCycles() uint64 { return p.transfer }

// closeWindowLocked commits a window's deferred transactions to the
// shared bus and DRAM controller (mu held). Every arbiter event a port
// posts goes through here first, so the shared timeline is current
// before any other core can be granted.
func (p *mcPort) closeWindowLocked() {
	if p.winEnd == 0 {
		return
	}
	if p.rTx > 0 {
		p.mc.bus.Absorb(p.rTx, p.rWait, p.wFreeAt)
		p.mc.dram.Absorb(p.rTx)
		p.rTx, p.rWait = 0, 0
	}
	p.winEnd = 0
}

// heartbeat advances this core's lookahead horizon to local time t.
func (p *mcPort) heartbeat(t uint64) {
	mc := p.mc
	mc.mu.Lock()
	p.closeWindowLocked()
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
	p.closeWindowLocked()
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
//
// Each grant may delegate a window to the granted core: granting core
// c at time t sets its horizon to t, after which no other core can be
// granted before c's next arbiter event (any candidate at time t' >= t
// finds c's horizon <= t'). The arbiter is therefore serialized on c
// anyway, and everything below the other cores' lookahead bound is
// c's to grant itself — that bound is the window, and c's next event
// commits the batch via closeWindowLocked before the pass resumes.
// Windows require the grant to be a pure function of the bus timeline,
// so they are only delegated under the closed-page DRAM policy (fixed
// access latency, no row-buffer history).
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
		p.gWinEnd, p.gFreeAt = 0, 0
		if mc.winOK {
			winEnd := ^uint64(0) // all others done: unbounded window
			for o := range mc.states {
				os := &mc.states[o]
				if o == best || !os.alive {
					continue
				}
				b := os.horizon
				if os.hasPend {
					b = os.pend.time
				}
				if b < winEnd {
					winEnd = b
				}
			}
			if winEnd > req.time {
				p.gWinEnd = winEnd
				p.gFreeAt = mc.bus.FreeAt()
			}
		}
		p.grant <- struct{}{}
	}
}

// mcSink feeds one co-runner core's timing model one instruction at a
// time, optionally recording the event stream for replay, and emits
// lookahead heartbeats every heartbeatEvery retired instructions. It is
// a persistent struct (no per-iteration closure allocation).
type mcSink struct {
	core      *cpu.Core
	port      *mcPort
	m         *isa.Machine // the iteration's machine
	rec       eventTrace   // the iteration being recorded, if recording
	recording bool
}

// FetchBytes asks for one-instruction blocks: heartbeats and the
// recorded events are per instruction.
func (s *mcSink) FetchBytes() int { return 0 }

// ConsumeBlock implements isa.BlockSink.
func (s *mcSink) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	s.core.ConsumeBlock(pc, classes, taken, ops)
	if s.recording {
		s.rec.add(s.m.Event(pc, classes[0], taken, ops))
	}
	s.port.hbCount++
	if s.port.hbCount%heartbeatEvery == 0 {
		s.port.heartbeat(s.core.Cycle())
	}
}

// ensureBoard instantiates the reusable board on the first Run.
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
	mc.winOK = mc.cfg.DRAM.Policy == mem.PolicyClosedPage
	mc.blind = mc.cfg.FPUMode == fpu.ModeAnalysis
	mc.spin = runtime.GOMAXPROCS(0) > 1
	mc.seedr = rng.NewSplitMix64(1)
	mc.resm = rng.NewSplitMix64(1)
	mc.cores = make([]*cpu.Core, n)
	mc.ports = make([]*mcPort, n)
	mc.srcs = make([]*rng.Xoroshiro128, n)
	mc.states = make([]coreState, n)
	mc.errs = make([]error, n)
	mc.iterations = make([]int, n)
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
			memLat:   mc.cfg.DRAM.AccessCycles,
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
		cs.sink = mcSink{core: mc.cores[i+1], port: mc.ports[i+1]}
	}
	mc.cancelFn = mc.stop.Load
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
		p := mc.ports[c]
		p.hbCount, p.winEnd, p.wFreeAt, p.rTx, p.rWait = 0, 0, 0, 0, 0
		mc.errs[c] = nil
		mc.iterations[c] = 0
		// A run may end with a co-runner's plan mid-iteration.
		mc.co[c].i, mc.co[c].next, mc.co[c].queued = 0, 0, false
		mc.co[c].plan.Reset()
	}
	mc.stop.Store(false)
	mc.interpreted.Store(false)
	mc.measured = RunResult{}
}

// machineFor returns the measured machine for one run: a Reloader
// workload's cached machine re-initialized in place, or a fresh
// Prepare.
func (mc *Multicore) machineFor(w Workload, run int) (*isa.Machine, error) {
	if r, ok := w.(Reloader); ok && mc.lastM != nil && w == mc.lastW {
		if err := r.Reload(mc.lastM, run); err != nil {
			return nil, err
		}
		return mc.lastM, nil
	}
	m, err := w.Prepare(run)
	if err != nil {
		return nil, err
	}
	if _, ok := w.(Reloader); ok {
		mc.lastW, mc.lastM = w, m
	}
	return m, nil
}

// coMachine returns co-runner cs's machine for one iteration, reusing
// the previous iteration's machine in place for Reloader workloads.
func (mc *Multicore) coMachine(cs *coState, iter int) (*isa.Machine, error) {
	if r, ok := cs.w.(Reloader); ok && cs.m != nil {
		if err := r.Reload(cs.m, iter); err != nil {
			return nil, err
		}
		return cs.m, nil
	}
	m, err := cs.w.Prepare(iter)
	if err != nil {
		return nil, err
	}
	if _, ok := cs.w.(Reloader); ok {
		cs.m = m
	}
	return m, nil
}

// Run performs one protocol-compliant measurement of w on core 0 while
// the co-runners execute continuously on the other cores. The run seed
// derives independent seeds for every core's randomized resources.
// Results are a pure function of (w, run, runSeed) and the co-runner
// list; the first core failure cancels every other core.
func (mc *Multicore) Run(w Workload, run int, runSeed uint64) (MulticoreResult, error) {
	if err := mc.ensureBoard(); err != nil {
		return MulticoreResult{}, err
	}
	replay, record := mc.slot.next(w, run, mc.blind)
	var m *isa.Machine
	var err error
	if !replay {
		if m, err = mc.machineFor(w, run); err != nil {
			return MulticoreResult{}, fmt.Errorf("core 0: %w", err)
		}
		m.Cancel = mc.cancelFn
	}
	mc.prepareRun(runSeed)
	mc.inline = mc.inlineReady()

	var wg sync.WaitGroup
	if !mc.inline {
		for i := range mc.coRunners {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				mc.runCoRunner(c)
			}(i + 1)
		}
	}

	// Core 0: the measured workload, one protocol-compliant run in the
	// calling goroutine. stop must be raised on every exit path —
	// including failures — or the co-runners would loop forever; the
	// cancel hook lets a failing co-runner cancel the measurement in
	// return.
	var cycles uint64
	var runErr error
	var path string
	switch {
	case replay:
		cycles, runErr = mc.replayMeasured()
		path = mc.slot.path
	case record:
		mc.interpreted.Store(true)
		if runErr = mc.slot.record(mc.cores[0], m); runErr == nil {
			cycles, path = mc.cores[0].Cycle(), w.PathOf(m)
		}
	default:
		mc.interpreted.Store(true)
		cycles, runErr = mc.cores[0].RunProgram(m)
		if runErr == nil {
			path = w.PathOf(m)
		}
	}
	if !mc.inline {
		mc.stop.Store(true)
		mc.ports[0].doneNotice()
		wg.Wait()
	}

	if runErr != nil {
		mc.errs[0] = runErr
	} else {
		mc.measured = RunResult{
			Cycles:       cycles,
			Instructions: mc.cores[0].Stats().Instructions,
			Path:         path,
		}
	}
	// Surface the first real failure; a core that was merely cancelled
	// by another core's failure is not the root cause.
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
		firstErr = cancelled
	}
	if firstErr != nil {
		return MulticoreResult{}, firstErr
	}
	if !mc.interpreted.Load() {
		mc.replayRuns++
	} else {
		mc.interpretRuns++
	}
	return MulticoreResult{
		Measured:           mc.measured,
		CoRunnerIterations: append([]int(nil), mc.iterations[1:]...),
		BusStats:           mc.bus.Stats(),
	}, nil
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

// plan plans co-runner core c's replay up to bound, wrapping its trace
// at each iteration end, and records when its next request issues.
func (mc *Multicore) plan(c int, bound uint64) {
	cs := &mc.co[c]
	core := mc.cores[c]
	for !core.PlanUntil(&cs.plan, cs.trace, &cs.i, bound) && cs.i == len(cs.trace) {
		cs.i = 0
		mc.iterations[c]++
	}
	cs.next, cs.queued = core.NextRequest(&cs.plan)
}

// replayMeasured performs one measurement by replaying the recorded
// block stream through core 0's timing model. The per-run protocol
// (flush, reset, reseed) already ran, so placement/replacement
// randomness and bus contention are exactly as in full execution and
// the measured cycles are bit-identical. The stop poll matches the
// interpreter's Cancel granularity.
func (mc *Multicore) replayMeasured() (uint64, error) {
	core := mc.cores[0]
	if !mc.slot.trace.replay(core, mc.cancelFn) {
		return 0, isa.ErrCancelled
	}
	return core.Cycle(), nil
}

// runCoRunner loops core c's workload until the measured run ends:
// replaying the recorded event stream when one exists, interpreting
// (and, for run-invariant workloads, recording) otherwise. Its first
// failure cancels the whole run.
func (mc *Multicore) runCoRunner(c int) {
	defer mc.ports[c].doneNotice()
	cs := &mc.co[c]
	core := mc.cores[c]
	port := mc.ports[c]
	for iter := 0; !mc.stop.Load(); iter++ {
		if cs.trace != nil {
			if !mc.replayIteration(core, port, cs.trace) {
				return
			}
			mc.iterations[c]++
			continue
		}
		mc.interpreted.Store(true)
		m, err := mc.coMachine(cs, iter)
		if err != nil {
			mc.errs[c] = err
			mc.stop.Store(true)
			return
		}
		m.Cancel = mc.cancelFn
		sink := &cs.sink
		sink.m = m
		if cs.stable {
			// Decode-once: record this iteration's event stream; every
			// later iteration (and run) replays it through the timing
			// model, skipping architectural re-execution entirely.
			sink.rec, sink.recording = nil, true
		}
		_, err = m.RunBlocks(sink)
		if err != nil {
			// A partial trace must never be replayed.
			sink.rec, sink.recording = nil, false
			if errors.Is(err, isa.ErrCancelled) {
				return
			}
			mc.errs[c] = err
			mc.stop.Store(true)
			return
		}
		if cs.stable {
			cs.trace = sink.rec.flat()
			sink.rec, sink.recording = nil, false
		}
		mc.iterations[c]++
	}
}

// replayIteration replays one recorded co-runner iteration through the
// timing model, with the same heartbeat cadence as full execution and
// the same cancellation granularity as the interpreter's Cancel poll.
// It reports false when the run was stopped mid-iteration.
func (mc *Multicore) replayIteration(core *cpu.Core, port *mcPort, trace []isa.Event) bool {
	for i := range trace {
		if i&1023 == 0 && mc.stop.Load() {
			return false
		}
		core.Consume(trace[i])
		port.hbCount++
		if port.hbCount%heartbeatEvery == 0 {
			port.heartbeat(core.Cycle())
		}
	}
	return true
}
