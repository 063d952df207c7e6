package platform

// The reference board the inline multicore board is tested against. It
// shares the board's construction and per-run protocol (ensureBoard,
// prepareRun) but none of its execution: every core is driven through
// ConsumeBlock, never PlanBlock/Grant, each co-runner interprets every
// iteration of its workload in its own goroutine, and every bus request
// waits behind one locked conservative arbiter. The equivalence tests
// and FuzzMulticoreInlineReplay compare two arbiters and two timing
// paths through it, and the race detector checks its locking.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bus"
	"repro/internal/isa"
)

// refHeartbeat is the reference arbiter's lookahead granularity: a
// co-runner reports its local time at the end of the block in which its
// retired count crosses a multiple of refHeartbeat.
const refHeartbeat = 2048

// refBoard is the reference multicore board (see the file comment).
type refBoard struct {
	mc       *Multicore     // the cores, bus, DRAM and per-run protocol
	machines []machineCache // per core
	ports    []*refPort

	mu     sync.Mutex // guards states, the bus and the DRAM
	states []refState

	stop atomic.Bool // the measured core finished, or a core failed
	errs []error
	wg   sync.WaitGroup
}

// refState is the arbiter's view of one core.
type refState struct {
	alive   bool
	hasPend bool
	horizon uint64 // the core provably issues no request at or before this time
	pend    struct {
		time uint64
		kind bus.Kind
		addr uint64
	}
}

// refPort is one core's locked cpu.Interconnect. The granter writes the
// g* fields under the arbiter's lock and then sends a token on grant.
type refPort struct {
	rb       *refBoard
	core     int
	transfer uint64
	grant    chan struct{}

	gStart, gMemLat uint64
	retired         uint64 // instructions retired this run
}

// newRefBoard builds a reference board of cfg with the given co-runners.
func newRefBoard(tb testing.TB, cfg Config, coRunners []Workload) *refBoard {
	tb.Helper()
	mc, err := NewMulticore(cfg, coRunners)
	if err != nil {
		tb.Fatal(err)
	}
	if err := mc.ensureBoard(); err != nil {
		tb.Fatal(err)
	}
	n := len(mc.cores)
	rb := &refBoard{
		mc:       mc,
		machines: make([]machineCache, n),
		ports:    make([]*refPort, n),
		states:   make([]refState, n),
		errs:     make([]error, n),
	}
	for c, core := range mc.cores {
		p := &refPort{rb: rb, core: c, transfer: cfg.Bus.TransferCycles, grant: make(chan struct{}, 1)}
		rb.ports[c] = p
		core.Bus = p
	}
	return rb
}

// Request parks the request in the arbiter state and waits for its
// grant.
func (p *refPort) Request(t uint64, kind bus.Kind, addr uint64) (uint64, uint64) {
	rb := p.rb
	rb.mu.Lock()
	s := &rb.states[p.core]
	s.pend.time, s.pend.kind, s.pend.addr = t, kind, addr
	s.hasPend = true
	s.horizon = max(s.horizon, t)
	rb.grantPassLocked()
	rb.mu.Unlock()
	<-p.grant
	return p.gStart, p.gMemLat
}

func (p *refPort) TransferCycles() uint64 { return p.transfer }

// retire counts n more retired instructions and, when the count crosses
// a multiple of refHeartbeat, advances the core's horizon to its local
// time t. The cadence decides only how soon in wall time a grant is
// proven safe, never which request is granted first.
func (p *refPort) retire(n int, t uint64) {
	before := p.retired
	p.retired += uint64(n)
	if p.retired/refHeartbeat == before/refHeartbeat {
		return
	}
	rb := p.rb
	rb.mu.Lock()
	s := &rb.states[p.core]
	s.horizon = max(s.horizon, t)
	rb.grantPassLocked()
	rb.mu.Unlock()
}

// leave takes the core out of the arbitration for the rest of the run.
func (p *refPort) leave() {
	rb := p.rb
	rb.mu.Lock()
	rb.states[p.core].alive, rb.states[p.core].hasPend = false, false
	rb.grantPassLocked()
	rb.mu.Unlock()
}

// grantPassLocked grants the pending request with the smallest
// timestamp (ties to the lower core index) once every other live core
// is provably past it — it has a pending request of its own, or a
// horizon beyond it — and repeats until no grant is provably safe.
func (rb *refBoard) grantPassLocked() {
	for {
		best := -1
		for c := range rb.states {
			s := &rb.states[c]
			if s.hasPend && (best < 0 || s.pend.time < rb.states[best].pend.time) {
				best = c
			}
		}
		if best < 0 {
			return
		}
		t := rb.states[best].pend.time
		for c := range rb.states {
			s := &rb.states[c]
			if s.alive && !s.hasPend && s.horizon <= t {
				return // this core might still request at or before t
			}
		}
		s := &rb.states[best]
		s.hasPend, s.horizon = false, s.pend.time
		p := rb.ports[best]
		p.gStart = rb.mc.bus.Request(best, s.pend.time, s.pend.kind)
		p.gMemLat = rb.mc.dram.Latency(s.pend.addr)
		p.grant <- struct{}{}
	}
}

// refSink feeds a co-runner's core its machine's blocks and reports its
// progress to the arbiter.
type refSink struct{ p *refPort }

func (s refSink) FetchBytes() int { return s.p.rb.mc.cores[s.p.core].FetchBytes() }

func (s refSink) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	core := s.p.rb.mc.cores[s.p.core]
	core.ConsumeBlock(pc, classes, taken, ops)
	s.p.retire(len(classes), core.Cycle())
}

// run measures w on core 0 while every co-runner runs in its own
// goroutine until the measured core finishes.
func (rb *refBoard) run(w Workload, run int, seed uint64) (RunResult, error) {
	mc := rb.mc
	m, err := rb.machines[0].get(w, run)
	if err != nil {
		return RunResult{}, err
	}
	m.Cancel = nil
	mc.prepareRun(seed)
	rb.stop.Store(false)
	for c := range rb.states {
		rb.states[c] = refState{alive: true}
		rb.ports[c].retired = 0
		rb.errs[c] = nil
	}
	for c := 1; c < len(rb.states); c++ {
		rb.wg.Add(1)
		go rb.coRun(c)
	}
	cycles, err := mc.cores[0].RunProgram(m)
	rb.stop.Store(true)
	rb.ports[0].leave()
	rb.wg.Wait()
	rb.errs[0] = err
	if err := errors.Join(rb.errs...); err != nil {
		return RunResult{}, err
	}
	return RunResult{Cycles: cycles, Instructions: mc.cores[0].Stats().Instructions, Path: w.PathOf(m)}, nil
}

// coRun interprets co-runner c's workload, one iteration after another,
// until the measured core finishes.
func (rb *refBoard) coRun(c int) {
	defer rb.wg.Done()
	p := rb.ports[c]
	defer p.leave()
	for iter := 0; !rb.stop.Load(); iter++ {
		m, err := rb.machines[c].get(rb.mc.coRunners[c-1], iter)
		if err == nil {
			m.Cancel = rb.stop.Load
			_, err = m.RunBlocks(refSink{p})
		}
		if errors.Is(err, isa.ErrCancelled) {
			return
		}
		if err != nil {
			rb.errs[c] = err
			rb.stop.Store(true)
			return
		}
	}
}

// runBoth runs w on the board and on the reference and fails unless
// they measure the same.
func runBoth(tb testing.TB, mc *Multicore, ref *refBoard, w Workload, run int, seed uint64) RunResult {
	tb.Helper()
	got, err := mc.ExecuteRun(context.Background(), w, run, seed)
	if err != nil {
		tb.Fatalf("run %d: %v", run, err)
	}
	want, err := ref.run(w, run, seed)
	if err != nil {
		tb.Fatalf("run %d on the reference board: %v", run, err)
	}
	if got != want {
		tb.Fatalf("run %d: board measured %+v, reference board %+v", run, got, want)
	}
	return got
}
