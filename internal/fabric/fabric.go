// Package fabric is the distributed campaign fabric: a shared pool of
// executors (in-process workers and net-connected remote boards) that
// many measurement campaigns multiplex over concurrently, with fair
// lease scheduling, bounded backpressure and straggler re-leasing.
//
// Each campaign is a session of the one campaign engine
// (platform.Session), which carves the campaign's run-index space into
// batch-sized leases, merges completed runs first-write-wins and
// delivers batches to the sink strictly in run order — the same engine
// platform.StreamCampaign runs privately, so a fabric campaign is
// bit-identical to a local one with the same seed and budget: run i
// always executes under seed DeriveRunSeed(base, i), and where it
// executes can never change the result. The pool adds what is shared:
// admission, round-robin lease scheduling across sessions, the remote
// wire protocol (remote executors stream results back as
// write-ahead-log run-record frames; the internal/wal codec is the wire
// format) and the straggler sweep. A lease lost to a dead executor (or
// held by a straggler past the lease timeout) is simply re-queued under
// the same seeds, and duplicate completions merge idempotently.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/platform"
)

// ErrPoolClosed reports that the pool was closed while a campaign was
// waiting on it.
var ErrPoolClosed = errors.New("fabric: pool closed")

// Config tunes a Pool. The zero value selects sensible defaults.
type Config struct {
	// Executors is the number of in-process executor workers
	// (default GOMAXPROCS). Zero means the default; a negative value
	// makes the pool remote-only: sessions a remote executor can serve
	// progress only while remote executors are connected. Sessions
	// remote executors cannot serve (a run cache, a custom board such
	// as fault injection, a workload without a spec) still run on
	// GOMAXPROCS in-process executors reserved for them, so a
	// remote-only pool never strands a campaign.
	Executors int
	// MaxSessions bounds the campaigns admitted concurrently; further
	// StreamCampaign calls block (backpressure) until a slot frees
	// (default 256).
	MaxSessions int
	// SessionLeases bounds the outstanding leases per campaign — how
	// far ahead of its merge watermark a single campaign may run. The
	// bound keeps one huge campaign from monopolizing the executors
	// and bounds the coordinator's result buffering (default 4).
	SessionLeases int
	// LeaseTimeout re-queues a lease still incomplete after this long
	// on one executor (straggler re-lease). Seeds are preserved, so
	// the duplicate merges idempotently whichever copy finishes first.
	// Zero disables the sweep; leases are then re-queued only when an
	// executor demonstrably dies (error, panic, dropped connection).
	LeaseTimeout time.Duration
	// Registry resolves workload specs for remote executors (default
	// BuiltinRegistry). Sessions whose workload does not implement
	// SpecWorkload execute on in-process executors only.
	Registry *Registry
}

func (c Config) withDefaults() Config {
	if c.Executors == 0 {
		c.Executors = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.SessionLeases <= 0 {
		c.SessionLeases = 4
	}
	if c.Registry == nil {
		c.Registry = BuiltinRegistry()
	}
	return c
}

// Pool is the campaign fabric coordinator: it owns the in-process
// executors, accepts remote-executor connections (see ServeExecutors),
// and schedules leases across every active campaign fairly.
type Pool struct {
	cfg       Config
	executors int // in-process executor workers started

	mu       sync.Mutex
	cond     *sync.Cond // wakes executors waiting for a lease
	sessions []*session
	rr       int // round-robin cursor into sessions
	nextID   uint64
	admitted int
	closed   bool
	slotCh   chan struct{} // admission tickets (capacity MaxSessions)

	wg      sync.WaitGroup
	sweepCh chan struct{} // closes to stop the straggler sweeper
}

// NewPool starts a fabric coordinator with cfg.Executors in-process
// executor workers. Close releases them.
func NewPool(cfg Config) *Pool {
	p := &Pool{cfg: cfg.withDefaults(), sweepCh: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	p.slotCh = make(chan struct{}, p.cfg.MaxSessions)
	for i := 0; i < p.cfg.MaxSessions; i++ {
		p.slotCh <- struct{}{}
	}
	serves := anySession
	p.executors = p.cfg.Executors
	if p.executors < 0 {
		p.executors, serves = runtime.GOMAXPROCS(0), localSessions
	}
	for i := 0; i < p.executors; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.executorLoop(serves)
		}()
	}
	if p.cfg.LeaseTimeout > 0 {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.sweepStragglers()
		}()
	}
	return p
}

// Close stops the in-process executors and fails any campaign still
// waiting on the pool. It does not wait for remote-executor
// connections; close their listener to release those.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	sessions := append([]*session(nil), p.sessions...)
	p.mu.Unlock()
	close(p.sweepCh)
	for _, s := range sessions {
		s.Fail(ErrPoolClosed)
	}
	p.cond.Broadcast()
	p.wg.Wait()
}

// Stats is a point-in-time snapshot of the pool, for observability.
type Stats struct {
	Executors     int // in-process executor workers (remote-only: those reserved for local-only sessions)
	Sessions      int // campaigns currently executing
	QueuedLeases  int // leases awaiting an executor
	RunningLeases int // leases currently held by executors
	Admitted      int // admission slots in use
}

// Stats snapshots the pool.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		Executors: p.executors,
		Sessions:  len(p.sessions),
		Admitted:  p.admitted,
	}
	for _, s := range p.sessions {
		q, r := s.LeaseCounts()
		st.QueuedLeases += q
		st.RunningLeases += r
	}
	return st
}

// StreamCampaign executes a campaign on the fabric with
// platform.StreamCampaign's exact contract — it runs the same session
// engine (platform.Session): ordered batch delivery to sink, per-run
// journaling with a barrier per batch, early stop when the sink says
// so, Resume from a journal prefix, SupervisionPolicy on the in-process
// executors, and a measured series bit-identical to local execution.
// It blocks while the pool is at its MaxSessions admission bound. Leases
// cover whole batches and up to SessionLeases of them run ahead of
// delivery, so an early-stopped campaign may have executed runs past
// its last batch. NewBoard (fault injection, multicore boards) is
// honored by the in-process executors; such a session, like one with a
// run cache, is never handed to a remote executor, which would rebuild
// a plain board. Parallel is the pool's business and is ignored.
func (p *Pool) StreamCampaign(ctx context.Context, cfg platform.Config, w platform.Workload, opts platform.StreamOptions, sink platform.BatchSink) (*platform.CampaignResult, error) {
	// Admission: bounded concurrent sessions (backpressure).
	select {
	case <-p.slotCh:
	case <-ctx.Done():
		return nil, fmt.Errorf("%w before any run: %w", platform.ErrCanceled, ctx.Err())
	}
	defer func() { p.slotCh <- struct{}{} }()

	s, err := p.register(ctx, cfg, w, opts)
	if err != nil {
		return nil, err
	}
	defer p.unregister(s)
	return s.Run(sink)
}

// session is one campaign executing on the fabric: the engine's session
// plus what remote executors need to serve it.
type session struct {
	*platform.Session
	id   uint64
	spec *SessionSpec // non-nil when remote executors may serve it
}

// register opens a session and puts it in the dispatch rotation.
func (p *Pool) register(ctx context.Context, cfg platform.Config, w platform.Workload, opts platform.StreamOptions) (*session, error) {
	ps, err := platform.NewSession(ctx, cfg, w, opts, p.cfg.SessionLeases, p.cfg.LeaseTimeout, p.wake)
	if err != nil {
		return nil, err
	}
	s := &session{Session: ps}
	// A session with a run cache or a custom board must stay on the
	// in-process executors: remote executors cannot consult the cache
	// (they would re-simulate cached runs, bit-identically but defeating
	// the dedup guarantee) and build plain boards from the spec (they
	// would silently drop fault injection).
	if sw, ok := w.(SpecWorkload); ok && opts.Cached == nil && opts.NewBoard == nil {
		s.spec = &SessionSpec{
			Platform:   cfg,
			Workload:   sw.WorkloadSpec(),
			BaseSeed:   opts.BaseSeed,
			RunTimeout: opts.RunTimeout,
		}
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ps.Fail(ErrPoolClosed)
		return nil, ErrPoolClosed
	}
	p.nextID++
	s.id = p.nextID
	if s.spec != nil {
		s.spec.Session = s.id
	}
	p.sessions = append(p.sessions, s)
	p.admitted++
	p.cond.Broadcast()
	p.mu.Unlock()
	return s, nil
}

func (p *Pool) unregister(s *session) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, other := range p.sessions {
		if other == s {
			p.sessions = append(p.sessions[:i], p.sessions[i+1:]...)
			if p.rr > i {
				p.rr--
			}
			break
		}
	}
	p.admitted--
}

// sessionFilter restricts which sessions an executor takes leases from.
type sessionFilter int

const (
	anySession     sessionFilter = iota
	remoteSessions               // sessions a remote executor can serve (spec set)
	localSessions                // sessions only in-process executors can serve
)

// acquireLease blocks until a lease is available (round-robin over the
// active sessions, so concurrent campaigns share the executors fairly)
// or the pool closes. serves restricts the search by where a session
// may execute; idle, when set, runs before the executor starts waiting.
func (p *Pool) acquireLease(serves sessionFilter, stop <-chan struct{}, idle func()) (*session, *platform.Lease) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, nil
		}
		select {
		case <-stop:
			return nil, nil
		default:
		}
		n := len(p.sessions)
		for i := 0; i < n; i++ {
			idx := (p.rr + i) % n
			s := p.sessions[idx]
			if (serves == remoteSessions && s.spec == nil) || (serves == localSessions && s.spec != nil) {
				continue
			}
			if l := s.TakeLease(); l != nil {
				p.rr = (idx + 1) % n
				return s, l
			}
		}
		if idle != nil {
			idle()
		}
		p.cond.Wait()
	}
}

// wake nudges executors waiting in acquireLease (new session, freed
// lease slot, re-queued lease). Sessions call it without their own lock
// held, so taking the pool lock here cannot invert the pool → session
// lock order, and an executor between its search and its wait cannot
// miss the signal.
func (p *Pool) wake() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// executorLoop is one in-process executor: acquire a lease from the
// sessions it serves and run it. The executor keeps its board while
// consecutive leases come from the same session; it drops board and
// session when it has to wait for work, so an idle executor pins
// neither.
func (p *Pool) executorLoop(serves sessionFilter) {
	var ex platform.Executor
	idle := func() { ex = platform.Executor{} }
	for {
		_, l := p.acquireLease(serves, nil, idle)
		if l == nil {
			return
		}
		ex.Run(l)
	}
}

// sweepStragglers periodically re-queues leases held past the lease
// timeout. The original executor keeps running — if it finishes first
// its results merge as usual; the re-queued copy is idempotent.
func (p *Pool) sweepStragglers() {
	tick := time.NewTicker(p.cfg.LeaseTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-p.sweepCh:
			return
		case <-tick.C:
		}
		p.mu.Lock()
		sessions := append([]*session(nil), p.sessions...)
		p.mu.Unlock()
		for _, s := range sessions {
			s.RequeueStale(time.Now())
		}
	}
}
