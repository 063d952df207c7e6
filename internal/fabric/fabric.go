// Package fabric is the distributed campaign fabric: a shared pool of
// executors (in-process workers and net-connected remote boards) that
// many measurement campaigns multiplex over concurrently, with fair
// lease scheduling, bounded backpressure and straggler re-leasing.
//
// The coordinator partitions each campaign's run-index space into
// leases (one batch of runs per lease). Executors acquire leases
// round-robin across the active sessions — so a hundred concurrent
// campaigns each make progress instead of queuing behind the first —
// execute the runs, and report results back; remote executors stream
// them as write-ahead-log run-record frames (the internal/wal codec is
// the wire format). The merge path delivers completed batches to the
// campaign's sink strictly in run order, so a fabric campaign is
// bit-identical to a single-process platform.StreamCampaign with the
// same seed and budget: run i always executes under seed
// DeriveRunSeed(base, i), and where it executes can never change the
// result. That purity also powers the resilience story: a lease lost
// to a dead executor (or held by a straggler past the lease timeout)
// is simply re-queued under the same seeds, and duplicate completions
// merge idempotently.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/platform"
	"repro/internal/telemetry"
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
		s.fail(ErrPoolClosed)
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
		q, r := s.leaseCounts()
		st.QueuedLeases += q
		st.RunningLeases += r
	}
	return st
}

// StreamCampaign executes a campaign on the fabric with
// platform.StreamCampaign's exact contract: ordered batch delivery to
// sink, per-run journaling with a barrier per batch, early stop when
// the sink says so, and a measured series bit-identical to local
// execution. It blocks while the pool is at its MaxSessions admission
// bound. NewBoard (fault injection, multicore boards) is honored by the
// in-process executors; such a session, like one with a run cache, is
// never handed to a remote executor, which would rebuild a plain board.
// StreamOptions fields that configure a local worker pool (Parallel,
// Supervise, Resume, Replay) are not meaningful on the fabric: Resume
// is rejected, the others ignored.
func (p *Pool) StreamCampaign(ctx context.Context, cfg platform.Config, w platform.Workload, opts platform.StreamOptions, sink platform.BatchSink) (*platform.CampaignResult, error) {
	if opts.MaxRuns < 1 {
		return nil, fmt.Errorf("fabric: campaign needs >= 1 run, got %d", opts.MaxRuns)
	}
	if opts.Resume != nil {
		return nil, errors.New("fabric: journal resume is not supported on the fabric; resume locally")
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 250
	}
	if batch > opts.MaxRuns {
		batch = opts.MaxRuns
	}

	// Admission: bounded concurrent sessions (backpressure).
	select {
	case <-p.slotCh:
	case <-ctx.Done():
		return nil, fmt.Errorf("%w before any run: %w", platform.ErrCanceled, ctx.Err())
	}
	defer func() { p.slotCh <- struct{}{} }()

	s, err := p.register(ctx, cfg, w, opts, batch)
	if err != nil {
		return nil, err
	}
	defer p.unregister(s)

	return s.merge(ctx, sink)
}

// register builds a session and puts it in the dispatch rotation.
func (p *Pool) register(ctx context.Context, cfg platform.Config, w platform.Workload, opts platform.StreamOptions, batch int) (*session, error) {
	newBoard := opts.NewBoard
	if newBoard == nil {
		newBoard = func() (platform.Board, error) { return platform.New(cfg) }
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &session{
		pool:     p,
		cfg:      cfg,
		w:        w,
		opts:     opts,
		batch:    batch,
		newBoard: newBoard,
		ctx:      sctx,
		cancel:   cancel,
		results:  make([]platform.RunResult, opts.MaxRuns),
		done:     make([]bool, opts.MaxRuns),
		ranges:   make(map[int]*leaseRange),
	}
	s.cond = sync.NewCond(&s.mu)
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
		cancel()
		return nil, ErrPoolClosed
	}
	p.nextID++
	s.id = p.nextID
	if s.spec != nil {
		s.spec.Session = s.id
	}
	p.sessions = append(p.sessions, s)
	p.admitted++
	p.mu.Unlock()
	p.cond.Broadcast()
	return s, nil
}

func (p *Pool) unregister(s *session) {
	s.cancel()
	s.mu.Lock()
	s.finished = true
	s.mu.Unlock()
	s.cond.Broadcast()

	p.mu.Lock()
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
	p.mu.Unlock()
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
// may execute.
func (p *Pool) acquireLease(serves sessionFilter, stop <-chan struct{}) *lease {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil
		}
		select {
		case <-stop:
			return nil
		default:
		}
		n := len(p.sessions)
		for i := 0; i < n; i++ {
			idx := (p.rr + i) % n
			s := p.sessions[idx]
			if (serves == remoteSessions && s.spec == nil) || (serves == localSessions && s.spec != nil) {
				continue
			}
			if l := s.takeLease(); l != nil {
				p.rr = (idx + 1) % n
				return l
			}
		}
		p.cond.Wait()
	}
}

// wake nudges executors waiting in acquireLease (new session, freed
// lease slot, re-queued lease).
func (p *Pool) wake() { p.cond.Broadcast() }

// executorLoop is one in-process executor: acquire a lease from the
// sessions it serves, run it on a fresh board, merge the results,
// repeat.
func (p *Pool) executorLoop(serves sessionFilter) {
	for {
		l := p.acquireLease(serves, nil)
		if l == nil {
			return
		}
		p.runLocalLease(l)
	}
}

func (p *Pool) runLocalLease(l *lease) {
	s := l.r.s
	// The run cache is consulted here rather than through the policy, so
	// the board is built on the lease's first miss: a lease the cache
	// serves entirely builds none, and each run is looked up once.
	var board platform.Board
	pol := platform.ExecPolicy{RunTimeout: s.opts.RunTimeout, Retry: s.opts.Retry}
	for run := l.r.start; run < l.r.end; run++ {
		if s.aborted() {
			s.releaseLease(l)
			return
		}
		if s.opts.Cached != nil {
			if r, ok := s.opts.Cached(run); ok {
				s.completeRun(run, r)
				continue
			}
		}
		if board == nil {
			b, err := s.newBoard()
			if err != nil {
				s.failLease(l, err)
				return
			}
			board = b
		}
		r, err := platform.SafeExecuteRun(s.ctx, board, s.w, s.opts.BaseSeed, run, pol)
		if err != nil {
			if s.ctx.Err() != nil {
				s.releaseLease(l)
				return
			}
			s.failLease(l, err)
			return
		}
		s.completeRun(run, r)
	}
	s.finishLease(l)
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
		requeued := false
		for _, s := range sessions {
			if s.requeueStale(time.Now()) {
				requeued = true
			}
		}
		if requeued {
			p.wake()
		}
	}
}

// leaseRange is one contiguous batch of run indices of a session. The
// same range object survives re-queues (executor death, straggler
// sweep); epoch counts how many times it has been handed out.
type leaseRange struct {
	s          *session
	start, end int
	epoch      int
	attempts   int
	deadline   time.Time
	queued     int // copies currently in the dispatch queue
	running    int // copies currently held by executors
	done       bool
}

// lease is one executor's claim on a range at a specific epoch.
type lease struct {
	r     *leaseRange
	epoch int
}

// Start and End bound the lease's run-index range [Start, End).
func (l *lease) Start() int { return l.r.start }
func (l *lease) End() int   { return l.r.end }

// session is one campaign executing on the fabric.
type session struct {
	pool     *Pool
	id       uint64
	cfg      platform.Config
	w        platform.Workload
	opts     platform.StreamOptions
	batch    int
	newBoard func() (platform.Board, error)
	spec     *SessionSpec // non-nil when remote executors may serve it
	ctx      context.Context
	cancel   context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond // wakes the merge loop on watermark advance
	queue     []*leaseRange
	ranges    map[int]*leaseRange // by start index
	nextCarve int                 // first run index not yet leased
	results   []platform.RunResult
	done      []bool
	watermark int // contiguous completed prefix length
	failed    error
	finished  bool // merge loop exited; executors must drop leases
}

// takeLease hands out the next lease: a re-queued range first, else a
// freshly carved batch if the session is under its outstanding-lease
// bound. Called with pool.mu held (pool → session lock order).
func (s *session) takeLease() *lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil || s.finished {
		return nil
	}
	for len(s.queue) > 0 {
		r := s.queue[0]
		s.queue = s.queue[1:]
		r.queued--
		if r.done {
			continue
		}
		r.running++
		r.epoch++
		r.deadline = s.leaseDeadline()
		return &lease{r: r, epoch: r.epoch}
	}
	if s.nextCarve >= s.opts.MaxRuns || s.outstandingLocked() >= s.pool.cfg.SessionLeases {
		return nil
	}
	end := s.nextCarve + s.batch
	if end > s.opts.MaxRuns {
		end = s.opts.MaxRuns
	}
	r := &leaseRange{s: s, start: s.nextCarve, end: end, running: 1, deadline: s.leaseDeadline()}
	s.ranges[r.start] = r
	s.nextCarve = end
	return &lease{r: r, epoch: r.epoch}
}

func (s *session) leaseDeadline() time.Time {
	if s.pool.cfg.LeaseTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.pool.cfg.LeaseTimeout)
}

// outstandingLocked counts ranges not yet fully merged.
func (s *session) outstandingLocked() int {
	n := 0
	for _, r := range s.ranges {
		if !r.done {
			n++
		}
	}
	return n
}

func (s *session) leaseCounts() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.ranges {
		if r.done {
			continue
		}
		queued += r.queued
		running += r.running
	}
	return
}

func (s *session) aborted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed != nil || s.finished
}

// completeRun merges one run result. Duplicate completions (straggler
// re-lease) are idempotent: a run is a pure function of its seed, so
// whichever copy lands first wins and the other is byte-identical.
func (s *session) completeRun(run int, r platform.RunResult) {
	s.mu.Lock()
	if run < 0 || run >= len(s.done) || s.done[run] {
		s.mu.Unlock()
		return
	}
	s.results[run] = r
	s.done[run] = true
	advanced := false
	for s.watermark < len(s.done) && s.done[s.watermark] {
		s.watermark++
		advanced = true
	}
	s.mu.Unlock()
	if advanced {
		s.cond.Broadcast()
	}
}

// finishLease retires a completed lease and frees its outstanding slot.
func (s *session) finishLease(l *lease) {
	s.mu.Lock()
	first := !l.r.done
	l.r.done = true
	l.r.running--
	s.mu.Unlock()
	if first {
		s.pool.wake() // an outstanding slot freed: new leases may carve
	}
}

// releaseLease drops a lease without completing it (session is ending).
func (s *session) releaseLease(l *lease) {
	s.mu.Lock()
	l.r.running--
	s.mu.Unlock()
}

// abandonLease re-queues a lease whose executor died (dropped
// connection, pool shutdown race) without charging the range's attempt
// budget — losing an executor is not evidence the runs are bad.
func (s *session) abandonLease(l *lease) {
	s.mu.Lock()
	l.r.running--
	if l.r.done || s.failed != nil || s.finished {
		s.mu.Unlock()
		return
	}
	l.r.queued++
	s.queue = append(s.queue, l.r)
	s.mu.Unlock()
	s.pool.wake()
}

// failLease handles an executor failing a lease: the range re-queues
// seed-preserved for another executor, up to a small attempt budget,
// after which the campaign fails.
func (s *session) failLease(l *lease, err error) {
	const maxAttempts = 3
	s.mu.Lock()
	l.r.running--
	if l.r.done || s.failed != nil || s.finished {
		s.mu.Unlock()
		return
	}
	l.r.attempts++
	if l.r.attempts >= maxAttempts {
		s.mu.Unlock()
		s.fail(fmt.Errorf("fabric: lease [%d,%d) failed after %d attempts: %w",
			l.r.start, l.r.end, l.r.attempts, err))
		return
	}
	l.r.queued++
	s.queue = append(s.queue, l.r)
	s.mu.Unlock()
	s.pool.wake()
}

// requeueStale re-queues running leases past their deadline.
func (s *session) requeueStale(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil || s.finished {
		return false
	}
	requeued := false
	for _, r := range s.ranges {
		if r.done || r.running == 0 || r.queued > 0 || r.deadline.IsZero() || now.Before(r.deadline) {
			continue
		}
		r.queued++
		r.deadline = now.Add(s.pool.cfg.LeaseTimeout)
		s.queue = append(s.queue, r)
		requeued = true
	}
	return requeued
}

// fail aborts the session; the merge loop returns err.
func (s *session) fail(err error) {
	s.mu.Lock()
	if s.failed == nil && !s.finished {
		s.failed = err
	}
	s.mu.Unlock()
	s.cancel()
	s.cond.Broadcast()
}

// merge is the session's delivery loop: wait for the watermark to cross
// each batch boundary, then journal, emit telemetry, and hand the batch
// to the sink — exactly the order platform.StreamCampaign uses, so
// journals, event streams and fingerprints are bit-identical.
func (s *session) merge(ctx context.Context, sink platform.BatchSink) (*platform.CampaignResult, error) {
	o := s.opts
	stopWatch := context.AfterFunc(ctx, s.cond.Broadcast)
	defer stopWatch()

	if o.Telemetry != nil {
		o.Telemetry.Emit("campaign_start", -1,
			telemetry.Str("platform", s.cfg.Name),
			telemetry.Str("workload", s.w.Name()),
			telemetry.Num("max_runs", float64(o.MaxRuns)),
			telemetry.Num("batch_size", float64(s.batch)),
			telemetry.Str("base_seed", strconv.FormatUint(o.BaseSeed, 10)),
		)
	}

	res := &platform.CampaignResult{
		Platform: s.cfg.Name,
		Workload: s.w.Name(),
	}
	finishPartial := func(total, journaledFrom int) error {
		res.Results = s.results[:total]
		if o.Journal == nil {
			return nil
		}
		for run := journaledFrom; run < total; run++ {
			if err := o.Journal.LogRun(run, platform.DeriveRunSeed(o.BaseSeed, run), s.results[run]); err != nil {
				return fmt.Errorf("fabric: journal: %w", err)
			}
		}
		if err := o.Journal.Flush(); err != nil {
			return fmt.Errorf("fabric: journal: %w", err)
		}
		return nil
	}

	delivered, stopped := 0, false
	for batch := 0; delivered < o.MaxRuns && !stopped; batch++ {
		end := delivered + s.batch
		if end > o.MaxRuns {
			end = o.MaxRuns
		}

		s.mu.Lock()
		for s.watermark < end && s.failed == nil && ctx.Err() == nil {
			s.cond.Wait()
		}
		failed, mark := s.failed, s.watermark
		s.mu.Unlock()

		if err := ctx.Err(); err != nil && mark < end {
			if ferr := finishPartial(mark, delivered); ferr != nil {
				return nil, ferr
			}
			return res, fmt.Errorf("%w after %d runs: %w", platform.ErrCanceled, mark, err)
		}
		if failed != nil && mark < end {
			return nil, failed
		}

		out := s.results[delivered:end]
		if o.Journal != nil {
			for run := delivered; run < end; run++ {
				if err := o.Journal.LogRun(run, platform.DeriveRunSeed(o.BaseSeed, run), s.results[run]); err != nil {
					return nil, fmt.Errorf("fabric: journal: %w", err)
				}
			}
		}
		b := platform.Batch{Index: batch, Start: delivered, Results: out}
		platform.ReplayBatch(o.Telemetry, b)
		if sink != nil {
			stop, err := sink(b)
			if err != nil {
				return nil, err
			}
			stopped = stop
		}
		if o.Journal != nil {
			if err := o.Journal.Barrier(b); err != nil {
				return nil, fmt.Errorf("fabric: journal: %w", err)
			}
		}
		delivered = end
	}
	res.Results = s.results[:delivered]
	if o.Telemetry != nil {
		early := 0.0
		if stopped {
			early = 1
		}
		o.Telemetry.Emit("campaign_end", -1,
			telemetry.Num("runs", float64(delivered)),
			telemetry.Num("stopped_early", early),
		)
	}
	return res, nil
}
