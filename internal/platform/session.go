package platform

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Session is the campaign engine: one campaign's lease-and-merge state.
// Its run-index space is carved into leases that executors take, run
// and complete; completion is first-write-wins (a run is a pure
// function of its seed, so a duplicate copy is byte-identical and
// dropped), and Run delivers completed batches strictly in run order
// through the watermark of the contiguous completed prefix: journal
// LogRun for each new run, telemetry, sink, journal Barrier. Where a
// run executed can therefore never change the delivered series.
//
// StreamCampaign runs a private session on in-process executors; the
// campaign fabric (internal/fabric) schedules sessions opened with
// NewSession across a shared pool of in-process and remote executors.
type Session struct {
	cfg      Config
	w        Workload
	o        StreamOptions // defaults applied
	newBoard func() (Board, error)
	pol      ExecPolicy
	sup      SupervisionPolicy // defaults applied

	// Lease geometry. Leases never cross a batch boundary; each takes
	// 1/split of what is left of its batch, rounded up (split 1: whole
	// batches). A paced session (private) carves only inside the batch
	// Run is waiting for, so an early stop executes exactly the
	// delivered batches; otherwise at most lookahead leases are live.
	split        int
	paced        bool
	lookahead    int
	leaseTimeout time.Duration
	wake         func() // a new lease may be available (called without mu)

	parent context.Context // the campaign's context: canceling it cancels the campaign
	ctx    context.Context // canceled when the session ends, fails or is canceled
	cancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond // wakes Run on watermark progress and paced executors on new leases
	queue     []*leaseRange
	live      []*leaseRange // carved and not yet finished (bounded by the geometry)
	nextCarve int           // first run index not yet carved
	limit     int           // carving stops here
	results   []RunResult
	done      []bool
	watermark int                // contiguous completed prefix length
	want      int                // watermark Run is waiting for (math.MaxInt when not waiting)
	stats     map[int]BoardStats // per batch: substrate counters of its completed runs (telemetry only)
	errs      []error            // in-process run failures and scheduler failures
	restarts  int                // consecutive supervised restarts, reset by any completed run
	causes    []error            // the failures behind them, wrapped by ErrDegraded
	degraded  bool
}

// leaseRange is a contiguous range of run indices of a session. The same
// range survives re-queues (executor death, supervised restart,
// straggler sweep).
type leaseRange struct {
	start, end int
	attempts   int // remote failures charged (see Lease.Fail)
	deadline   time.Time
	queued     int // copies waiting in the session queue
	running    int // copies held by executors
	done       bool
}

// Lease is one executor's claim on a range of a session's runs.
type Lease struct {
	s *Session
	r *leaseRange
}

// Start and End bound the lease's run-index range [Start, End).
func (l *Lease) Start() int { return l.r.start }
func (l *Lease) End() int   { return l.r.end }

// maxLeaseAttempts bounds the re-leases of a range whose remote executor
// reported a failure or violated the protocol.
const maxLeaseAttempts = 3

// NewSession opens a campaign for a shared scheduler: every lease covers
// one whole batch, at most lookahead leases are live at once, a lease
// held past leaseTimeout (0 = never) is re-queued by RequeueStale, and
// wake is called (never with the session's lock held) whenever a lease
// may have become available. The scheduler hands out leases with
// TakeLease; the campaign itself runs in Run.
func NewSession(ctx context.Context, cfg Config, w Workload, opts StreamOptions, lookahead int, leaseTimeout time.Duration, wake func()) (*Session, error) {
	s, err := openSession(ctx, cfg, w, opts)
	if err != nil {
		return nil, err
	}
	s.split, s.lookahead, s.leaseTimeout, s.wake = 1, lookahead, leaseTimeout, wake
	return s, nil
}

// openSession validates opts and builds the session state; the caller
// sets the lease geometry.
func openSession(ctx context.Context, cfg Config, w Workload, opts StreamOptions) (*Session, error) {
	if opts.MaxRuns < 1 || opts.MaxRuns > MaxCampaignRuns {
		return nil, fmt.Errorf("platform: campaign run budget %d not in [1,%d]", opts.MaxRuns, MaxCampaignRuns)
	}
	o := opts.withDefaults()
	s := &Session{
		cfg:      cfg,
		w:        w,
		o:        o,
		newBoard: o.NewBoard,
		pol:      o.execPolicy(),
		sup:      o.Supervise.withDefaults(),
		limit:    o.MaxRuns,
		want:     math.MaxInt,
	}
	if s.newBoard == nil {
		s.newBoard = func() (Board, error) { return New(cfg) }
	}
	if o.Telemetry != nil {
		s.stats = make(map[int]BoardStats)
	}
	if rs := o.Resume; rs != nil {
		if err := rs.validate(o); err != nil {
			return nil, err
		}
		s.grow(len(rs.Prefix))
		copy(s.results, rs.Prefix)
		for i := range rs.Prefix {
			s.done[i] = true
		}
		s.watermark, s.nextCarve = len(rs.Prefix), rs.Delivered
		if rs.Stopped {
			s.limit = rs.Delivered
		}
		o.Telemetry.Counter("campaign_resumes_total").Inc()
	}
	s.cond = sync.NewCond(&s.mu)
	s.parent = ctx
	s.ctx, s.cancel = context.WithCancel(ctx)
	context.AfterFunc(s.ctx, func() {
		s.mu.Lock()
		s.mu.Unlock()
		s.cond.Broadcast()
	})
	return s, nil
}

// minSlots is the result slots a session allocates first: a campaign
// of up to this many runs gets all of its slots in one allocation.
const minSlots = 4096

// grow extends the result slots to cover runs [0, n) (mu held or the
// session not yet shared). Slots grow as leases are carved, so a
// campaign's memory follows the runs it carved, not its budget;
// capacity starts at minSlots and doubles but never passes the budget,
// so a campaign that runs to its budget ends with exactly one slot per
// budgeted run.
func (s *Session) grow(n int) {
	if n <= len(s.results) {
		return
	}
	if n > cap(s.results) {
		c := min(max(n, 2*cap(s.results), minSlots), s.o.MaxRuns)
		results, done := make([]RunResult, len(s.results), c), make([]bool, len(s.done), c)
		copy(results, s.results)
		copy(done, s.done)
		s.results, s.done = results, done
	}
	s.results, s.done = s.results[:n], s.done[:n]
}

// prefix returns the results of runs [0, n), all completed. The slots
// it returns are never written again (first write wins), while grow
// may move later runs to a new array, so the header is read under mu.
func (s *Session) prefix(n int) []RunResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.results[:n:n]
}

// TakeLease hands out the session's next lease, or nil if none is
// available now: a re-queued range first, else a freshly carved one.
func (s *Session) TakeLease() *Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.takeLocked()
}

func (s *Session) takeLocked() *Lease {
	if s.ctx.Err() != nil {
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
		r.deadline = s.deadline()
		return &Lease{s: s, r: r}
	}
	if s.nextCarve >= s.limit || (s.lookahead > 0 && len(s.live) >= s.lookahead) {
		return nil
	}
	batchEnd := min((s.nextCarve/s.o.BatchSize+1)*s.o.BatchSize, s.limit)
	end := s.nextCarve + (batchEnd-s.nextCarve+s.split-1)/s.split
	r := &leaseRange{start: s.nextCarve, end: end, running: 1, deadline: s.deadline()}
	s.grow(end)
	s.live = append(s.live, r)
	s.nextCarve = end
	return &Lease{s: s, r: r}
}

func (s *Session) deadline() time.Time {
	if s.leaseTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.leaseTimeout)
}

// waitLease blocks until the session has a lease for a private executor
// or has ended (nil).
func (s *Session) waitLease() *Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.ctx.Err() == nil {
		if l := s.takeLocked(); l != nil {
			return l
		}
		s.cond.Wait()
	}
	return nil
}

// Complete merges one run result of the lease. The first copy of a run
// wins; later copies are dropped.
func (l *Lease) Complete(run int, r RunResult) { l.s.complete(run, r, nil) }

// complete merges run's result with the substrate counters its
// execution added (nil when not harvested), attributed to its batch.
func (s *Session) complete(run int, r RunResult, delta *BoardStats) {
	s.mu.Lock()
	if run < 0 || run >= len(s.done) || s.done[run] {
		s.mu.Unlock()
		return
	}
	s.results[run] = r
	s.done[run] = true
	if delta != nil && s.stats != nil {
		b := run / s.o.BatchSize
		s.stats[b] = s.stats[b].add(*delta)
	}
	if s.restarts > 0 && !s.degraded {
		s.restarts, s.causes = 0, nil
	}
	for s.watermark < len(s.done) && s.done[s.watermark] {
		s.watermark++
	}
	wake := s.watermark >= s.want
	s.mu.Unlock()
	if wake {
		s.cond.Broadcast()
	}
}

// pending reports whether run still needs executing.
func (s *Session) pending(run int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.done[run]
}

// Finish retires a lease whose runs have all been completed.
func (l *Lease) Finish() {
	s := l.s
	s.mu.Lock()
	l.r.running--
	first := !l.r.done
	if first {
		l.r.done = true
		for i, r := range s.live {
			if r == l.r {
				s.live = append(s.live[:i], s.live[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	if first {
		s.wake() // a live slot freed: new leases may carve
	}
}

// Abandon gives a lease back for re-queueing under the same seeds
// without charging its range: losing an executor (dropped connection,
// supervised restart) is no evidence that the runs are bad. On an ended
// session it only releases the claim.
func (l *Lease) Abandon() { l.s.requeue(l, nil) }

// Fail re-queues a lease whose remote executor reported a failure or
// violated the protocol. After maxLeaseAttempts failures of the same
// range the session fails with err.
func (l *Lease) Fail(err error) { l.s.requeue(l, err) }

func (s *Session) requeue(l *Lease, err error) {
	s.mu.Lock()
	l.r.running--
	if l.r.done || s.ctx.Err() != nil {
		s.mu.Unlock()
		return
	}
	if err != nil {
		l.r.attempts++
		if l.r.attempts >= maxLeaseAttempts {
			s.mu.Unlock()
			s.Fail(fmt.Errorf("platform: lease [%d,%d) failed after %d attempts: %w",
				l.r.start, l.r.end, l.r.attempts, err))
			return
		}
	}
	l.r.queued++
	s.queue = append(s.queue, l.r)
	s.mu.Unlock()
	s.wake()
}

// RequeueStale re-queues the running leases past their deadline (the
// straggler sweep). The original executor keeps running; whichever copy
// completes a run first wins.
func (s *Session) RequeueStale(now time.Time) {
	s.mu.Lock()
	requeued := false
	for _, r := range s.live {
		if r.running == 0 || r.queued > 0 || r.deadline.IsZero() || now.Before(r.deadline) {
			continue
		}
		r.queued++
		r.deadline = now.Add(s.leaseTimeout)
		s.queue = append(s.queue, r)
		requeued = true
	}
	s.mu.Unlock()
	if requeued {
		s.wake()
	}
}

// LeaseCounts reports the session's live leases waiting for an executor
// and held by one.
func (s *Session) LeaseCounts() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.live {
		queued += r.queued
		running += r.running
	}
	return queued, running
}

// Fail aborts the session; Run returns err (joined with any other
// distinct failure).
func (s *Session) Fail(err error) {
	s.mu.Lock()
	s.errs = append(s.errs, err)
	s.mu.Unlock()
	s.cancel()
}

// restart charges a supervised restart after run failed with err. Once
// more than MaxRestarts restarts follow each other with no completed
// run in between, it degrades the session and reports false.
func (s *Session) restart(run int, err error) bool {
	s.mu.Lock()
	s.restarts++
	s.causes = append(s.causes, fmt.Errorf("run %d: %w", run, err))
	ok := s.restarts <= s.sup.MaxRestarts
	s.degraded = s.degraded || !ok
	s.mu.Unlock()
	if !ok {
		s.o.Telemetry.Gauge("campaign_degraded").Set(1)
		s.cancel()
		return false
	}
	s.o.Telemetry.Counter("worker_restarts_total").Inc()
	return true
}

// backoff sleeps before a restart: Backoff, doubled per consecutive
// restart and capped at 1s, cut short when the session ends.
func (s *Session) backoff() {
	s.mu.Lock()
	n := s.restarts
	s.mu.Unlock()
	t := time.NewTimer(min(s.sup.Backoff<<min(max(n-1, 0), 10), time.Second))
	defer t.Stop()
	select {
	case <-s.ctx.Done():
	case <-t.C:
	}
}

// Run is the session's delivery loop: it waits for the watermark to
// cross each batch boundary, then journals the batch's new runs, folds
// it into the telemetry, hands it to the sink and checkpoints the
// journal. Cancellation of the session's context or degradation ends
// the campaign with the contiguous completed prefix of the current
// batch journaled (Flush) and returned alongside an error matching
// ErrCanceled or ErrDegraded; any other failure returns all distinct
// errors joined. A resumed campaign first re-emits the telemetry of its
// journaled batches (see StreamOptions.Replay).
func (s *Session) Run(sink BatchSink) (*CampaignResult, error) {
	defer s.cancel()
	o := s.o
	var tele *streamTele
	if o.Telemetry != nil {
		tele = newStreamTele(o.Telemetry, o, s.cfg.Name, s.w.Name())
	}
	res := &CampaignResult{Platform: s.cfg.Name, Workload: s.w.Name()}
	delivered, journaled, batch, stopped := 0, 0, 0, false
	if rs := o.Resume; rs != nil {
		delivered, journaled, batch, stopped = rs.Delivered, len(rs.Prefix), rs.StartBatch, rs.Stopped
		for i := 0; tele != nil && i < batch; i++ {
			start := i * o.BatchSize
			emitBatchResults(o.Telemetry, Batch{Index: i, Start: start, Results: rs.Prefix[start:min(start+o.BatchSize, delivered)]})
			if o.Replay != nil {
				o.Replay(i)
			}
		}
	}

	// logRuns journals the runs not journaled yet, up to total.
	logRuns := func(total int) error {
		if o.Journal == nil {
			return nil
		}
		results := s.prefix(total)
		for ; journaled < total; journaled++ {
			if err := o.Journal.LogRun(journaled, DeriveRunSeed(o.BaseSeed, journaled), results[journaled]); err != nil {
				return fmt.Errorf("platform: journal: %w", err)
			}
		}
		return nil
	}
	// partial ends the campaign mid-batch: the contiguous completed
	// prefix is journaled, flushed and returned.
	partial := func(total int, cause error) (*CampaignResult, error) {
		if err := logRuns(total); err != nil {
			return nil, err
		}
		if o.Journal != nil {
			if err := o.Journal.Flush(); err != nil {
				return nil, fmt.Errorf("platform: journal: %w", err)
			}
		}
		res.Results = s.prefix(total)
		return res, cause
	}

	last := time.Now()
	for ; delivered < o.MaxRuns && !stopped; batch++ {
		end := min(delivered+o.BatchSize, o.MaxRuns)
		s.mu.Lock()
		s.want = end
		for s.watermark < end && s.ctx.Err() == nil {
			s.cond.Wait()
		}
		s.want = math.MaxInt
		mark, degraded, causes, errs := min(s.watermark, end), s.degraded, s.causes, s.errs
		delta := s.stats[batch]
		delete(s.stats, batch)
		s.mu.Unlock()

		if err := s.parent.Err(); err != nil {
			return partial(mark, fmt.Errorf("%w after %d runs: %w", ErrCanceled, mark, err))
		}
		if degraded {
			return partial(mark, fmt.Errorf("%w after %d runs: %w", ErrDegraded, mark, errors.Join(causes...)))
		}
		if len(errs) > 0 {
			return nil, joinDistinct(errs)
		}

		if err := logRuns(end); err != nil {
			return nil, err
		}
		b := Batch{Index: batch, Start: delivered, Results: s.prefix(end)[delivered:]}
		if tele != nil {
			now := time.Now()
			tele.observeBatch(b, delta, now.Sub(last))
			last = now
		}
		if sink != nil {
			stop, err := sink(b)
			if err != nil {
				return nil, err
			}
			stopped = stop
		}
		if o.Journal != nil {
			if err := o.Journal.Barrier(b); err != nil {
				return nil, fmt.Errorf("platform: journal: %w", err)
			}
		}
		delivered = end
		if s.paced {
			s.advance(delivered, stopped)
		}
	}
	if tele != nil {
		tele.finish(delivered, stopped)
	}
	res.Results = s.prefix(delivered)
	return res, nil
}

// advance lets a paced session carve the batch after delivered (none
// once the campaign stopped).
func (s *Session) advance(delivered int, stopped bool) {
	s.mu.Lock()
	s.limit = delivered
	if !stopped {
		s.limit = min(delivered+s.o.BatchSize, s.o.MaxRuns)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Executor runs leases on in-process boards. It keeps its board while
// consecutive leases come from the same session; a lease from another
// session, or a supervised restart, makes it build a fresh one on its
// next executed run. The zero value is ready to use.
type Executor struct {
	s     *Session
	board Board
	prev  BoardStats // board counters at the last harvest
}

// Run executes the runs of l still pending: a run-cache hit completes
// without a board, the rest execute under the session's execution
// policy. A panic or exhausted timeout follows the session's
// SupervisionPolicy (fresh board, backoff, the lease re-queued under
// the same seeds, degradation once the restart budget is spent); any
// other run error fails the session.
func (e *Executor) Run(l *Lease) {
	s := l.s
	if e.s != s {
		e.s, e.board = s, nil
	}
	for run := l.r.start; run < l.r.end; run++ {
		if s.ctx.Err() != nil {
			l.Abandon()
			return
		}
		if !s.pending(run) {
			continue
		}
		if s.o.Cached != nil {
			if r, ok := s.o.Cached(run); ok {
				s.complete(run, r, nil)
				continue
			}
		}
		if e.board == nil && !e.build(l) {
			return
		}
		r, err := SafeExecuteRun(s.ctx, e.board, s.w, s.o.BaseSeed, run, s.pol)
		if err != nil {
			e.failed(l, run, err)
			return
		}
		if s.stats == nil {
			s.complete(run, r, nil)
			continue
		}
		var delta BoardStats
		if bs, ok := e.board.(boardStatser); ok {
			cur := bs.BoardStats()
			delta, e.prev = cur.Sub(e.prev), cur
		}
		s.complete(run, r, &delta)
	}
	l.Finish()
}

// build gives the executor a fresh board; a build failure fails the
// session.
func (e *Executor) build(l *Lease) bool {
	b, err := e.s.newBoard()
	if err != nil {
		e.s.Fail(err)
		l.Abandon()
		return false
	}
	e.adopt(b)
	return true
}

// adopt makes b the executor's board and its counters the harvest
// baseline.
func (e *Executor) adopt(b Board) {
	e.board, e.prev = b, BoardStats{}
	if bs, ok := b.(boardStatser); ok {
		e.prev = bs.BoardStats()
	}
}

// failed applies the session's failure policy to a run error.
func (e *Executor) failed(l *Lease, run int, err error) {
	s := e.s
	switch {
	case s.ctx.Err() != nil: // the campaign is already ending
	case s.sup.MaxRestarts < 0 || !(errors.Is(err, ErrWorkerPanic) || errors.Is(err, ErrRunTimeout)):
		s.Fail(err)
	case s.restart(run, err):
		e.board = nil
		s.backoff()
	}
	l.Abandon()
}
