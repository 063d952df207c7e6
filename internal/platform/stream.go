package platform

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ErrCanceled reports that a campaign was interrupted by its context
// before completing. Errors returned for a canceled campaign match both
// errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err()).
var ErrCanceled = errors.New("platform: campaign canceled")

// ErrRunTimeout reports that a single run exceeded StreamOptions.
// RunTimeout. The run is retried under the campaign's RetryPolicy; the
// error surfaces only once the attempts are exhausted.
var ErrRunTimeout = errors.New("platform: run timed out")

// ErrWorkerPanic reports that a worker panicked while executing a run.
// The panic is recovered at the run boundary and — like a timeout —
// handled by the supervision policy: the worker restarts on a fresh
// board and the run is re-queued seed-preserved.
var ErrWorkerPanic = errors.New("platform: worker panicked")

// ErrDegraded reports that a campaign gave up on its workers: the
// consecutive-restart budget (SupervisionPolicy.MaxRestarts) was
// exhausted without a successful run in between. A degraded campaign is
// not a crash — the engine flushes every completed run to the journal
// and returns the partial (statistically clean) sample alongside an
// error matching errors.Is(err, ErrDegraded) that wraps the restart
// causes via errors.Join.
var ErrDegraded = errors.New("platform: campaign degraded, worker restart budget exhausted")

// RetryPolicy bounds the re-execution of runs that fail with a genuine
// error (worker fault, timeout) — not of quarantined runs, which are
// valid outcomes. The zero value means fail fast (one attempt).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per run (<= 1 means one).
	MaxAttempts int
	// Backoff is the sleep before the first retry; it doubles on each
	// further retry. Zero retries immediately.
	Backoff time.Duration
}

// SupervisionPolicy bounds worker restarts. A worker is restarted (on a
// fresh board, with backoff, the in-flight run re-queued under its
// original seed) when a run panics or times out past its retry budget;
// other errors still fail the campaign immediately. The zero value
// selects the defaults: 8 consecutive restarts, 10ms initial backoff.
// MaxRestarts < 0 disables restarts entirely — a panic or exhausted
// timeout then aborts the campaign like any other worker error.
type SupervisionPolicy struct {
	// MaxRestarts is the number of consecutive restarts (across all
	// workers, reset by any successful run) tolerated before the
	// campaign degrades with ErrDegraded. 0 selects 8; < 0 disables
	// restarts.
	MaxRestarts int
	// Backoff is the sleep before the first restart; it doubles on each
	// consecutive restart, capped at 1s. 0 selects 10ms.
	Backoff time.Duration
}

func (p SupervisionPolicy) withDefaults() SupervisionPolicy {
	if p.MaxRestarts == 0 {
		p.MaxRestarts = 8
	}
	if p.Backoff <= 0 {
		p.Backoff = 10 * time.Millisecond
	}
	return p
}

// Journal persists a campaign's progress for crash recovery. The engine
// drives it single-threaded from the batch barrier: LogRun for each
// newly completed run in run order, then Barrier after the sink has
// observed the batch (the implementation checkpoints derived state and
// makes everything durable). Flush is called instead of Barrier when
// the campaign ends mid-batch — cancellation or degradation — so
// completed runs are durable even without a new checkpoint.
type Journal interface {
	LogRun(run int, seed uint64, r RunResult) error
	Barrier(b Batch) error
	Flush() error
}

// ResumeState primes StreamCampaign with the journaled progress of an
// interrupted campaign. Prefix holds every journaled result (a
// contiguous run prefix); Delivered counts the runs the sink had
// already observed before the crash (the last checkpoint). Runs between
// Delivered and len(Prefix) — a cancellation-flushed partial batch —
// are not re-executed: they fill the head of batch StartBatch, and the
// engine executes only the missing seeds.
type ResumeState struct {
	StartBatch int
	Delivered  int
	Prefix     []RunResult
	// Stopped marks a journal whose campaign had already ended at the
	// last barrier (its stop rule fired). No further runs execute: the
	// campaign returns the journaled prefix, emitting only the
	// campaign-end telemetry.
	Stopped bool
}

func (rs *ResumeState) validate(o StreamOptions) error {
	switch {
	case rs.Delivered < 0 || rs.Delivered > o.MaxRuns:
		return fmt.Errorf("platform: resume state delivered %d outside [0,%d]", rs.Delivered, o.MaxRuns)
	case len(rs.Prefix) < rs.Delivered || len(rs.Prefix) > o.MaxRuns:
		return fmt.Errorf("platform: resume prefix %d runs, delivered %d, budget %d", len(rs.Prefix), rs.Delivered, o.MaxRuns)
	case len(rs.Prefix)-rs.Delivered > o.BatchSize:
		return fmt.Errorf("platform: resume tail %d runs exceeds batch size %d", len(rs.Prefix)-rs.Delivered, o.BatchSize)
	case rs.Delivered < o.MaxRuns && rs.Delivered != rs.StartBatch*o.BatchSize:
		return fmt.Errorf("platform: resume state inconsistent: %d delivered runs at batch %d (batch size %d)", rs.Delivered, rs.StartBatch, o.BatchSize)
	case rs.Stopped && len(rs.Prefix) != rs.Delivered:
		return fmt.Errorf("platform: stopped resume state carries %d undelivered runs", len(rs.Prefix)-rs.Delivered)
	}
	return nil
}

// StreamOptions tunes StreamCampaign.
type StreamOptions struct {
	// MaxRuns is the campaign's run budget (required, >= 1). The
	// campaign ends after MaxRuns runs unless the sink stops it earlier.
	MaxRuns int
	// BatchSize is the number of runs executed between sink calls
	// (default 250). Batching never changes results: run i always uses
	// seed DeriveRunSeed(BaseSeed, i) and results are stored by run
	// index, so the measured series is identical for any batch size —
	// only the stop decision granularity changes.
	BatchSize int
	// Parallel is the number of worker platforms (0 = GOMAXPROCS).
	// Parallelism does not affect results either: batches are barriers,
	// so the sink always observes a complete, ordered prefix.
	Parallel int
	// BaseSeed derives the per-run seeds; the same BaseSeed reproduces
	// the campaign bit-for-bit.
	BaseSeed uint64
	// NewBoard substitutes the worker-board factory (nil = a fresh
	// single-core Platform built from the campaign's Config). The
	// multicore campaign path plugs in here, building co-simulated
	// Multicore boards, and so does fault injection, decorating
	// single-core boards (faults.Injector.NewBoard); every board must
	// honor the Board contract so results stay placement-independent.
	NewBoard func() (Board, error)
	// Cached, when non-nil, short-circuits run execution with memoized
	// results: a hit skips the board, timeouts and retries for that
	// run. The scenario-matrix run cache plugs in here; see
	// ExecPolicy.Cached. Misses execute normally, so a partial cache
	// extends a campaign instead of restarting it.
	Cached func(run int) (RunResult, bool)
	// RunTimeout bounds each run attempt's wall-clock time; an attempt
	// exceeding it fails with an error matching ErrRunTimeout and is
	// retried under Retry. Zero means no per-run deadline.
	RunTimeout time.Duration
	// Retry re-executes failed run attempts. Retries reuse the same
	// per-run seed, so a retry that succeeds yields the exact result the
	// first attempt would have.
	Retry RetryPolicy
	// Supervise bounds worker restarts after panics and exhausted
	// timeouts (see SupervisionPolicy; the zero value enables the
	// defaults).
	Supervise SupervisionPolicy
	// Journal, when non-nil, receives every completed run and a barrier
	// call per batch, making the campaign crash-recoverable. Nil (the
	// default) keeps the engine free of durability work: the run loop is
	// bit-identical and allocation-identical to an unjournaled campaign.
	Journal Journal
	// Resume primes the campaign with journaled progress; see
	// ResumeState. Nil starts from run 0.
	Resume *ResumeState
	// Replay, when non-nil, runs right after the campaign_start event is
	// emitted and before any run executes — the resume path uses it to
	// re-emit the telemetry event stream of already-journaled batches so
	// a resumed campaign's JSONL is byte-identical to an uninterrupted
	// one.
	Replay func()
	// Telemetry attaches a metrics/event registry to the campaign. Nil
	// disables telemetry entirely: the run loop is bit-identical and
	// allocation-identical to an untelemetered campaign. When set, the
	// engine harvests simulator and campaign instruments at each batch
	// barrier and emits the structured event stream (campaign_start,
	// run, batch, campaign_end) in deterministic order.
	Telemetry *telemetry.Registry
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = 250
	}
	if o.BatchSize > o.MaxRuns {
		o.BatchSize = o.MaxRuns
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Parallel > o.BatchSize {
		o.Parallel = o.BatchSize
	}
	return o
}

// Batch is one completed, ordered slice of a streaming campaign.
type Batch struct {
	// Index is the 0-based batch number.
	Index int
	// Start is the run index of Results[0].
	Start int
	// Results holds runs Start .. Start+len(Results)-1 in run order. The
	// slice aliases the campaign's backing array; treat it as read-only.
	Results []RunResult
}

// BatchSink consumes a completed batch. Returning stop=true ends the
// campaign gracefully after this batch; returning an error aborts it.
// A nil sink streams to nobody (a plain fixed-size campaign).
type BatchSink func(b Batch) (stop bool, err error)

// supervisor tracks the consecutive-restart budget shared by all
// workers of one campaign.
type supervisor struct {
	policy SupervisionPolicy
	tele   *telemetry.Registry

	consec atomic.Int64
	mu     sync.Mutex
	causes []error
}

func newSupervisor(p SupervisionPolicy, reg *telemetry.Registry) *supervisor {
	return &supervisor{policy: p.withDefaults(), tele: reg}
}

// noteSuccess resets the consecutive-restart budget after any
// successful run. The fast path (no restarts pending) is a single
// atomic load.
func (s *supervisor) noteSuccess() {
	if s.consec.Load() == 0 {
		return
	}
	s.consec.Store(0)
	s.mu.Lock()
	s.causes = nil
	s.mu.Unlock()
}

// restartable reports whether a run failure is a supervision matter
// (panic or exhausted timeout) rather than a campaign-fatal error.
func (s *supervisor) restartable(err error) bool {
	if s.policy.MaxRestarts < 0 {
		return false
	}
	return errors.Is(err, ErrWorkerPanic) || errors.Is(err, ErrRunTimeout)
}

// allowRestart records the failure and charges the restart budget.
// Returning false means the budget is exhausted: the campaign degrades.
func (s *supervisor) allowRestart(wk, run int, err error) bool {
	s.mu.Lock()
	s.causes = append(s.causes, fmt.Errorf("worker %d, run %d: %w", wk, run, err))
	s.mu.Unlock()
	n := s.consec.Add(1)
	if n > int64(s.policy.MaxRestarts) {
		s.tele.Gauge("campaign_degraded").Set(1)
		return false
	}
	s.tele.Counter("worker_restarts_total").Inc()
	return true
}

// degradedCauses returns the recorded failures when the budget was
// exhausted, nil otherwise.
func (s *supervisor) degradedCauses() []error {
	if s.consec.Load() <= int64(s.policy.MaxRestarts) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.causes...)
}

// backoff sleeps before a restart (doubling per consecutive restart,
// capped at 1s); returns false if ctx fires first.
func (s *supervisor) backoff(ctx context.Context) bool {
	d := s.policy.Backoff
	if n := s.consec.Load(); n > 1 {
		shift := n - 1
		if shift > 10 {
			shift = 10
		}
		d <<= shift
	}
	if d > time.Second {
		d = time.Second
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// StreamCampaign executes a measurement campaign in deterministic
// batches: workers run a batch in parallel, the batch completes as a
// barrier, and the sink observes the ordered prefix collected so far —
// the primitive behind convergence-driven early stopping. The protocol
// guarantees of RunCampaign carry over: run i always uses
// DeriveRunSeed(BaseSeed, i), so neither Parallel nor BatchSize can
// change the measured series.
//
// On the first worker error the remaining workers stop at their next
// run boundary and the error is returned; when several workers fail,
// all distinct errors are reported via errors.Join. Panics and
// exhausted timeouts are supervision matters instead (see
// SupervisionPolicy): the worker restarts on a fresh board and the run
// re-executes under its original seed, so a recovered hiccup leaves no
// trace in the measured series. Context cancellation stops the workers
// promptly; the completed contiguous run prefix of the current batch is
// flushed to the journal and returned as a partial result alongside an
// error matching errors.Is(err, ErrCanceled). A campaign that exhausts
// its restart budget ends the same way with ErrDegraded.
func StreamCampaign(ctx context.Context, cfg Config, w Workload, opts StreamOptions, sink BatchSink) (*CampaignResult, error) {
	if opts.MaxRuns < 1 {
		return nil, fmt.Errorf("platform: campaign needs >= 1 run, got %d", opts.MaxRuns)
	}
	o := opts.withDefaults()

	executed, delivered, batch0 := 0, 0, 0
	if o.Resume != nil {
		if err := o.Resume.validate(o); err != nil {
			return nil, err
		}
		executed = len(o.Resume.Prefix)
		delivered = o.Resume.Delivered
		batch0 = o.Resume.StartBatch
		o.Telemetry.Counter("campaign_resumes_total").Inc()
	}

	// One board per worker, reused across batches: PrepareRun resets
	// every stateful resource, so reuse is protocol-compliant. A
	// supervised restart swaps in a fresh board.
	newBoard := o.NewBoard
	if newBoard == nil {
		newBoard = func() (Board, error) { return New(cfg) }
	}
	boards := make([]Board, o.Parallel)
	for i := range boards {
		b, err := newBoard()
		if err != nil {
			return nil, err
		}
		boards[i] = b
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sup := newSupervisor(o.Supervise, o.Telemetry)
	pol := o.execPolicy()

	var tele *streamTele
	if o.Telemetry != nil {
		tele = newStreamTele(o.Telemetry, boards, o, cfg.Name, w.Name())
	}
	if o.Replay != nil {
		o.Replay()
	}

	res := &CampaignResult{
		Platform: cfg.Name,
		Workload: w.Name(),
		Results:  make([]RunResult, 0, o.MaxRuns),
	}
	if o.Resume != nil {
		res.Results = append(res.Results, o.Resume.Prefix...)
	}

	// finishPartial journals and returns the contiguous completed prefix
	// when the campaign ends mid-batch (cancellation or degradation).
	finishPartial := func(total, journaledFrom int) error {
		res.Results = res.Results[:total]
		if o.Journal == nil {
			return nil
		}
		for run := journaledFrom; run < total; run++ {
			if err := o.Journal.LogRun(run, DeriveRunSeed(o.BaseSeed, run), res.Results[run]); err != nil {
				return fmt.Errorf("platform: journal: %w", err)
			}
		}
		if err := o.Journal.Flush(); err != nil {
			return fmt.Errorf("platform: journal: %w", err)
		}
		return nil
	}

	stopped := o.Resume != nil && o.Resume.Stopped
	for batch := batch0; delivered < o.MaxRuns && !stopped; batch++ {
		start := delivered
		batchStart := time.Now()
		n := o.BatchSize
		if start+n > o.MaxRuns {
			n = o.MaxRuns - start
		}
		end := start + n
		if len(res.Results) < end {
			res.Results = res.Results[:end]
		}
		out := res.Results[start:end]
		// filled counts results this batch inherits from the resume
		// prefix (a cancellation-flushed tail): they are not re-executed.
		filled := executed - start
		if filled < 0 {
			filled = 0
		}
		if filled > n {
			filled = n
		}
		done := make([]bool, n)
		for i := 0; i < filled; i++ {
			done[i] = true
		}

		next := make(chan int, n-filled)
		for i := filled; i < n; i++ {
			next <- start + i
		}
		close(next)

		errs := make([]error, len(boards))
		var wg sync.WaitGroup
		for wk := range boards {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				pending := -1 // re-queued run after a supervised restart
				for {
					run := pending
					pending = -1
					if run < 0 {
						r, ok := <-next
						if !ok {
							return
						}
						run = r
					}
					if runCtx.Err() != nil {
						return
					}
					r, err := SafeExecuteRun(runCtx, boards[wk], w, o.BaseSeed, run, pol)
					if err == nil {
						out[run-start] = r
						done[run-start] = true
						sup.noteSuccess()
						continue
					}
					if runCtx.Err() != nil {
						return // campaign is already ending
					}
					if !sup.restartable(err) {
						errs[wk] = err
						cancel() // stop the other workers at their next run boundary
						return
					}
					if !sup.allowRestart(wk, run, err) {
						cancel() // degraded: end the campaign at the barrier
						return
					}
					if !sup.backoff(runCtx) {
						return
					}
					fresh, err := newBoard()
					if err != nil {
						errs[wk] = fmt.Errorf("platform: worker %d restart: %w", wk, err)
						cancel()
						return
					}
					boards[wk] = fresh
					pending = run // re-queue seed-preserved
				}
			}(wk)
		}
		wg.Wait()

		// k is the contiguous completed prefix of this batch — the only
		// part that is usable (and journalable) if the campaign ends here.
		k := 0
		for k < n && done[k] {
			k++
		}
		journaledFrom := start + filled

		if err := ctx.Err(); err != nil {
			if ferr := finishPartial(start+k, journaledFrom); ferr != nil {
				return nil, ferr
			}
			return res, fmt.Errorf("%w after %d runs: %w", ErrCanceled, start+k, err)
		}
		if causes := sup.degradedCauses(); causes != nil {
			if ferr := finishPartial(start+k, journaledFrom); ferr != nil {
				return nil, ferr
			}
			return res, fmt.Errorf("%w after %d runs: %w", ErrDegraded, start+k, errors.Join(causes...))
		}
		if err := joinDistinct(errs); err != nil {
			return nil, err
		}

		if executed < end {
			executed = end
		}
		if o.Journal != nil {
			for run := journaledFrom; run < end; run++ {
				if err := o.Journal.LogRun(run, DeriveRunSeed(o.BaseSeed, run), out[run-start]); err != nil {
					return nil, fmt.Errorf("platform: journal: %w", err)
				}
			}
		}
		b := Batch{Index: batch, Start: start, Results: out}
		if tele != nil {
			tele.observeBatch(b, boards, time.Since(batchStart))
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
	}
	if tele != nil {
		tele.finish(len(res.Results), stopped)
	}
	return res, nil
}

// execPolicy translates the campaign options into the shared per-run
// execution policy (see ExecuteRun in executor.go).
func (o StreamOptions) execPolicy() ExecPolicy {
	pol := ExecPolicy{Cached: o.Cached, RunTimeout: o.RunTimeout, Retry: o.Retry}
	if o.Telemetry != nil {
		pol.counters = teleRetryCounters{reg: o.Telemetry}
	}
	return pol
}

// teleRetryCounters routes the retry loop's tallies into the campaign
// registry.
type teleRetryCounters struct{ reg *telemetry.Registry }

func (c teleRetryCounters) incTimeout() { c.reg.Counter("campaign_run_timeouts_total").Inc() }
func (c teleRetryCounters) incRetry()   { c.reg.Counter("campaign_run_retries_total").Inc() }

// joinDistinct combines worker errors, dropping nils and duplicates
// (several workers often fail identically), so the caller sees every
// distinct failure exactly once.
func joinDistinct(errs []error) error {
	seen := make(map[string]bool, len(errs))
	var out []error
	for _, err := range errs {
		if err == nil || seen[err.Error()] {
			continue
		}
		seen[err.Error()] = true
		out = append(out, err)
	}
	return errors.Join(out...)
}
