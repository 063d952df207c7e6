package platform

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
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

// ErrWorkerPanic reports that an executor panicked while executing a
// run. The panic is recovered at the run boundary and — like a timeout —
// handled by the supervision policy: the executor restarts on a fresh
// board and the run is re-leased seed-preserved.
var ErrWorkerPanic = errors.New("platform: worker panicked")

// ErrDegraded reports that a campaign gave up on its executors: the
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

// SupervisionPolicy bounds executor restarts. An in-process executor —
// of a local campaign or of a fabric pool — is restarted (on a fresh
// board, with backoff, its lease re-queued under the original seeds)
// when a run panics or times out past its retry budget; other errors
// still fail the campaign immediately. The zero value selects the
// defaults: 8 consecutive restarts, 10ms initial backoff. MaxRestarts
// < 0 disables restarts entirely — a panic or exhausted timeout then
// aborts the campaign like any other run error.
type SupervisionPolicy struct {
	// MaxRestarts is the number of consecutive restarts (across all
	// executors, reset by any completed run) tolerated before the
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

// Journal persists a campaign's progress for crash recovery. The session
// engine drives it single-threaded from its delivery loop: LogRun for each
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

// MaxCampaignRuns bounds a campaign's run budget: a session keeps one
// result slot per run it has carved into a lease, up to the budget.
const MaxCampaignRuns = 10_000_000

// StreamOptions tunes StreamCampaign.
type StreamOptions struct {
	// MaxRuns is the campaign's run budget (required, in [1,
	// MaxCampaignRuns]). The campaign ends after MaxRuns runs unless the
	// sink stops it earlier.
	MaxRuns int
	// BatchSize is the number of runs executed between sink calls
	// (default 250). Batching never changes results: run i always uses
	// seed DeriveRunSeed(BaseSeed, i) and results are stored by run
	// index, so the measured series is identical for any batch size —
	// only the stop decision granularity changes.
	BatchSize int
	// Parallel is the number of in-process executors of a local
	// campaign, each with its own board (0 = GOMAXPROCS; a pool ignores
	// it). Parallelism does not affect results either: batches are
	// delivered in run order, so the sink always observes a complete,
	// ordered prefix.
	Parallel int
	// BaseSeed derives the per-run seeds; the same BaseSeed reproduces
	// the campaign bit-for-bit.
	BaseSeed uint64
	// NewBoard substitutes the executor-board factory (nil = a fresh
	// single-core Platform built from the campaign's Config). The
	// multicore campaign path plugs in here, building co-simulated
	// Multicore boards, and so does fault injection, decorating
	// single-core boards (faults.Injector.NewBoard); every board must
	// honor the Board contract so results stay placement-independent.
	NewBoard func() (Board, error)
	// Cached, when non-nil, short-circuits run execution with memoized
	// results: an executor consults it before anything else, and a hit
	// skips the board, timeouts and retries for that run (a lease the
	// cache serves entirely builds no board). The platform protocol makes
	// results a pure function of (workload, run, seed), so a recorded
	// result is indistinguishable from a re-simulated one. The
	// scenario-matrix run cache plugs in here. Misses execute normally,
	// so a partial cache extends a campaign instead of restarting it.
	Cached func(run int) (RunResult, bool)
	// RunTimeout bounds each run attempt's wall-clock time; an attempt
	// exceeding it fails with an error matching ErrRunTimeout and is
	// retried under Retry. Zero means no per-run deadline.
	RunTimeout time.Duration
	// Retry re-executes failed run attempts. Retries reuse the same
	// per-run seed, so a retry that succeeds yields the exact result the
	// first attempt would have.
	Retry RetryPolicy
	// Supervise bounds executor restarts after panics and exhausted
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
	// Replay completes the telemetry replay of a resumed campaign. With
	// Resume and Telemetry set, the engine re-emits the run and batch
	// events of every journaled batch right after campaign_start, before
	// any run executes, and calls Replay (when non-nil) with each batch's
	// index after them — the resume path re-emits the batch's analysis
	// event there — so a resumed campaign's JSONL is byte-identical to an
	// uninterrupted one.
	Replay func(batch int)
	// Telemetry attaches a metrics/event registry to the campaign. Nil
	// disables telemetry entirely: the run loop is bit-identical and
	// allocation-identical to an untelemetered campaign. When set,
	// in-process executors diff their board's simulator counters after
	// each run, and the engine folds them and the campaign instruments in
	// at each batch barrier and emits the structured event stream
	// (campaign_start, run, batch, campaign_end) in deterministic order.
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

// StreamCampaign executes a measurement campaign in deterministic
// batches on a private session (see Session) served by Parallel
// in-process executors, and hands each completed batch to the sink in
// run order — the primitive behind convergence-driven early stopping.
// Run i always uses DeriveRunSeed(BaseSeed, i), so neither Parallel nor
// BatchSize can change the measured series. The executors split each
// batch into leases and never run ahead of the batch being delivered,
// so a campaign the sink stops executes exactly its delivered batches.
// Each executor keeps one board, built up front, for the whole
// campaign (PrepareRun resets every stateful resource, so reuse is
// protocol-compliant).
//
// On the first run error the executors stop at their next run boundary
// and the error is returned; when several fail, all distinct errors are
// reported via errors.Join. Panics and exhausted timeouts are
// supervision matters instead (see SupervisionPolicy): the executor
// restarts on a fresh board and the run re-executes under its original
// seed, so a recovered hiccup leaves no trace in the measured series.
// Context cancellation stops the executors promptly; the completed
// contiguous run prefix of the current batch is flushed to the journal
// and returned as a partial result alongside an error matching
// errors.Is(err, ErrCanceled). A campaign that exhausts its restart
// budget ends the same way with ErrDegraded.
func StreamCampaign(ctx context.Context, cfg Config, w Workload, opts StreamOptions, sink BatchSink) (*CampaignResult, error) {
	s, err := openSession(ctx, cfg, w, opts)
	if err != nil {
		return nil, err
	}
	defer s.cancel()
	s.split, s.paced, s.wake = 2*s.o.Parallel, true, s.cond.Broadcast
	s.limit = min(s.nextCarve+s.o.BatchSize, s.limit)

	executors := make([]Executor, s.o.Parallel)
	for i := range executors {
		b, err := s.newBoard()
		if err != nil {
			return nil, err
		}
		executors[i].s = s
		executors[i].adopt(b)
	}
	var wg sync.WaitGroup
	for i := range executors {
		wg.Add(1)
		go func(e *Executor) {
			defer wg.Done()
			for l := s.waitLease(); l != nil; l = s.waitLease() {
				e.Run(l)
			}
		}(&executors[i])
	}
	res, err := s.Run(sink)
	wg.Wait()
	return res, err
}

// execPolicy translates the campaign options into the per-run
// execution policy (see ExecuteRun in executor.go).
func (o StreamOptions) execPolicy() ExecPolicy {
	return ExecPolicy{RunTimeout: o.RunTimeout, Retry: o.Retry, tele: o.Telemetry}
}

// joinDistinct combines run errors, dropping nils and duplicates
// (several executors often fail identically), so the caller sees every
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
