package platform

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/isa"
)

// streamSeries runs a streaming campaign and returns the series.
func streamSeries(t *testing.T, opts StreamOptions) *CampaignResult {
	t.Helper()
	app := smallTVCA(t)
	c, err := StreamCampaign(context.Background(), RAND(), app, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStreamDeterministicAcrossParallelismAndBatchSize(t *testing.T) {
	// The engine's core guarantee: neither the worker count nor the
	// batch size may change the measured series — run i always uses
	// DeriveRunSeed(base, i) and batches are barriers.
	const runs = 30
	ref := streamSeries(t, StreamOptions{MaxRuns: runs, BatchSize: 250, Parallel: 1, BaseSeed: 7})
	if len(ref.Results) != runs {
		t.Fatalf("reference has %d runs", len(ref.Results))
	}
	variants := []StreamOptions{
		{MaxRuns: runs, BatchSize: 1, Parallel: 1, BaseSeed: 7},
		{MaxRuns: runs, BatchSize: 1, Parallel: 8, BaseSeed: 7},
		{MaxRuns: runs, BatchSize: 250, Parallel: 8, BaseSeed: 7},
	}
	for _, opts := range variants {
		got := streamSeries(t, opts)
		if len(got.Results) != runs {
			t.Fatalf("batch=%d parallel=%d: %d runs", opts.BatchSize, opts.Parallel, len(got.Results))
		}
		for i := range ref.Results {
			if got.Results[i] != ref.Results[i] {
				t.Fatalf("batch=%d parallel=%d: run %d differs: %+v vs %+v",
					opts.BatchSize, opts.Parallel, i, got.Results[i], ref.Results[i])
			}
		}
	}
}

func TestStreamSinkSeesOrderedPrefix(t *testing.T) {
	app := smallTVCA(t)
	var batches []Batch
	c, err := StreamCampaign(context.Background(), RAND(), app,
		StreamOptions{MaxRuns: 20, BatchSize: 6, Parallel: 4, BaseSeed: 3},
		func(b Batch) (bool, error) {
			batches = append(batches, b)
			return false, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 4 { // 6+6+6+2
		t.Fatalf("%d batches", len(batches))
	}
	next := 0
	for i, b := range batches {
		if b.Index != i || b.Start != next {
			t.Fatalf("batch %d: index=%d start=%d (want start %d)", i, b.Index, b.Start, next)
		}
		next += len(b.Results)
	}
	if next != len(c.Results) || next != 20 {
		t.Fatalf("batches cover %d of %d runs", next, len(c.Results))
	}
}

func TestStreamSinkEarlyStop(t *testing.T) {
	app := smallTVCA(t)
	c, err := StreamCampaign(context.Background(), RAND(), app,
		StreamOptions{MaxRuns: 1000, BatchSize: 5, Parallel: 2, BaseSeed: 3},
		func(b Batch) (bool, error) { return b.Index == 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Results) != 15 {
		t.Fatalf("stopped campaign has %d runs, want 15", len(c.Results))
	}
}

func TestStreamCancellation(t *testing.T) {
	app := smallTVCA(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	_, err := StreamCampaign(ctx, RAND(), app,
		StreamOptions{MaxRuns: 100000, BatchSize: 10, Parallel: 4, BaseSeed: 1},
		func(b Batch) (bool, error) {
			cancel() // cancel mid-campaign, after the first batch
			return false, nil
		})
	if err == nil {
		t.Fatal("canceled campaign returned nil error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false: %v", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("cancellation took %s", d)
	}
	// No goroutine leak: the workers must all have exited.
	for i := 0; ; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if i >= 50 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// faultyWorkload fails Prepare for run indices in fail, and counts how
// many runs were prepared in total.
type faultyWorkload struct {
	fail     map[int]string
	prepared *atomic.Int64
}

func (f faultyWorkload) Name() string { return "faulty" }
func (f faultyWorkload) Prepare(run int) (*isa.Machine, error) {
	f.prepared.Add(1)
	if msg, ok := f.fail[run]; ok {
		return nil, errors.New(msg)
	}
	b := isa.NewBuilder("faulty", 0)
	b.Li(1, int32(run)).Halt()
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return isa.NewMachine(p, isa.NewMemory()), nil
}
func (f faultyWorkload) PathOf(*isa.Machine) string { return "" }

func TestStreamStopsOnFirstWorkerError(t *testing.T) {
	// A failing run must stop the campaign at the next run boundary
	// instead of draining the whole queue.
	var prepared atomic.Int64
	w := faultyWorkload{fail: map[int]string{10: "boom at run 10"}, prepared: &prepared}
	const maxRuns = 100000
	_, err := StreamCampaign(context.Background(), DET(), w,
		StreamOptions{MaxRuns: maxRuns, BatchSize: maxRuns, Parallel: 4, BaseSeed: 1}, nil)
	if err == nil {
		t.Fatal("failing campaign returned nil error")
	}
	if !strings.Contains(err.Error(), "boom at run 10") {
		t.Errorf("error %v does not mention the failing run", err)
	}
	if n := prepared.Load(); n >= maxRuns/2 {
		t.Errorf("workers drained %d of %d runs after the error", n, maxRuns)
	}
}

func TestStreamJoinsDistinctWorkerErrors(t *testing.T) {
	var prepared atomic.Int64
	// Every run fails, alternating between two distinct messages, so
	// with two workers both distinct errors are observed and joined.
	fail := make(map[int]string)
	for i := 0; i < 8; i++ {
		fail[i] = fmt.Sprintf("boom kind %d", i%2)
	}
	w := faultyWorkload{fail: fail, prepared: &prepared}
	_, err := StreamCampaign(context.Background(), DET(), w,
		StreamOptions{MaxRuns: 8, BatchSize: 8, Parallel: 2, BaseSeed: 1}, nil)
	if err == nil {
		t.Fatal("failing campaign returned nil error")
	}
	if !strings.Contains(err.Error(), "boom kind") {
		t.Errorf("unexpected error: %v", err)
	}
	// Duplicate messages must be deduplicated by the join.
	if n := strings.Count(err.Error(), "boom kind 0"); n > 1 {
		t.Errorf("error message repeats a worker error %d times:\n%v", n, err)
	}
}

func TestJoinDistinct(t *testing.T) {
	a, b := errors.New("a"), errors.New("b")
	if err := joinDistinct([]error{nil, nil}); err != nil {
		t.Errorf("all-nil join = %v", err)
	}
	err := joinDistinct([]error{a, nil, errors.New("a"), b})
	if err == nil || !errors.Is(err, a) || !errors.Is(err, b) {
		t.Fatalf("join lost errors: %v", err)
	}
	if strings.Count(err.Error(), "a") != 1 {
		t.Errorf("duplicate not removed: %q", err.Error())
	}
}

func TestStreamRejectsZeroRuns(t *testing.T) {
	app := smallTVCA(t)
	if _, err := StreamCampaign(context.Background(), RAND(), app, StreamOptions{}, nil); err == nil {
		t.Error("zero-run campaign accepted")
	}
}

func TestStreamBatchSizeExceedsRemaining(t *testing.T) {
	// A batch size larger than the budget clamps to it: one batch of
	// exactly MaxRuns runs, same series as any other batching.
	app := smallTVCA(t)
	var batches []Batch
	c, err := StreamCampaign(context.Background(), RAND(), app,
		StreamOptions{MaxRuns: 7, BatchSize: 1000, Parallel: 2, BaseSeed: 7},
		func(b Batch) (bool, error) {
			batches = append(batches, b)
			return false, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Results) != 7 {
		t.Fatalf("%d runs, want 7", len(c.Results))
	}
	if len(batches) != 1 || len(batches[0].Results) != 7 {
		t.Fatalf("batches %+v, want one batch of 7", batches)
	}
	ref := streamSeries(t, StreamOptions{MaxRuns: 7, BatchSize: 2, Parallel: 1, BaseSeed: 7})
	for i := range ref.Results {
		if c.Results[i] != ref.Results[i] {
			t.Fatalf("run %d differs from reference batching", i)
		}
	}
}

func TestStreamPartialFinalBatch(t *testing.T) {
	// MaxRuns not divisible by BatchSize: the final batch carries the
	// remainder and the series still covers every run exactly once.
	app := smallTVCA(t)
	var sizes []int
	c, err := StreamCampaign(context.Background(), RAND(), app,
		StreamOptions{MaxRuns: 11, BatchSize: 4, Parallel: 3, BaseSeed: 9},
		func(b Batch) (bool, error) {
			sizes = append(sizes, len(b.Results))
			return false, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Results) != 11 {
		t.Fatalf("%d runs, want 11", len(c.Results))
	}
	want := []int{4, 4, 3}
	if len(sizes) != len(want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("batch sizes %v, want %v", sizes, want)
		}
	}
}

// fakeBoard is a Board whose runs are computed by the function itself,
// so a test controls each run's result completely.
type fakeBoard func(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error)

func (f fakeBoard) ExecuteRun(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error) {
	return f(ctx, w, run, seed)
}

// hookedBoards is a NewBoard factory: each board is a fresh RAND
// platform whose runs go through hook, which may delegate to p.
func hookedBoards(hook func(ctx context.Context, p *Platform, w Workload, run int, seed uint64) (RunResult, error)) func() (Board, error) {
	return func() (Board, error) {
		p, err := New(RAND())
		if err != nil {
			return nil, err
		}
		return fakeBoard(func(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error) {
			return hook(ctx, p, w, run, seed)
		}), nil
	}
}

func TestStreamCustomRunnerAndQuarantine(t *testing.T) {
	// A substituted board fully controls the per-run result; runs it
	// quarantines stay in the series but out of the measurements.
	runner := func(ctx context.Context, p *Platform, w Workload, run int, seed uint64) (RunResult, error) {
		r := RunResult{Cycles: uint64(1000 + run), Instructions: 1, Path: "p"}
		if run%2 == 1 {
			r.Outcome = "timing-perturbed"
		}
		return r, nil
	}
	c, err := StreamCampaign(context.Background(), RAND(), smallTVCA(t),
		StreamOptions{MaxRuns: 10, BatchSize: 4, Parallel: 2, BaseSeed: 1, NewBoard: hookedBoards(runner)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Results) != 10 {
		t.Fatalf("%d runs", len(c.Results))
	}
	if got := len(c.Times()); got != 5 {
		t.Errorf("Times() has %d clean runs, want 5", got)
	}
	if got := c.Quarantined(); got != 5 {
		t.Errorf("Quarantined() = %d, want 5", got)
	}
	if n := c.OutcomeCounts()["timing-perturbed"]; n != 5 {
		t.Errorf("OutcomeCounts = %v", c.OutcomeCounts())
	}
}

func TestRunResilientRetriesTransientFailure(t *testing.T) {
	// Each run fails once, then succeeds; the retry policy must absorb
	// the transient failures and reuse the same derived seed.
	var calls atomic.Int64
	failed := make(map[int]*atomic.Bool)
	var mu sync.Mutex
	runner := func(ctx context.Context, p *Platform, w Workload, run int, seed uint64) (RunResult, error) {
		calls.Add(1)
		if want := DeriveRunSeed(5, run); seed != want {
			t.Errorf("run %d: seed %#x, want %#x", run, seed, want)
		}
		mu.Lock()
		f, ok := failed[run]
		if !ok {
			f = &atomic.Bool{}
			failed[run] = f
		}
		mu.Unlock()
		if f.CompareAndSwap(false, true) {
			return RunResult{}, errors.New("transient")
		}
		return RunResult{Cycles: uint64(run)}, nil
	}
	c, err := StreamCampaign(context.Background(), RAND(), smallTVCA(t),
		StreamOptions{MaxRuns: 6, BatchSize: 6, Parallel: 2, BaseSeed: 5, NewBoard: hookedBoards(runner),
			Retry: RetryPolicy{MaxAttempts: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range c.Results {
		if r.Cycles != uint64(i) {
			t.Errorf("run %d: cycles %d", i, r.Cycles)
		}
	}
	if n := calls.Load(); n != 12 { // 6 runs x (1 failure + 1 success)
		t.Errorf("%d board calls, want 12", n)
	}
}

func TestExecuteRunExhaustsRetries(t *testing.T) {
	sentinel := errors.New("persistent fault")
	board := fakeBoard(func(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error) {
		return RunResult{}, sentinel
	})
	_, err := ExecuteRun(context.Background(), board, nil, 1, 4,
		ExecPolicy{Retry: RetryPolicy{MaxAttempts: 3}})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error does not report the attempt count: %v", err)
	}
}

func TestExecuteRunTimeout(t *testing.T) {
	// A board that honors ctx must be cut off by RunTimeout and the
	// failure classified as ErrRunTimeout after the retries run out.
	var attempts atomic.Int64
	board := fakeBoard(func(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error) {
		attempts.Add(1)
		<-ctx.Done()
		return RunResult{}, ctx.Err()
	})
	start := time.Now()
	_, err := ExecuteRun(context.Background(), board, nil, 1, 0,
		ExecPolicy{RunTimeout: 20 * time.Millisecond, Retry: RetryPolicy{MaxAttempts: 2}})
	if err == nil {
		t.Fatal("hung board returned nil error")
	}
	if !errors.Is(err, ErrRunTimeout) {
		t.Errorf("errors.Is(err, ErrRunTimeout) = false: %v", err)
	}
	if n := attempts.Load(); n != 2 {
		t.Errorf("%d attempts, want 2", n)
	}
	// The watchdog must not stall the campaign: both attempts bounded.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("timed-out run took %s", d)
	}
}

func TestExecuteRunCampaignCancelStopsRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var attempts atomic.Int64
	board := fakeBoard(func(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error) {
		attempts.Add(1)
		cancel() // the campaign dies while this run is in flight
		return RunResult{}, errors.New("boom")
	})
	_, err := ExecuteRun(ctx, board, nil, 1, 0,
		ExecPolicy{Retry: RetryPolicy{MaxAttempts: 5, Backoff: time.Hour}})
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("%d attempts after campaign cancel, want 1 (no backoff spin)", n)
	}
}
