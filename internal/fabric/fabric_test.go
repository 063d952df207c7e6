package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/platform"
)

// testWorkload returns a fast spec-backed workload.
func testWorkload(t *testing.T) SpecWorkload {
	t.Helper()
	w, err := BuiltinRegistry().Build(WorkloadSpec{Kind: "crc32"})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// reference runs the single-process engine at parallelism 1 — the
// ground truth every fabric execution must reproduce bit-for-bit.
func reference(t *testing.T, w platform.Workload, runs, batch int, seed uint64) *platform.CampaignResult {
	t.Helper()
	ref, err := platform.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: runs, BatchSize: batch, BaseSeed: seed, Parallel: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func assertSameResults(t *testing.T, ref, got *platform.CampaignResult) {
	t.Helper()
	if len(ref.Results) != len(got.Results) {
		t.Fatalf("%d results, reference has %d", len(got.Results), len(ref.Results))
	}
	for i := range ref.Results {
		if ref.Results[i] != got.Results[i] {
			t.Fatalf("run %d differs: fabric %+v, reference %+v", i, got.Results[i], ref.Results[i])
		}
	}
	if ref.Platform != got.Platform || ref.Workload != got.Workload {
		t.Fatalf("labels %q/%q, want %q/%q", got.Platform, got.Workload, ref.Platform, ref.Workload)
	}
}

func TestFabricMatchesSingleProcess(t *testing.T) {
	w := testWorkload(t)
	ref := reference(t, w, 40, 10, 7)

	pool := NewPool(Config{Executors: 4})
	defer pool.Close()
	got, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 40, BatchSize: 10, BaseSeed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, ref, got)
}

func TestFabricBatchesOrderedAndStoppable(t *testing.T) {
	w := testWorkload(t)
	pool := NewPool(Config{Executors: 4})
	defer pool.Close()

	var batches []platform.Batch
	got, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 50, BatchSize: 10, BaseSeed: 3},
		func(b platform.Batch) (bool, error) {
			cp := b
			cp.Results = append([]platform.RunResult(nil), b.Results...)
			batches = append(batches, cp)
			return b.Index == 1, nil // stop after the second batch
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 20 {
		t.Fatalf("stopped campaign kept %d runs, want 20", len(got.Results))
	}
	if len(batches) != 2 {
		t.Fatalf("%d batches delivered, want 2", len(batches))
	}
	for i, b := range batches {
		if b.Index != i || b.Start != i*10 || len(b.Results) != 10 {
			t.Fatalf("batch %d malformed: index=%d start=%d n=%d", i, b.Index, b.Start, len(b.Results))
		}
	}
	ref := reference(t, w, 20, 10, 3)
	assertSameResults(t, ref, got)
}

func TestFabricSinkErrorAborts(t *testing.T) {
	w := testWorkload(t)
	pool := NewPool(Config{Executors: 2})
	defer pool.Close()
	sinkErr := errors.New("sink exploded")
	_, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 30, BatchSize: 10, BaseSeed: 1},
		func(platform.Batch) (bool, error) { return false, sinkErr })
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want sink error", err)
	}
}

func TestFabricCancellation(t *testing.T) {
	w := testWorkload(t)
	pool := NewPool(Config{Executors: 2})
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	_, err := pool.StreamCampaign(ctx, platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 1000, BatchSize: 10, BaseSeed: 1},
		func(b platform.Batch) (bool, error) {
			if b.Index == 1 {
				cancel()
			}
			return false, nil
		})
	if !errors.Is(err, platform.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestFabricRejectsUnsupportedOptions(t *testing.T) {
	w := testWorkload(t)
	pool := NewPool(Config{Executors: 1})
	defer pool.Close()
	if _, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 0}, nil); err == nil {
		t.Error("zero runs accepted")
	}
}

// tagBoard decorates a platform and marks the path of every result it
// produces, so a test can tell which runs went through a custom board.
type tagBoard struct{ *platform.Platform }

func (b tagBoard) ExecuteRun(ctx context.Context, w platform.Workload, run int, seed uint64) (platform.RunResult, error) {
	r, err := b.Platform.ExecuteRun(ctx, w, run, seed)
	r.Path += "+tag"
	return r, err
}

func newTagBoard() (platform.Board, error) {
	p, err := platform.New(platform.RAND())
	if err != nil {
		return nil, err
	}
	return tagBoard{p}, nil
}

// TestFabricCustomBoardStaysInProcess: a session with a custom board
// (the fault-injection path) executes every run on that board, even
// with a remote executor connected, which could only rebuild a plain
// board from the spec. Apart from the tag, the series is the local
// engine's.
func TestFabricCustomBoardStaysInProcess(t *testing.T) {
	w := testWorkload(t)
	ref := reference(t, w, 40, 5, 3)
	pool := NewPool(Config{Executors: 1})
	defer pool.Close()
	startExecutor(t, startCoordinator(t, pool))

	got, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 40, BatchSize: 5, BaseSeed: 3, NewBoard: newTagBoard}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got.Results {
		want := ref.Results[i]
		want.Path += "+tag"
		if r != want {
			t.Fatalf("run %d = %+v, want %+v (not executed on the custom board)", i, r, want)
		}
	}
}

// TestFabricRemoteOnlyPoolRunsLocalOnlySessions: a remote-only pool
// (Executors < 0) with no remote executor connected still completes the
// sessions a remote executor could never serve: one with a run cache and
// one with a custom board.
func TestFabricRemoteOnlyPoolRunsLocalOnlySessions(t *testing.T) {
	w := testWorkload(t)
	ref := reference(t, w, 40, 10, 9)
	pool := NewPool(Config{Executors: -1})
	defer pool.Close()

	cached := func(run int) (platform.RunResult, bool) {
		if run < 15 {
			return ref.Results[run], true
		}
		return platform.RunResult{}, false
	}
	opts := []platform.StreamOptions{
		{MaxRuns: 40, BatchSize: 10, BaseSeed: 9, Cached: cached},
		{MaxRuns: 40, BatchSize: 10, BaseSeed: 9, NewBoard: newTagBoard},
	}
	results := make([]*platform.CampaignResult, len(opts))
	errs := make(chan error, len(opts))
	for i, o := range opts {
		go func() {
			var err error
			results[i], err = pool.StreamCampaign(context.Background(), platform.RAND(), w, o, nil)
			errs <- err
		}()
	}
	for range opts {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a local-only session stalled on a remote-only pool")
		}
	}
	assertSameResults(t, ref, results[0])
	for i, r := range results[1].Results {
		if r.Path != ref.Results[i].Path+"+tag" {
			t.Fatalf("run %d path %q: not executed on the custom board", i, r.Path)
		}
	}
}

func TestFabricManyConcurrentCampaigns(t *testing.T) {
	// Many campaigns multiplexed over one small pool: every one must
	// finish and match its single-process reference exactly (fair
	// scheduling means none starves; bounded admission means this also
	// exercises backpressure).
	w := testWorkload(t)
	const campaigns = 24
	pool := NewPool(Config{Executors: 4, MaxSessions: 6, SessionLeases: 2})
	defer pool.Close()

	refs := make([]*platform.CampaignResult, campaigns)
	for i := range refs {
		refs[i] = reference(t, w, 12, 4, uint64(100+i))
	}

	var wg sync.WaitGroup
	errs := make([]error, campaigns)
	results := make([]*platform.CampaignResult, campaigns)
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = pool.StreamCampaign(context.Background(), platform.RAND(), w,
				platform.StreamOptions{MaxRuns: 12, BatchSize: 4, BaseSeed: uint64(100 + i)}, nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < campaigns; i++ {
		if errs[i] != nil {
			t.Fatalf("campaign %d: %v", i, errs[i])
		}
		assertSameResults(t, refs[i], results[i])
	}
}

func TestFabricPoolClosedFailsWaiters(t *testing.T) {
	w := testWorkload(t)
	pool := NewPool(Config{Executors: 1})
	done := make(chan error, 1)
	go func() {
		_, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
			platform.StreamOptions{MaxRuns: 100000, BatchSize: 100, BaseSeed: 1}, nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	pool.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("err = %v, want ErrPoolClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("campaign not released by pool close")
	}
}

func TestFabricJournalMatchesLocal(t *testing.T) {
	// The fabric merge loop must feed a journal the same LogRun/Barrier
	// sequence the local engine does.
	w := testWorkload(t)
	localJ := &recordingJournal{}
	if _, err := platform.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 20, BatchSize: 5, BaseSeed: 9, Parallel: 1, Journal: localJ}, nil); err != nil {
		t.Fatal(err)
	}

	pool := NewPool(Config{Executors: 3})
	defer pool.Close()
	fabJ := &recordingJournal{}
	if _, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 20, BatchSize: 5, BaseSeed: 9, Journal: fabJ}, nil); err != nil {
		t.Fatal(err)
	}
	if len(localJ.log) != len(fabJ.log) {
		t.Fatalf("journal op counts differ: local %d, fabric %d", len(localJ.log), len(fabJ.log))
	}
	for i := range localJ.log {
		if localJ.log[i] != fabJ.log[i] {
			t.Fatalf("journal op %d differs:\nlocal:  %s\nfabric: %s", i, localJ.log[i], fabJ.log[i])
		}
	}
}

// recordingJournal captures the journal call sequence for comparison.
type recordingJournal struct {
	log []string
}

func (j *recordingJournal) LogRun(run int, seed uint64, r platform.RunResult) error {
	j.log = append(j.log, fmt.Sprintf("run %d seed %#x %+v", run, seed, r))
	return nil
}

func (j *recordingJournal) Barrier(b platform.Batch) error {
	j.log = append(j.log, fmt.Sprintf("barrier %d start %d n %d", b.Index, b.Start, len(b.Results)))
	return nil
}

func (j *recordingJournal) Flush() error {
	j.log = append(j.log, "flush")
	return nil
}

// TestFabricWarmLeasesBuildNoBoard: a lease consults the run cache
// before it builds a board, so a fully cached pass builds none, looks
// each run up exactly once, and delivers the cold pass's results; a
// partially cached pass builds boards only for leases that miss.
func TestFabricWarmLeasesBuildNoBoard(t *testing.T) {
	w := testWorkload(t)
	pool := NewPool(Config{Executors: 2})
	defer pool.Close()

	var boards atomic.Int64
	newBoard := func() (platform.Board, error) {
		boards.Add(1)
		return platform.New(platform.RAND())
	}
	const runs, batch = 40, 10
	cold, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: runs, BatchSize: batch, BaseSeed: 11, NewBoard: newBoard}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if boards.Load() == 0 {
		t.Fatal("cold pass built no board")
	}

	for _, prefix := range []int{runs, 25} {
		boards.Store(0)
		var mu sync.Mutex
		lookups := make([]int, runs)
		cached := func(run int) (platform.RunResult, bool) {
			mu.Lock()
			lookups[run]++
			mu.Unlock()
			if run < prefix {
				return cold.Results[run], true
			}
			return platform.RunResult{}, false
		}
		warm, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
			platform.StreamOptions{MaxRuns: runs, BatchSize: batch, BaseSeed: 11,
				NewBoard: newBoard, Cached: cached}, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, cold, warm)
		// Leases cover whole batches: only those holding a run past the
		// cached prefix may build a board.
		missLeases := runs/batch - prefix/batch
		if n := boards.Load(); n > int64(missLeases) {
			t.Errorf("prefix %d: %d boards built, want at most %d", prefix, n, missLeases)
		}
		for run, n := range lookups {
			if n != 1 {
				t.Errorf("prefix %d: run %d looked up %d times, want 1", prefix, run, n)
			}
		}
	}
}
