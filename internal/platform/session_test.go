package platform

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// countingBoards is a NewBoard factory of synthetic boards that count
// the boards built and record every ExecuteRun call by run index.
type countingBoards struct {
	built atomic.Int64
	mu    sync.Mutex
	calls map[int]int
}

func (c *countingBoards) newBoard() (Board, error) {
	c.built.Add(1)
	return fakeBoard(func(ctx context.Context, w Workload, run int, seed uint64) (RunResult, error) {
		c.mu.Lock()
		if c.calls == nil {
			c.calls = make(map[int]int)
		}
		c.calls[run]++
		c.mu.Unlock()
		return RunResult{Cycles: seed % 1000, Instructions: 1}, nil
	}), nil
}

// TestEarlyStopExecutesOnlyDeliveredBatches: a private campaign's
// executors never run ahead of the batch being delivered, so a sink that
// stops after batch 2 leaves exactly runs 0..29 executed, each once.
func TestEarlyStopExecutesOnlyDeliveredBatches(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		boards := &countingBoards{}
		c, err := StreamCampaign(context.Background(), RAND(), smallTVCA(t),
			StreamOptions{MaxRuns: 1000, BatchSize: 10, Parallel: parallel, BaseSeed: 3, NewBoard: boards.newBoard},
			func(b Batch) (bool, error) { return b.Index == 2, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Results) != 30 {
			t.Fatalf("parallel %d: %d runs delivered, want 30", parallel, len(c.Results))
		}
		if len(boards.calls) != 30 {
			t.Errorf("parallel %d: %d distinct runs executed, want 30", parallel, len(boards.calls))
		}
		for run, n := range boards.calls {
			if run >= 30 || n != 1 {
				t.Errorf("parallel %d: run %d executed %d times", parallel, run, n)
			}
		}
	}
}

// TestPrivateCampaignBuildsParallelBoards: without restarts a private
// campaign builds one board per executor, however many batches it runs.
func TestPrivateCampaignBuildsParallelBoards(t *testing.T) {
	for _, parallel := range []int{1, 3, 4} {
		boards := &countingBoards{}
		if _, err := StreamCampaign(context.Background(), RAND(), smallTVCA(t),
			StreamOptions{MaxRuns: 95, BatchSize: 10, Parallel: parallel, BaseSeed: 1, NewBoard: boards.newBoard}, nil); err != nil {
			t.Fatal(err)
		}
		if n := boards.built.Load(); n != int64(parallel) {
			t.Errorf("parallel %d: %d boards built", parallel, n)
		}
	}
}

// TestSessionLiveRangesBounded: merged ranges are dropped, so a
// 200-batch shared-scheduler session never holds more live ranges than
// its lookahead, and its lease counts stay within the same bound.
func TestSessionLiveRangesBounded(t *testing.T) {
	const batches, lookahead = 200, 3
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	wake := func() {
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	}
	boards := &countingBoards{}
	s, err := NewSession(context.Background(), RAND(), smallTVCA(t),
		StreamOptions{MaxRuns: batches * 5, BatchSize: 5, BaseSeed: 2, NewBoard: boards.newBoard},
		lookahead, 0, wake)
	if err != nil {
		t.Fatal(err)
	}
	var peak atomic.Int64
	observe := func() {
		s.mu.Lock()
		n := int64(len(s.live))
		s.mu.Unlock()
		if q, r := s.LeaseCounts(); q+r > lookahead {
			t.Errorf("%d queued + %d running leases exceed %d", q, r, lookahead)
		}
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				return
			}
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ex Executor
			for {
				mu.Lock()
				l := s.TakeLease()
				for l == nil && s.ctx.Err() == nil {
					cond.Wait()
					l = s.TakeLease()
				}
				mu.Unlock()
				if l == nil {
					return
				}
				observe()
				ex.Run(l)
			}
		}()
	}
	delivered := 0
	c, err := s.Run(func(b Batch) (bool, error) {
		observe()
		delivered++
		return false, nil
	})
	wake() // release executors waiting for a lease of the ended session
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Results) != batches*5 || delivered != batches {
		t.Fatalf("%d runs in %d batches, want %d in %d", len(c.Results), delivered, batches*5, batches)
	}
	if p := peak.Load(); p > lookahead {
		t.Errorf("peak %d live ranges, want <= %d", p, lookahead)
	}
	if n := len(s.live); n != 0 {
		t.Errorf("%d live ranges after the campaign", n)
	}
}

// TestSessionSlotsGrowWithCarvedRuns: a session's result slots grow as
// leases are carved, so a campaign with the largest run budget that is
// canceled after its first batch allocates in proportion to that batch
// (slots up front for 10^7 runs took about 600 MB).
func TestSessionSlotsGrowWithCarvedRuns(t *testing.T) {
	const limit = 8 << 20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boards := &countingBoards{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := StreamCampaign(ctx, RAND(), smallTVCA(t),
		StreamOptions{MaxRuns: MaxCampaignRuns, BatchSize: 100, Parallel: 1, BaseSeed: 4, NewBoard: boards.newBoard},
		func(b Batch) (bool, error) { cancel(); return false, nil })
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled campaign returned %v, want ErrCanceled", err)
	}
	if len(c.Results) != 100 {
		t.Errorf("%d runs delivered, want the first batch's 100", len(c.Results))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("a %d-run campaign canceled after one batch allocated %d bytes, want < %d", MaxCampaignRuns, got, limit)
	}
}
