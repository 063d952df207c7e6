package fabric

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/telemetry"
)

// panickyBoards is a NewBoard factory of RAND boards that panic on the
// first attempts of the listed runs (run -> panics left, -1 = always),
// the pool-side twin of the platform supervision tests' workload.
type panickyBoards struct {
	mu    sync.Mutex
	left  map[int]int
	calls map[int]int
}

func newPanickyBoards(runs map[int]int) *panickyBoards {
	return &panickyBoards{left: runs, calls: make(map[int]int)}
}

type panickyBoard struct {
	*platform.Platform
	f *panickyBoards
}

func (b panickyBoard) ExecuteRun(ctx context.Context, w platform.Workload, run int, seed uint64) (platform.RunResult, error) {
	b.f.mu.Lock()
	b.f.calls[run]++
	left, hit := b.f.left[run]
	if hit && left > 0 {
		b.f.left[run] = left - 1
	}
	b.f.mu.Unlock()
	if hit && left != 0 {
		panic("injected executor panic")
	}
	return b.Platform.ExecuteRun(ctx, w, run, seed)
}

func (f *panickyBoards) newBoard() (platform.Board, error) {
	p, err := platform.New(platform.RAND())
	if err != nil {
		return nil, err
	}
	return panickyBoard{p, f}, nil
}

// TestPoolSupervisionRecovers: a panic on the first attempt of two runs
// restarts the executor on a fresh board and re-leases the runs under
// their seeds; the series equals the local reference.
func TestPoolSupervisionRecovers(t *testing.T) {
	w := testWorkload(t)
	ref := reference(t, w, 20, 10, 5)
	pool := NewPool(Config{Executors: 2})
	defer pool.Close()

	reg := telemetry.New()
	boards := newPanickyBoards(map[int]int{3: 1, 11: 1})
	got, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 20, BatchSize: 10, BaseSeed: 5, NewBoard: boards.newBoard,
			Supervise: platform.SupervisionPolicy{Backoff: time.Microsecond}, Telemetry: reg}, nil)
	if err != nil {
		t.Fatalf("supervised pool campaign failed: %v", err)
	}
	assertSameResults(t, ref, got)
	if n := reg.Counter("worker_restarts_total").Value(); n != 2 {
		t.Errorf("worker_restarts_total = %d, want 2", n)
	}
	if v := reg.Snapshot()["campaign_degraded"]; v != 0 {
		t.Errorf("campaign_degraded = %v on a recovered campaign", v)
	}
}

// TestPoolSupervisionDegrades: a run that panics on every attempt spends
// the restart budget; the pool campaign ends with ErrDegraded and the
// clean prefix before that run, journaled and flushed.
func TestPoolSupervisionDegrades(t *testing.T) {
	w := testWorkload(t)
	ref := reference(t, w, 40, 10, 5)
	pool := NewPool(Config{Executors: 2})
	defer pool.Close()

	reg := telemetry.New()
	j := &recordingJournal{}
	boards := newPanickyBoards(map[int]int{5: -1})
	res, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 40, BatchSize: 10, BaseSeed: 5, NewBoard: boards.newBoard,
			Supervise: platform.SupervisionPolicy{MaxRestarts: 3, Backoff: time.Microsecond},
			Journal:   j, Telemetry: reg}, nil)
	if !errors.Is(err, platform.ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	if !errors.Is(err, platform.ErrWorkerPanic) {
		t.Errorf("degraded error does not wrap the panic cause: %v", err)
	}
	if res == nil || len(res.Results) != 5 {
		t.Fatalf("partial result %v, want the 5 runs before run 5", res)
	}
	for i, r := range res.Results {
		if r != ref.Results[i] {
			t.Errorf("partial run %d differs from the reference", i)
		}
	}
	if len(j.log) != 6 || j.log[5] != "flush" {
		t.Errorf("journal ops %q, want 5 runs and a flush", j.log)
	}
	if n := reg.Counter("worker_restarts_total").Value(); n < 3 {
		t.Errorf("worker_restarts_total = %d, want >= 3", n)
	}
	if v := reg.Snapshot()["campaign_degraded"]; v != 1 {
		t.Errorf("campaign_degraded = %v, want 1", v)
	}
}

// TestPoolSupervisionDisabled: MaxRestarts < 0 turns a panic into an
// ordinary campaign failure on the pool too.
func TestPoolSupervisionDisabled(t *testing.T) {
	w := testWorkload(t)
	pool := NewPool(Config{Executors: 2})
	defer pool.Close()
	boards := newPanickyBoards(map[int]int{2: -1})
	_, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 10, BatchSize: 10, BaseSeed: 5, NewBoard: boards.newBoard,
			Supervise: platform.SupervisionPolicy{MaxRestarts: -1}}, nil)
	if err == nil {
		t.Fatal("panic with disabled supervision returned nil error")
	}
	if errors.Is(err, platform.ErrDegraded) {
		t.Errorf("disabled supervision still degraded: %v", err)
	}
	if !errors.Is(err, platform.ErrWorkerPanic) {
		t.Errorf("error does not carry the panic: %v", err)
	}
}

// errBoard fails one run with a plain error.
type errBoard struct {
	*platform.Platform
	fail  int
	calls *atomic.Int64
}

func (b errBoard) ExecuteRun(ctx context.Context, w platform.Workload, run int, seed uint64) (platform.RunResult, error) {
	if run == b.fail {
		b.calls.Add(1)
		return platform.RunResult{}, errors.New("boom at run 7")
	}
	return b.Platform.ExecuteRun(ctx, w, run, seed)
}

// TestPoolRunErrorFailsCampaign: an in-process run error that is not a
// supervision matter fails a pool campaign at once, as it fails a local
// one — the run is not re-leased.
func TestPoolRunErrorFailsCampaign(t *testing.T) {
	w := testWorkload(t)
	pool := NewPool(Config{Executors: 2})
	defer pool.Close()
	var calls atomic.Int64
	newBoard := func() (platform.Board, error) {
		p, err := platform.New(platform.RAND())
		return errBoard{p, 7, &calls}, err
	}
	_, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 40, BatchSize: 10, BaseSeed: 5, NewBoard: newBoard}, nil)
	if err == nil || !strings.Contains(err.Error(), "boom at run 7") {
		t.Fatalf("err = %v, want the run error", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("run 7 attempted %d times, want 1", n)
	}
}

// teleRun runs a telemetry-enabled crc32 campaign through run and
// returns the registry snapshot and the JSON-lines event stream.
func teleRun(t *testing.T, run func(platform.StreamOptions) (*platform.CampaignResult, error)) (map[string]float64, []byte) {
	t.Helper()
	reg := telemetry.New()
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	reg.Attach(sink)
	if _, err := run(platform.StreamOptions{MaxRuns: 40, BatchSize: 10, BaseSeed: 3, Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot(), buf.Bytes()
}

// placementDependent reports the instruments exempt from the placement
// invariance contract (DESIGN.md §11): wall-clock readings, retry
// tallies, and the replay/interpret split of a keyed workload,
// which depends on how many boards recorded a trace.
func placementDependent(name string) bool {
	return name == "campaign_runs_per_sec" ||
		strings.HasPrefix(name, "campaign_batch_seconds") ||
		name == "campaign_run_retries_total" ||
		name == "campaign_run_timeouts_total" ||
		name == "sim_replay_runs_total" ||
		name == "sim_interpret_runs_total"
}

// TestPoolTelemetryMatchesLocal: local campaigns at Parallel 1 and 4 and
// a 2-executor pool campaign export the same instruments with the same
// deterministic values, simulator counters included, and byte-identical
// event streams.
func TestPoolTelemetryMatchesLocal(t *testing.T) {
	w := testWorkload(t)
	local := func(parallel int) func(platform.StreamOptions) (*platform.CampaignResult, error) {
		return func(o platform.StreamOptions) (*platform.CampaignResult, error) {
			o.Parallel = parallel
			return platform.StreamCampaign(context.Background(), platform.RAND(), w, o, nil)
		}
	}
	pool := NewPool(Config{Executors: 2})
	defer pool.Close()

	ref, refEvents := teleRun(t, local(1))
	for _, name := range []string{"sim_il1_hits_total", "sim_dl1_hits_total", "sim_itlb_hits_total", "sim_ipc", "campaign_batch_seconds_count"} {
		if ref[name] <= 0 {
			t.Errorf("reference %s = %v, want > 0", name, ref[name])
		}
	}
	modes := map[string]func(platform.StreamOptions) (*platform.CampaignResult, error){
		"local-4": local(4),
		"pool-2": func(o platform.StreamOptions) (*platform.CampaignResult, error) {
			return pool.StreamCampaign(context.Background(), platform.RAND(), w, o, nil)
		},
	}
	for mode, run := range modes {
		snap, events := teleRun(t, run)
		if len(snap) != len(ref) {
			t.Errorf("%s: %d instruments, local Parallel 1 has %d", mode, len(snap), len(ref))
		}
		for name, v := range ref {
			got, ok := snap[name]
			if !ok {
				t.Errorf("%s: instrument %s missing", mode, name)
			} else if !placementDependent(name) && got != v {
				t.Errorf("%s: %s = %v, local Parallel 1 %v", mode, name, got, v)
			}
		}
		if !bytes.Equal(events, refEvents) {
			t.Errorf("%s: event stream differs from local Parallel 1", mode)
		}
	}
}

// TestPoolResumeSkipsJournaledRuns: a pool campaign resumed from one
// delivered batch plus a flushed 3-run tail delivers only the remaining
// batches, re-executes none of the 13 journaled runs on its in-process
// executors, and reproduces the uninterrupted series.
func TestPoolResumeSkipsJournaledRuns(t *testing.T) {
	w := testWorkload(t)
	ref := reference(t, w, 30, 10, 4)
	pool := NewPool(Config{Executors: 2})
	defer pool.Close()

	boards := newPanickyBoards(nil)
	var batches []int
	got, err := pool.StreamCampaign(context.Background(), platform.RAND(), w,
		platform.StreamOptions{MaxRuns: 30, BatchSize: 10, BaseSeed: 4, NewBoard: boards.newBoard,
			Resume: &platform.ResumeState{StartBatch: 1, Delivered: 10, Prefix: append([]platform.RunResult(nil), ref.Results[:13]...)}},
		func(b platform.Batch) (bool, error) {
			batches = append(batches, b.Index)
			return false, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, ref, got)
	if len(batches) != 2 || batches[0] != 1 || batches[1] != 2 {
		t.Errorf("resumed sink saw batches %v, want [1 2]", batches)
	}
	for run := range boards.calls {
		if run < 13 {
			t.Errorf("journaled run %d re-executed", run)
		}
	}
	if len(boards.calls) != 17 {
		t.Errorf("%d runs executed, want 17", len(boards.calls))
	}
}
