package platform

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/telemetry"
)

// panickyWorkload panics in Prepare the first `times` attempts of each
// run index listed in panicky — exercising the supervision path with a
// failure that later attempts recover from (or never do, for times<0).
type panickyWorkload struct {
	panicky  map[int]int // run -> remaining panics (-1 = always)
	mu       *sync.Mutex
	attempts *atomic.Int64
}

func newPanickyWorkload(runs map[int]int) *panickyWorkload {
	return &panickyWorkload{panicky: runs, mu: &sync.Mutex{}, attempts: &atomic.Int64{}}
}

func (p *panickyWorkload) Name() string { return "panicky" }
func (p *panickyWorkload) Prepare(run int) (*isa.Machine, error) {
	p.attempts.Add(1)
	p.mu.Lock()
	left, hit := p.panicky[run]
	if hit && left > 0 {
		p.panicky[run] = left - 1
	}
	p.mu.Unlock()
	if hit && left != 0 {
		panic("injected worker panic")
	}
	b := isa.NewBuilder("panicky", 0)
	b.Li(1, int32(run)).Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return isa.NewMachine(prog, isa.NewMemory()), nil
}
func (p *panickyWorkload) PathOf(*isa.Machine) string { return "" }

// TestSupervisionRecoversPanickingWorker: a panic on the first attempt
// of two runs is absorbed by a worker restart; the re-queued runs keep
// their seeds, so the measured series is bit-identical to a campaign
// that never panicked.
func TestSupervisionRecoversPanickingWorker(t *testing.T) {
	const runs = 20
	opts := StreamOptions{MaxRuns: runs, BatchSize: 10, Parallel: 2, BaseSeed: 5,
		Supervise: SupervisionPolicy{Backoff: time.Microsecond}}

	clean := newPanickyWorkload(nil)
	ref, err := StreamCampaign(context.Background(), DET(), clean, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	flaky := newPanickyWorkload(map[int]int{3: 1, 11: 1})
	o := opts
	o.Telemetry = reg
	got, err := StreamCampaign(context.Background(), DET(), flaky, o, nil)
	if err != nil {
		t.Fatalf("supervised campaign failed: %v", err)
	}
	if len(got.Results) != runs {
		t.Fatalf("supervised campaign has %d runs, want %d", len(got.Results), runs)
	}
	for i := range ref.Results {
		if got.Results[i] != ref.Results[i] {
			t.Fatalf("run %d differs after supervised restart: %+v vs %+v", i, got.Results[i], ref.Results[i])
		}
	}
	if n := reg.Counter("worker_restarts_total").Value(); n != 2 {
		t.Errorf("worker_restarts_total = %d, want 2", n)
	}
	if v := reg.Snapshot()["campaign_degraded"]; v != 0 {
		t.Errorf("campaign_degraded = %v on a recovered campaign", v)
	}
}

// TestSupervisionDegrades: a worker that panics on every attempt must
// terminate the campaign with ErrDegraded and a valid partial sample —
// not hang and not crash the process.
func TestSupervisionDegrades(t *testing.T) {
	reg := telemetry.New()
	always := newPanickyWorkload(map[int]int{5: -1})
	res, err := StreamCampaign(context.Background(), DET(), always,
		StreamOptions{MaxRuns: 40, BatchSize: 10, Parallel: 2, BaseSeed: 5,
			Supervise: SupervisionPolicy{MaxRestarts: 3, Backoff: time.Microsecond},
			Telemetry: reg}, nil)
	if err == nil {
		t.Fatal("always-panicking campaign returned nil error")
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("errors.Is(err, ErrDegraded) = false: %v", err)
	}
	if !errors.Is(err, ErrWorkerPanic) {
		t.Errorf("degraded error does not wrap the panic cause: %v", err)
	}
	if res == nil {
		t.Fatal("degraded campaign returned no partial result")
	}
	// The partial sample is the contiguous prefix before the doomed run.
	if len(res.Results) > 5 {
		t.Errorf("partial sample has %d runs; run 5 never succeeded", len(res.Results))
	}
	clean := newPanickyWorkload(nil)
	ref, _ := StreamCampaign(context.Background(), DET(), clean,
		StreamOptions{MaxRuns: 40, BatchSize: 10, Parallel: 2, BaseSeed: 5}, nil)
	for i := range res.Results {
		if res.Results[i] != ref.Results[i] {
			t.Errorf("partial run %d differs from the clean series", i)
		}
	}
	// Other workers draining the batch reset the consecutive counter, so
	// the total may exceed the budget; it must at least have been spent.
	if n := reg.Counter("worker_restarts_total").Value(); n < 3 {
		t.Errorf("worker_restarts_total = %d, want >= 3", n)
	}
	if v := reg.Snapshot()["campaign_degraded"]; v != 1 {
		t.Errorf("campaign_degraded = %v, want 1", v)
	}
}

// TestSupervisionDisabled: MaxRestarts < 0 turns a panic into an
// ordinary fatal campaign error.
func TestSupervisionDisabled(t *testing.T) {
	always := newPanickyWorkload(map[int]int{2: -1})
	_, err := StreamCampaign(context.Background(), DET(), always,
		StreamOptions{MaxRuns: 10, BatchSize: 10, Parallel: 2, BaseSeed: 5,
			Supervise: SupervisionPolicy{MaxRestarts: -1}}, nil)
	if err == nil {
		t.Fatal("panic with disabled supervision returned nil error")
	}
	if errors.Is(err, ErrDegraded) {
		t.Errorf("disabled supervision still degraded: %v", err)
	}
	if !errors.Is(err, ErrWorkerPanic) {
		t.Errorf("error does not carry the panic: %v", err)
	}
}

// memJournal records the engine's journal protocol for inspection.
type memJournal struct {
	runs     []int
	seeds    []uint64
	results  []RunResult
	barriers []int // delivered run count at each Barrier
	flushes  int
	failLog  bool
}

func (j *memJournal) LogRun(run int, seed uint64, r RunResult) error {
	if j.failLog {
		return errors.New("journal log failure")
	}
	j.runs = append(j.runs, run)
	j.seeds = append(j.seeds, seed)
	j.results = append(j.results, r)
	return nil
}
func (j *memJournal) Barrier(b Batch) error {
	j.barriers = append(j.barriers, b.Start+len(b.Results))
	return nil
}
func (j *memJournal) Flush() error {
	j.flushes++
	return nil
}

// TestJournalProtocol: every run is logged exactly once, in run order,
// with its derived seed, and Barrier follows each delivered batch.
func TestJournalProtocol(t *testing.T) {
	app := smallTVCA(t)
	j := &memJournal{}
	c, err := StreamCampaign(context.Background(), RAND(), app,
		StreamOptions{MaxRuns: 23, BatchSize: 10, Parallel: 4, BaseSeed: 9, Journal: j}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.runs) != 23 {
		t.Fatalf("journal logged %d runs, want 23", len(j.runs))
	}
	for i, run := range j.runs {
		if run != i {
			t.Fatalf("journal entry %d is run %d (out of order)", i, run)
		}
		if j.seeds[i] != DeriveRunSeed(9, i) {
			t.Errorf("run %d journaled with wrong seed", i)
		}
		if j.results[i] != c.Results[i] {
			t.Errorf("run %d journaled result differs from campaign result", i)
		}
	}
	want := []int{10, 20, 23}
	if len(j.barriers) != len(want) {
		t.Fatalf("barriers = %v, want %v", j.barriers, want)
	}
	for i := range want {
		if j.barriers[i] != want[i] {
			t.Fatalf("barriers = %v, want %v", j.barriers, want)
		}
	}
	if j.flushes != 0 {
		t.Errorf("clean campaign flushed %d times", j.flushes)
	}
}

// TestCancelFlushesCompletedRuns: cancellation mid-batch journals the
// contiguous completed prefix (no checkpoint barrier) and returns it as
// a partial result, so the journal length always matches the reported
// progress.
func TestCancelFlushesCompletedRuns(t *testing.T) {
	app := smallTVCA(t)
	j := &memJournal{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	runner := func(ctx context.Context, p *Platform, w Workload, run int, seed uint64) (RunResult, error) {
		r, err := p.ExecuteRun(ctx, w, run, seed)
		if executed.Add(1) == 7 {
			cancel() // cancel mid-batch, after the 7th completed run
		}
		return r, err
	}
	res, err := StreamCampaign(ctx, RAND(), app,
		StreamOptions{MaxRuns: 1000, BatchSize: 100, Parallel: 4, BaseSeed: 2,
			NewBoard: hookedBoards(runner), Journal: j}, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("canceled campaign returned no partial result")
	}
	if len(res.Results) != len(j.runs) {
		t.Fatalf("partial result has %d runs but journal has %d", len(res.Results), len(j.runs))
	}
	for i, run := range j.runs {
		if run != i {
			t.Fatalf("journal entry %d is run %d", i, run)
		}
	}
	if j.flushes != 1 {
		t.Errorf("cancellation flushed %d times, want 1", j.flushes)
	}
	if len(j.barriers) != 0 {
		t.Errorf("canceled first batch still hit %d barriers", len(j.barriers))
	}
}

// TestResumeSkipsExecutedRuns: a resumed campaign re-executes only the
// missing seeds, re-delivers no batch the sink already observed, and
// reproduces the uninterrupted series bit-identically.
func TestResumeSkipsExecutedRuns(t *testing.T) {
	app := smallTVCA(t)
	base := StreamOptions{MaxRuns: 30, BatchSize: 10, Parallel: 3, BaseSeed: 4}
	ref, err := StreamCampaign(context.Background(), RAND(), app, base, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Crash fiction: one delivered batch (10 runs) plus a flushed tail of
	// 3 runs from the canceled second batch.
	var firstRun atomic.Int64
	firstRun.Store(1 << 30)
	o := base
	o.Resume = &ResumeState{StartBatch: 1, Delivered: 10, Prefix: append([]RunResult(nil), ref.Results[:13]...)}
	o.NewBoard = hookedBoards(func(ctx context.Context, p *Platform, w Workload, run int, seed uint64) (RunResult, error) {
		for {
			cur := firstRun.Load()
			if int64(run) >= cur || firstRun.CompareAndSwap(cur, int64(run)) {
				break
			}
		}
		return p.ExecuteRun(ctx, w, run, seed)
	})
	var batches []Batch
	reg := telemetry.New()
	o.Telemetry = reg
	got, err := StreamCampaign(context.Background(), RAND(), app, o,
		func(b Batch) (bool, error) { batches = append(batches, b); return false, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 30 {
		t.Fatalf("resumed campaign has %d runs", len(got.Results))
	}
	for i := range ref.Results {
		if got.Results[i] != ref.Results[i] {
			t.Fatalf("run %d differs after resume", i)
		}
	}
	if lowest := firstRun.Load(); lowest != 13 {
		t.Errorf("lowest re-executed run = %d, want 13 (skip already-journaled seeds)", lowest)
	}
	if len(batches) != 2 || batches[0].Index != 1 || batches[0].Start != 10 || batches[1].Index != 2 {
		t.Fatalf("resumed sink saw wrong batches: %+v", batches)
	}
	if n := reg.Counter("campaign_resumes_total").Value(); n != 1 {
		t.Errorf("campaign_resumes_total = %d, want 1", n)
	}
}

// TestResumeValidation rejects inconsistent resume states.
func TestResumeValidation(t *testing.T) {
	app := smallTVCA(t)
	bad := []ResumeState{
		{StartBatch: 0, Delivered: 40, Prefix: make([]RunResult, 40)}, // delivered > budget
		{StartBatch: 1, Delivered: 5, Prefix: make([]RunResult, 5)},   // delivered not on a barrier
		{StartBatch: 1, Delivered: 10, Prefix: make([]RunResult, 25)}, // tail longer than a batch
		{StartBatch: 0, Delivered: 10, Prefix: make([]RunResult, 5)},  // prefix shorter than delivered
	}
	for i, rs := range bad {
		rs := rs
		o := StreamOptions{MaxRuns: 30, BatchSize: 10, BaseSeed: 1, Resume: &rs}
		if _, err := StreamCampaign(context.Background(), RAND(), app, o, nil); err == nil {
			t.Errorf("bad resume state %d accepted", i)
		}
	}
}

// TestJournalErrorAbortsCampaign: a failing journal is a campaign
// failure, not silent data loss.
func TestJournalErrorAbortsCampaign(t *testing.T) {
	app := smallTVCA(t)
	j := &memJournal{failLog: true}
	_, err := StreamCampaign(context.Background(), RAND(), app,
		StreamOptions{MaxRuns: 10, BatchSize: 5, BaseSeed: 1, Journal: j}, nil)
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("journal failure surfaced as %v", err)
	}
}
