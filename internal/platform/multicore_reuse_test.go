package platform

// Tests for the reusable multicore board: error cancellation
// mid-campaign, scheduler-independence of the arbiter, and
// bit-equivalence of the interpreted and replayed execution modes.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
)

// stableStreamer is the test streamer plus the Reloader contract and
// the empty trace key, so the board records its event stream once and replays it
// on every later iteration and run.
type stableStreamer struct{ streamer }

func (s stableStreamer) Reload(m *isa.Machine, run int) error {
	m.Reset()
	return nil
}

func (s stableStreamer) TraceKey(dst []byte, run int) ([]byte, bool) { return dst[:0], true }

// opaqueWorkload hides a workload's Reloader/TraceKeyer identity from
// the board, forcing full interpretation of every iteration.
type opaqueWorkload struct{ w Workload }

func (o opaqueWorkload) Name() string                          { return o.w.Name() }
func (o opaqueWorkload) Prepare(run int) (*isa.Machine, error) { return o.w.Prepare(run) }
func (o opaqueWorkload) PathOf(m *isa.Machine) string          { return o.w.PathOf(m) }

// midFailWorkload runs a short streamer sweep, then fails Prepare on
// iteration failAt — a co-runner dying in the middle of a campaign,
// not on the first machine build.
type midFailWorkload struct {
	failAt int
}

var errMidFail = errors.New("co-runner died mid-campaign")

func (midFailWorkload) Name() string { return "mid-fail" }

func (w midFailWorkload) Prepare(iter int) (*isa.Machine, error) {
	if iter >= w.failAt {
		return nil, errMidFail
	}
	return streamer{lines: 64}.Prepare(iter)
}

func (midFailWorkload) PathOf(*isa.Machine) string { return "" }

// TestMulticoreCoRunnerMidCampaignFailureCancelsRun pins the fixed
// error-propagation contract: a co-runner that fails after completing
// earlier iterations must raise stop, cancel the (much longer-running)
// measured core, and surface as the run's root-cause error. Before the
// fix a mid-campaign failure left the measured core running to
// completion and could be masked entirely.
func TestMulticoreCoRunnerMidCampaignFailureCancelsRun(t *testing.T) {
	mc, err := NewMulticore(RAND(), []Workload{midFailWorkload{failAt: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// The measured sweep is ~100x longer than one co-runner iteration:
	// without cancellation the run would only fail after the measured
	// core finished naturally.
	start := time.Now()
	_, err = mc.ExecuteRun(context.Background(), streamer{lines: 1 << 17}, 0, 1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("mid-campaign co-runner failure did not fail the run")
	}
	if !errors.Is(err, errMidFail) {
		t.Errorf("run error %v does not wrap the co-runner failure", err)
	}
	if !strings.Contains(err.Error(), "core 1") {
		t.Errorf("run error %q does not name the failing core", err)
	}
	if strings.Contains(err.Error(), "core 0") {
		t.Errorf("cancelled measured core reported as root cause: %q", err)
	}
	// Cancellation is polled every few thousand instructions; seconds
	// would mean the measured core ran to completion.
	if elapsed > 30*time.Second {
		t.Errorf("run took %v; cancellation did not interrupt the measured core", elapsed)
	}
}

// longRun is a measured workload whose run 0 is a short sweep and
// every later run a sweep of seconds.
type longRun struct{}

func (longRun) Name() string { return "long-run" }

func (longRun) Prepare(run int) (*isa.Machine, error) {
	lines := int32(256)
	if run > 0 {
		lines = 1 << 22
	}
	return streamer{lines: lines}.Prepare(run)
}

func (longRun) PathOf(*isa.Machine) string { return "" }

// TestMulticoreRunTimeoutBoundsCoRunnerCampaign pins that a run's
// context reaches the board mid-run: a co-runner campaign whose second
// run takes seconds (about 3 s inline and 10 s in goroutine mode on a
// 2-vCPU x86-64 host) fails with ErrRunTimeout, in goroutine mode (an
// unkeyed co-runner) and in inline mode (a co-runner replayed from the
// trace the first run recorded). ErrRunTimeout alone proves the cut:
// a run that completed would be accepted. The wall-clock bound only
// catches a board that stops long after its deadline, with room for a
// loaded host.
func TestMulticoreRunTimeoutBoundsCoRunnerCampaign(t *testing.T) {
	for _, tc := range []struct {
		co     Workload
		inline bool
	}{
		{stableStreamer{streamer{lines: 64}}, true},
		{opaqueWorkload{stableStreamer{streamer{lines: 64}}}, false},
	} {
		var board *Multicore
		start := time.Now()
		_, err := StreamCampaign(context.Background(), RAND(), longRun{}, StreamOptions{
			MaxRuns: 2, BatchSize: 2, Parallel: 1, BaseSeed: 1,
			RunTimeout: 250 * time.Millisecond,
			Supervise:  SupervisionPolicy{MaxRestarts: -1},
			NewBoard: func() (Board, error) {
				mc, err := NewMulticore(RAND(), []Workload{tc.co})
				board = mc
				return mc, err
			},
		}, nil)
		elapsed := time.Since(start)
		if !errors.Is(err, ErrRunTimeout) {
			t.Errorf("inline %v: campaign error %v, want ErrRunTimeout", tc.inline, err)
		}
		if elapsed > 2*time.Second {
			t.Errorf("inline %v: campaign took %v; the run timeout did not stop the board", tc.inline, elapsed)
		}
		if st := board.BoardStats(); st.ReplayRuns+st.InterpretRuns != 1 {
			t.Errorf("inline %v: board completed %d runs before the timeout, want run 0 only",
				tc.inline, st.ReplayRuns+st.InterpretRuns)
		}
		if board.inline != tc.inline {
			t.Errorf("timed-out run took inline mode %v, want %v", board.inline, tc.inline)
		}
	}
}

// cancelingStreamer is a short streamer co-runner that calls *cancel,
// once set, when it prepares its second iteration, so its own
// machine's first poll sees the cancellation.
type cancelingStreamer struct{ cancel *context.CancelFunc }

func (cancelingStreamer) Name() string { return "canceling-streamer" }

func (w cancelingStreamer) Prepare(iter int) (*isa.Machine, error) {
	if iter > 0 && *w.cancel != nil {
		(*w.cancel)()
	}
	return streamer{lines: 8}.Prepare(iter)
}

func (cancelingStreamer) PathOf(*isa.Machine) string { return "" }

// TestMulticoreCoRunnerCancelFailsRun pins that a co-runner cancelled by
// the run's context fails the run. The measured sweep is under 1024
// instructions, so it polls the context only before its first bus
// request; its later requests are granted only once the co-runners have
// run past them, which takes the canceling co-runner into its second
// iteration, where it cancels. A co-runner that then left the run
// silently would let the measured core finish against fewer co-runners
// with a nil error. The canceling co-runner runs alone, and next to a
// keyed co-runner that replays the trace the board's first run
// recorded in goroutine mode, where replay polls the context like
// interpretation does.
func TestMulticoreCoRunnerCancelFailsRun(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		var cancel context.CancelFunc
		co := []Workload{cancelingStreamer{&cancel}}
		if keyed {
			co = []Workload{stableStreamer{streamer{lines: 8}}, co[0]}
		}
		mc, err := NewMulticore(RAND(), co)
		if err != nil {
			t.Fatal(err)
		}
		run := 0
		if keyed {
			// Record the keyed co-runner's trace.
			if _, err := mc.ExecuteRun(context.Background(), streamer{lines: 200}, 0, 1); err != nil {
				t.Fatal(err)
			}
			if mc.co[1].trace == nil {
				t.Fatal("keyed co-runner recorded no trace")
			}
			run = 1
		}
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		r, err := mc.ExecuteRun(ctx, streamer{lines: 200}, run, 1)
		cancel()
		if !errors.Is(err, isa.ErrCancelled) {
			t.Fatalf("keyed %v: run with a cancelled co-runner returned (%+v, %v), want an error wrapping ErrCancelled", keyed, r, err)
		}
		if mc.inline {
			t.Errorf("keyed %v: run took inline mode, want goroutine mode", keyed)
		}
		if !keyed && !strings.Contains(err.Error(), "core 1") {
			t.Errorf("run error %q does not name the cancelled co-runner", err)
		}
	}
}

// TestMulticoreReplayingCoRunnerPollsContext pins that a co-runner
// replaying its trace in goroutine mode, stopped by the run's context
// before stop is raised, records the cancellation and raises stop, as
// an interpreted co-runner does. The co-runner runs alone on the board
// (the other cores are marked finished), so its requests are granted
// at once; a replay that ignored the context would replay until stop.
func TestMulticoreReplayingCoRunnerPollsContext(t *testing.T) {
	mc, err := NewMulticore(RAND(), []Workload{stableStreamer{streamer{lines: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.ExecuteRun(context.Background(), streamer{lines: 200}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if mc.co[1].trace == nil {
		t.Fatal("keyed co-runner recorded no trace")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mc.prepareRun(2)
	mc.states[0].alive = false
	mc.runCtx = ctx
	mc.wg.Add(1)
	done := make(chan struct{})
	go func() {
		mc.runCoRunner(1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mc.stop.Store(true)
		<-done
		t.Fatal("replaying co-runner ignored the run's context")
	}
	mc.runCtx = nil
	if !errors.Is(mc.errs[1], isa.ErrCancelled) || !mc.stop.Load() {
		t.Errorf("replaying co-runner stopped by the context: error %v, stop %v; want ErrCancelled and stop raised",
			mc.errs[1], mc.stop.Load())
	}
}

// TestMulticoreDeterministicAcrossGOMAXPROCS pins scheduler
// independence: the goroutine-mode arbiter must produce identical
// measurements whether the co-runner goroutines are serialized on one
// P or genuinely parallel. Non-stable co-runners force goroutine mode
// on every run.
func TestMulticoreDeterministicAcrossGOMAXPROCS(t *testing.T) {
	app := tinyTVCA(t)
	co := func() []Workload {
		return []Workload{streamer{lines: 256}, streamer{lines: 512}}
	}
	runBoard := func(procs int) []uint64 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		mc, err := NewMulticore(RAND(), co())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, 6)
		for i := range out {
			r, err := mc.ExecuteRun(context.Background(), app, i, DeriveRunSeed(21, i))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = r.Cycles
		}
		return out
	}
	serial := runBoard(1)
	parallel := runBoard(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("run %d: GOMAXPROCS=1 gives %d cycles, GOMAXPROCS=4 gives %d",
				i, serial[i], parallel[i])
		}
	}
}

// TestMulticoreReplayMatchesInterpretation is the replay-equivalence
// gate for the decode-once optimization: the same co-runner run once
// with its empty trace key visible (recorded, then replayed — the
// inline plan-and-merge path) and once hidden behind a wrapper (interpreted
// every iteration in goroutine mode) must give bit-identical
// measurements on every run.
func TestMulticoreReplayMatchesInterpretation(t *testing.T) {
	app := tinyTVCA(t)
	stable, err := NewMulticore(RAND(), []Workload{
		stableStreamer{streamer{lines: 256}},
		stableStreamer{streamer{lines: 512}},
	})
	if err != nil {
		t.Fatal(err)
	}
	opaque, err := NewMulticore(RAND(), []Workload{
		opaqueWorkload{stableStreamer{streamer{lines: 256}}},
		opaqueWorkload{stableStreamer{streamer{lines: 512}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 16
	for i := 0; i < runs; i++ {
		rs, err := stable.ExecuteRun(context.Background(), app, i, DeriveRunSeed(5, i))
		if err != nil {
			t.Fatal(err)
		}
		ro, err := opaque.ExecuteRun(context.Background(), app, i, DeriveRunSeed(5, i))
		if err != nil {
			t.Fatal(err)
		}
		if rs != ro {
			t.Errorf("run %d: replayed board measured %+v, interpreted board %+v",
				i, rs, ro)
		}
	}
	// Same comparison with a run-invariant measured workload, so the
	// stable board also replays the measured core (the fully-inline,
	// zero-goroutine path) while the opaque board still interprets.
	mw := stableStreamer{streamer{lines: 2048}}
	for i := 0; i < 4; i++ {
		rs, err := stable.ExecuteRun(context.Background(), mw, i, DeriveRunSeed(11, i))
		if err != nil {
			t.Fatal(err)
		}
		ro, err := opaque.ExecuteRun(context.Background(), opaqueWorkload{mw}, i, DeriveRunSeed(11, i))
		if err != nil {
			t.Fatal(err)
		}
		if rs != ro {
			t.Errorf("stable measured run %d: replayed board %+v, interpreted board %+v",
				i, rs, ro)
		}
	}
	// Both boards must actually have taken the modes the test names.
	if got := stable.BoardStats().ReplayRuns; got == 0 {
		t.Error("stable board never took the measured-replay path")
	}
	if got := opaque.BoardStats().ReplayRuns; got != 0 {
		t.Errorf("opaque board took the measured-replay path %d times", got)
	}
}
