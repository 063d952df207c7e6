package platform

// Tests for the reusable multicore board: error cancellation
// mid-campaign, the run's context, co-runner recordings that span runs,
// and bit-equivalence of replayed and produced co-runners with the
// reference board across GOMAXPROCS.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
)

// stableStreamer is the test streamer plus the Reloader contract and
// the empty trace key, so the board records its block stream once and
// replays it on every later iteration and run.
type stableStreamer struct{ streamer }

func (s stableStreamer) Reload(m *isa.Machine, run int) error {
	m.Reset()
	return nil
}

func (s stableStreamer) TraceKey(dst []byte, run int) ([]byte, bool) { return dst[:0], true }

// opaqueWorkload hides a workload's Reloader/TraceKeyer identity from
// the board, so every iteration is prepared afresh and interpreted.
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
// run takes seconds fails with ErrRunTimeout, with a co-runner produced
// by its machine (an unkeyed one) and with one replayed from the
// iteration the first run recorded. ErrRunTimeout alone proves the
// cut: a run that completed would be accepted. The wall-clock bound
// only catches a board that stops long after its deadline, with room
// for a loaded host.
func TestMulticoreRunTimeoutBoundsCoRunnerCampaign(t *testing.T) {
	for _, tc := range []struct {
		co       Workload
		recorded bool
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
			t.Errorf("recorded %v: campaign error %v, want ErrRunTimeout", tc.recorded, err)
		}
		if elapsed > 2*time.Second {
			t.Errorf("recorded %v: campaign took %v; the run timeout did not stop the board", tc.recorded, elapsed)
		}
		if st := board.BoardStats(); st.ReplayRuns+st.InterpretRuns != 1 {
			t.Errorf("recorded %v: board completed %d runs before the timeout, want run 0 only",
				tc.recorded, st.ReplayRuns+st.InterpretRuns)
		}
		if board.co[1].done != tc.recorded {
			t.Errorf("co-runner replayed a recorded iteration: %v, want %v", board.co[1].done, tc.recorded)
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
// request; planning the co-runners in front of its later requests
// takes the canceling co-runner into its second iteration, where it
// cancels, and its machine's first poll sees it. A co-runner that then
// dropped out of the run silently would let the measured core finish
// against fewer co-runners with a nil error. The canceling co-runner
// runs alone, and next to a co-runner replaying the iteration the
// board's first run recorded.
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
			// Record the keyed co-runner's iteration.
			if _, err := mc.ExecuteRun(context.Background(), streamer{lines: 200}, 0, 1); err != nil {
				t.Fatal(err)
			}
			if !mc.co[1].done {
				t.Fatal("keyed co-runner recorded no whole iteration")
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
		if want := fmt.Sprintf("core %d", len(co)); !strings.Contains(err.Error(), want) {
			t.Errorf("keyed %v: run error %q does not name the cancelled co-runner (%s)", keyed, err, want)
		}
	}
}

// growingSweep is a measured streamer sweep that doubles in length
// with each run: 256 lines on run 0.
type growingSweep struct{}

func (growingSweep) Name() string { return "growing-sweep" }

func (growingSweep) Prepare(run int) (*isa.Machine, error) {
	return streamer{lines: 256 << run}.Prepare(run)
}

func (growingSweep) PathOf(*isa.Machine) string { return "" }

// TestMulticoreStableCoRunnerRecordsAcrossRuns: an empty-key co-runner
// whose first iteration (a 4M-line sweep, 16M instructions) outlasts
// the measured runs keeps the prefix each run records. The next, longer
// run replays the prefix, then resumes the paused machine past it and
// extends the recording, and every run measures what the reference
// board measures.
func TestMulticoreStableCoRunnerRecordsAcrossRuns(t *testing.T) {
	app := growingSweep{}
	co := []Workload{stableStreamer{streamer{lines: 1 << 22}}}
	mc, err := NewMulticore(RAND(), co)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefBoard(t, RAND(), co)
	words := 0
	for run := 0; run < 3; run++ {
		runBoth(t, mc, ref, app, run, DeriveRunSeed(3, run))
		cs := &mc.co[1]
		n := 0
		for _, w := range cs.src.chunks {
			n += len(w)
		}
		if cs.done || cs.m == nil {
			t.Fatalf("run %d: the 4M-line sweep's recording is whole (%v) or its machine gone (%v)", run, cs.done, cs.m == nil)
		}
		if n <= words {
			t.Fatalf("run %d: recording holds %d words after %d before it, want it extended", run, n, words)
		}
		words = n
	}
}

// TestMulticoreDeterministicAcrossGOMAXPROCS pins scheduler
// independence: the reference board's arbiter must produce the board's
// measurements whether its co-runner goroutines are serialized on one P
// or genuinely parallel. The co-runners are unkeyed, so the board
// produces them from their machines on every run.
func TestMulticoreDeterministicAcrossGOMAXPROCS(t *testing.T) {
	app := tinyTVCA(t)
	co := []Workload{streamer{lines: 256}, streamer{lines: 512}}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		mc, err := NewMulticore(RAND(), co)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefBoard(t, RAND(), co)
		for i := 0; i < 6; i++ {
			runBoth(t, mc, ref, app, i, DeriveRunSeed(21, i))
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestMulticoreReplayMatchesInterpretation is the replay-equivalence
// gate for the decode-once optimization: the same co-runners run with
// their empty trace key visible (recorded, then replayed), hidden behind
// a wrapper (produced by their machines every iteration) and on the
// reference board must give bit-identical measurements on every run.
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
	ref := newRefBoard(t, RAND(), []Workload{streamer{lines: 256}, streamer{lines: 512}})
	const runs = 16
	for i := 0; i < runs; i++ {
		rs := runBoth(t, stable, ref, app, i, DeriveRunSeed(5, i))
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
	// stable board also replays the measured core while the opaque board
	// still interprets it.
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
