package platform

// Tests for the reusable multicore board: error cancellation
// mid-campaign, scheduler-independence of the arbiter, and
// bit-equivalence of the interpreted and replayed execution modes.

import (
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
	_, err = mc.Run(streamer{lines: 1 << 17}, 0, 1)
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
			r, err := mc.Run(app, i, DeriveRunSeed(21, i))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = r.Measured.Cycles
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
		rs, err := stable.Run(app, i, DeriveRunSeed(5, i))
		if err != nil {
			t.Fatal(err)
		}
		ro, err := opaque.Run(app, i, DeriveRunSeed(5, i))
		if err != nil {
			t.Fatal(err)
		}
		if rs.Measured != ro.Measured {
			t.Errorf("run %d: replayed board measured %+v, interpreted board %+v",
				i, rs.Measured, ro.Measured)
		}
	}
	// Same comparison with a run-invariant measured workload, so the
	// stable board also replays the measured core (the fully-inline,
	// zero-goroutine path) while the opaque board still interprets.
	mw := stableStreamer{streamer{lines: 2048}}
	for i := 0; i < 4; i++ {
		rs, err := stable.Run(mw, i, DeriveRunSeed(11, i))
		if err != nil {
			t.Fatal(err)
		}
		ro, err := opaque.Run(opaqueWorkload{mw}, i, DeriveRunSeed(11, i))
		if err != nil {
			t.Fatal(err)
		}
		if rs.Measured != ro.Measured {
			t.Errorf("stable measured run %d: replayed board %+v, interpreted board %+v",
				i, rs.Measured, ro.Measured)
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
