package platform

import (
	"context"
	"testing"

	"repro/internal/tvca"
)

// keyedTVCA is the reference TVCA at the given number of frames and
// input seed (0: the default); at 16 frames its runs fall into many
// trace keys.
func keyedTVCA(t *testing.T, frames int, inputSeed uint64) *tvca.App {
	t.Helper()
	cfg := tvca.DefaultConfig()
	cfg.Frames = frames
	if inputSeed != 0 {
		cfg.InputSeed = inputSeed
	}
	app, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestKeyedReplayMatchesInterpretation: on RAND, a board that records
// the trace keys that recur and replays later runs of them gives every
// run the cycles, instructions and path of an interpreting board, and
// the same core counters and cache, TLB and FPU counter deltas. At 16
// frames, at the default input seed and at 0xB16B00B5 (whose run 0
// holds a rare key), at least 85% of 1,000 runs replay and at least 5%
// interpret; each recording stays within 0.5 MB and the set within
// traceBudget. DET never replays a keyed workload.
func TestKeyedReplayMatchesInterpretation(t *testing.T) {
	runs := 1000
	if testing.Short() || raceEnabled {
		runs = 150
	}
	for _, seed := range []uint64{0, 0xB16B00B5} {
		app := keyedTVCA(t, 16, seed)
		b := newTwinBoards(t, RAND())
		for i := 0; i < runs; i++ {
			b.run(t, app, i)
		}
		st := b.fast.BoardStats()
		t.Logf("input seed %#x: %d replayed + %d interpreted runs, %d recording runs, %d recordings of %d bytes",
			seed, st.ReplayRuns, st.InterpretRuns, st.Recordings, len(b.fast.meas.slot.set), setBytes(&b.fast.meas.slot))
		if st.ReplayRuns+st.InterpretRuns != uint64(runs) {
			t.Errorf("input seed %#x: %d replayed + %d interpreted runs, want %d",
				seed, st.ReplayRuns, st.InterpretRuns, runs)
		}
		if runs == 1000 && (st.ReplayRuns < 850 || st.InterpretRuns < 50) {
			t.Errorf("input seed %#x: %d replayed + %d interpreted runs, want >= 85%% replayed and >= 5%% interpreted",
				seed, st.ReplayRuns, st.InterpretRuns)
		}
		for _, r := range b.fast.meas.slot.set {
			if n := r.trace.bytes(); n > 512<<10 {
				t.Errorf("input seed %#x: 16-frame trace takes %d bytes, want <= 0.5 MB", seed, n)
			}
		}
		if n := setBytes(&b.fast.meas.slot); len(b.fast.meas.slot.set) > 1 && n > traceBudget {
			t.Errorf("input seed %#x: %d recordings take %d bytes, over %d", seed, len(b.fast.meas.slot.set), n, traceBudget)
		}
	}

	app := keyedTVCA(t, 16, 0)
	det, err := New(DET())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := det.ExecuteRun(context.Background(), app, i, DeriveRunSeed(23, i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := det.BoardStats(); st.ReplayRuns != 0 || st.Recordings != 0 || len(det.meas.slot.set) != 0 {
		t.Errorf("DET replayed %d keyed runs and recorded %d, want none", st.ReplayRuns, st.Recordings)
	}
}

// TestMulticoreKeyedReplayMatchesInterpretation: the multicore board's
// measured core replays keyed runs too, with every measurement equal to
// a board that interprets the same workload behind a keyless wrapper.
func TestMulticoreKeyedReplayMatchesInterpretation(t *testing.T) {
	app := keyedTVCA(t, 8, 0)
	co := []Workload{stableStreamer{streamer{lines: 256}}}
	keyed, err := NewMulticore(RAND(), co)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewMulticore(RAND(), co)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 40
	for i := 0; i < runs; i++ {
		seed := DeriveRunSeed(29, i)
		kr, err := keyed.ExecuteRun(context.Background(), app, i, seed)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := plain.ExecuteRun(context.Background(), opaqueWorkload{app}, i, seed)
		if err != nil {
			t.Fatal(err)
		}
		if kr != pr || keyed.BusStats() != plain.BusStats() {
			t.Fatalf("run %d: keyed board %+v (bus %+v), interpreting board %+v (bus %+v)",
				i, kr, keyed.BusStats(), pr, plain.BusStats())
		}
	}
	if st := keyed.BoardStats(); st.ReplayRuns == 0 || st.InterpretRuns < 2 {
		t.Errorf("keyed board: %d replayed + %d interpreted runs, want both", st.ReplayRuns, st.InterpretRuns)
	}
}
