package platform

import (
	"context"
	"testing"

	"repro/internal/tvca"
)

// keyedTVCA is the reference TVCA at the given number of frames; at 16
// its runs fall into many trace keys, the first run's shared by about
// half of them.
func keyedTVCA(t *testing.T, frames int) *tvca.App {
	t.Helper()
	cfg := tvca.DefaultConfig()
	cfg.Frames = frames
	app, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestKeyedReplayMatchesInterpretation: on RAND, a board that replays
// the runs sharing its first run's trace key gives every run the
// cycles, instructions and path of an interpreting board, and the same
// core counters and cache, TLB and FPU counter deltas; the recorded
// 16-frame trace stays within 0.5 MB. DET never replays a keyed
// workload.
func TestKeyedReplayMatchesInterpretation(t *testing.T) {
	runs := 1000
	if testing.Short() || raceEnabled {
		runs = 150
	}
	app := keyedTVCA(t, 16)
	fast, err := New(RAND())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(RAND())
	if err != nil {
		t.Fatal(err)
	}
	slow.SetReplay(false)
	for i := 0; i < runs; i++ {
		seed := DeriveRunSeed(23, i)
		fb, sb := fast.BoardStats(), slow.BoardStats()
		fr, err := fast.Run(app, i, seed)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := slow.Run(app, i, seed)
		if err != nil {
			t.Fatal(err)
		}
		if fr != sr {
			t.Fatalf("run %d: replaying board %+v, interpreting board %+v", i, fr, sr)
		}
		if fc, sc := fast.core.Stats(), slow.core.Stats(); fc != sc {
			t.Fatalf("run %d: core counters %+v, interpreted %+v", i, fc, sc)
		}
		fd, sd := fast.BoardStats().Sub(fb), slow.BoardStats().Sub(sb)
		fd.ReplayRuns, fd.InterpretRuns, sd.ReplayRuns, sd.InterpretRuns = 0, 0, 0, 0
		if fd != sd {
			t.Fatalf("run %d: counter deltas %+v, interpreted %+v", i, fd, sd)
		}
	}
	st := fast.BoardStats()
	if st.ReplayRuns+st.InterpretRuns != uint64(runs) || st.ReplayRuns < uint64(runs)/4 || st.InterpretRuns < uint64(runs)/4 {
		t.Errorf("%d replayed + %d interpreted runs: want both paths well exercised over %d runs",
			st.ReplayRuns, st.InterpretRuns, runs)
	}
	if n := fast.slot.trace.bytes(); n > 512<<10 {
		t.Errorf("16-frame trace takes %d bytes, want <= 0.5 MB", n)
	}

	det, err := New(DET())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := det.Run(app, i, DeriveRunSeed(23, i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := det.BoardStats(); st.ReplayRuns != 0 || det.slot.trace != nil {
		t.Errorf("DET replayed %d keyed runs (trace recorded: %v), want none", st.ReplayRuns, det.slot.trace != nil)
	}
}

// TestMulticoreKeyedReplayMatchesInterpretation: the multicore board's
// measured core replays keyed runs too, with every measurement equal to
// a board that interprets the same workload behind a keyless wrapper.
func TestMulticoreKeyedReplayMatchesInterpretation(t *testing.T) {
	app := keyedTVCA(t, 8)
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
