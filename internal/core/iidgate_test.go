package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// requireGateMatches checks that the analyzer's incremental gate on its
// current series equals stats.CheckIID on the same series, bit for bit
// (an error from CheckIID must leave the gate unchecked).
func requireGateMatches(t testing.TB, o *OnlineAnalyzer, snap Snapshot, label string) {
	t.Helper()
	want, err := stats.CheckIID(o.times, o.opts.Alpha)
	if err != nil {
		if snap.GateChecked {
			t.Fatalf("%s: batch %d (%d runs): gate checked, CheckIID failed: %v", label, snap.Batch, snap.Runs, err)
		}
		return
	}
	if !snap.GateChecked {
		t.Fatalf("%s: batch %d (%d runs): gate unchecked, CheckIID passed", label, snap.Batch, snap.Runs)
	}
	got := snap.Gate
	if got.Pass != want.Pass || !sameTest(got.Independence, want.Independence) || !sameTest(got.IdentDist, want.IdentDist) {
		t.Fatalf("%s: batch %d (%d runs): incremental gate %+v, CheckIID %+v", label, snap.Batch, snap.Runs, got, want)
	}
}

func sameTest(a, b stats.TestResult) bool {
	return a.Name == b.Name && a.Rejected == b.Rejected && a.DF == b.DF &&
		math.Float64bits(a.Statistic) == math.Float64bits(b.Statistic) &&
		math.Float64bits(a.PValue) == math.Float64bits(b.PValue) &&
		math.Float64bits(a.Alpha) == math.Float64bits(b.Alpha)
}

// observeChecked feeds obs in batches of the given size, checking the
// gate after every batch. At batch index cut (if non-negative) it
// replaces the analyzer with one restored from its marshaled state.
func observeChecked(t testing.TB, o *OnlineAnalyzer, obs []Observation, batch, cut int, label string) {
	t.Helper()
	for at, b := 0, 0; at < len(obs); at, b = at+batch, b+1 {
		if b == cut {
			state, err := o.MarshalState()
			if err != nil {
				t.Fatalf("%s: MarshalState: %v", label, err)
			}
			if o, err = RestoreOnlineAnalyzer(o.opts, nil, state); err != nil {
				t.Fatalf("%s: RestoreOnlineAnalyzer: %v", label, err)
			}
		}
		end := min(at+batch, len(obs))
		snap, err := o.ObserveBatch(obs[at:end])
		if err != nil {
			t.Fatalf("%s: batch %d: %v", label, b, err)
		}
		requireGateMatches(t, o, snap, label)
	}
}

// TestIncrementalIIDGateMatchesCheckIID pins the sorted-halves gate to
// the from-scratch gate: after every batch its report must equal
// stats.CheckIID on the analyzed series, whatever the batch size, with
// heavy ties, with quarantined and mitigated runs interleaved, and
// across a state round trip mid-stream.
func TestIncrementalIIDGateMatchesCheckIID(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	series := map[string][]Observation{}
	var smooth, ties, faulted []Observation
	for i, x := range synthSeries(600, 11) {
		smooth = append(smooth, Observation{Cycles: x})
		ties = append(ties, Observation{Cycles: float64(1000 + rng.Intn(4))})
		ob := Observation{Cycles: x}
		switch i % 7 {
		case 2:
			ob.Outcome = "hung"
		case 5:
			ob.Outcome, ob.Mitigated = "corrected", true
		}
		faulted = append(faulted, ob)
	}
	series["smooth"], series["ties"], series["faulted"] = smooth, ties, faulted
	for name, obs := range series {
		for _, batch := range []int{1, 3, 7, 13, 50, 97, 1000} {
			for _, cut := range []int{-1, 1, 5} {
				observeChecked(t, NewOnlineAnalyzer(Options{}, nil), obs, batch, cut, name)
			}
		}
	}
}

// FuzzIncrementalIIDGate drives the incremental gate with arbitrary
// series: each 3-byte group is one observation (a flag byte choosing
// quarantine, mitigation or a special value, then a 16-bit cycle
// count), batch sizes come from the input, and the analyzer may be
// restored from its state at any batch.
func FuzzIncrementalIIDGate(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 2, 0, 0, 1, 0, 0, 3, 0, 0, 1, 0, 0, 0, 0, 0, 9, 9}, uint8(3), uint8(2), int8(-1))
	f.Add([]byte{0, 5, 0, 1, 5, 0, 2, 5, 0, 0, 5, 0, 0, 4, 0, 0, 4, 0, 0, 4, 0, 0, 6, 0, 0, 6, 0, 0, 6, 0}, uint8(1), uint8(4), int8(2))
	f.Add([]byte{3, 0, 0, 4, 0, 0, 0, 7, 1, 0, 7, 1, 0, 7, 1, 0, 8, 1, 0, 9, 1, 0, 0, 1, 0, 1, 1, 0, 2, 1}, uint8(2), uint8(5), int8(1))
	f.Fuzz(func(t *testing.T, data []byte, batchA, batchB uint8, cut int8) {
		var obs []Observation
		for ; len(data) >= 3; data = data[3:] {
			ob := Observation{Cycles: float64(binary.LittleEndian.Uint16(data[1:]))}
			switch data[0] % 8 {
			case 1:
				ob.Outcome = "hung"
			case 2:
				ob.Outcome, ob.Mitigated = "corrected", true
			case 3:
				ob.Cycles = math.Copysign(0, -1)
			case 4:
				ob.Cycles = 0
			case 5:
				ob.Cycles = -ob.Cycles
			case 6:
				ob.Cycles = math.Inf(1)
			case 7:
				ob.Cycles = math.NaN()
			}
			obs = append(obs, ob)
		}
		// Alternate two batch sizes so batches cross the midpoint both
		// by less and by more than the series already holds.
		o := NewOnlineAnalyzer(Options{}, nil)
		sizes := []int{int(batchA%64) + 1, int(batchB%64) + 1}
		for at, b := 0, 0; at < len(obs); b++ {
			if b == int(cut) {
				// The state codec carries finite times only (cycle
				// counts); a series with NaN or Inf keeps its analyzer.
				if state, err := o.MarshalState(); err == nil {
					if o, err = RestoreOnlineAnalyzer(o.opts, nil, state); err != nil {
						t.Fatal(err)
					}
				}
			}
			end := min(at+sizes[b%2], len(obs))
			snap, err := o.ObserveBatch(obs[at:end])
			if err != nil {
				// The tail fit may reject a degenerate series; the gate
				// has run by then.
				requireGateMatches(t, o, snap, "fuzz")
				return
			}
			requireGateMatches(t, o, snap, "fuzz")
			at = end
		}
	})
}

// BenchmarkOnlineAnalyzerObserveBatch measures one 1000-run campaign's
// analysis: 20 batches of 50 runs with 50-run blocks, the matrix's
// analysis settings.
func BenchmarkOnlineAnalyzerObserveBatch(b *testing.B) {
	times := synthSeries(1000, 3)
	obs := make([]Observation, len(times))
	for i, x := range times {
		obs[i] = Observation{Cycles: x}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewOnlineAnalyzer(Options{BlockSize: 50}, nil)
		for at := 0; at < len(obs); at += 50 {
			if _, err := o.ObserveBatch(obs[at : at+50]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
