package platform

import (
	"bytes"
	"context"
	"strconv"
	"testing"

	"repro/internal/isa"
)

// keyedLoop is a synthetic keyed workload: run i's key is the one byte
// k = keys[i%len(keys)], and its program makes scale*(1+k%4) loads
// from a buffer whose base and stride the key sets, so its block
// stream is a function of its key. Its path is the number of passes.
// Each pass is one taken block of three trace words, so a recording
// takes about 12*scale*(1+k%4) bytes.
type keyedLoop struct {
	keys  []byte
	scale int32
}

func (w *keyedLoop) Name() string { return "keyed-loop" }

func (w *keyedLoop) key(run int) byte { return w.keys[run%len(w.keys)] }

func (w *keyedLoop) Prepare(run int) (*isa.Machine, error) {
	b := isa.NewBuilder("keyed-loop", 0x8000)
	b.Li(2, 0)
	b.Label("loop")
	b.Ld(4, 1, 0)
	b.Add(1, 1, 5)
	b.Addi(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	m := isa.NewMachine(p, isa.NewMemory())
	k := int32(w.key(run))
	m.SetReg(1, 0x400000+k*4096)
	m.SetReg(3, w.scale*(1+k%4))
	m.SetReg(5, 32<<(k%3))
	return m, nil
}

func (w *keyedLoop) PathOf(m *isa.Machine) string { return strconv.Itoa(int(m.Reg(2))) }

func (w *keyedLoop) TraceKey(dst []byte, run int) ([]byte, bool) {
	return append(dst[:0], w.key(run)), true
}

// runKind is how a replaying board executed a run.
type runKind int

const (
	interpreted runKind = iota
	recorded
	replayed
)

// twinBoards runs every run on a replaying board and on one that
// interprets everything.
type twinBoards struct{ fast, slow *Platform }

func newTwinBoards(t testing.TB, cfg Config) twinBoards {
	t.Helper()
	fast, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow.SetReplay(false)
	return twinBoards{fast, slow}
}

// run executes run i of w on both boards under the same seed, requires
// equal results, core counters and cache, TLB and FPU counter deltas,
// and reports how the replaying board executed the run.
func (b twinBoards) run(t testing.TB, w Workload, i int) runKind {
	t.Helper()
	seed := DeriveRunSeed(31, i)
	fb, sb := b.fast.BoardStats(), b.slow.BoardStats()
	fr, err := b.fast.ExecuteRun(context.Background(), w, i, seed)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := b.slow.ExecuteRun(context.Background(), w, i, seed)
	if err != nil {
		t.Fatal(err)
	}
	if fr != sr {
		t.Fatalf("run %d: replaying board %+v, interpreting board %+v", i, fr, sr)
	}
	if fc, sc := b.fast.meas.core.Stats(), b.slow.meas.core.Stats(); fc != sc {
		t.Fatalf("run %d: core counters %+v, interpreted %+v", i, fc, sc)
	}
	fd, sd := b.fast.BoardStats().Sub(fb), b.slow.BoardStats().Sub(sb)
	kind := interpreted
	switch {
	case fd.ReplayRuns == 1:
		kind = replayed
	case fd.Recordings == 1:
		kind = recorded
	}
	if fd.ReplayRuns+fd.InterpretRuns != 1 || fd.Recordings > fd.InterpretRuns {
		t.Fatalf("run %d: run-kind delta %+v", i, fd)
	}
	fd.ReplayRuns, fd.InterpretRuns, fd.Recordings = 0, 0, 0
	sd.ReplayRuns, sd.InterpretRuns, sd.Recordings = 0, 0, 0
	if fd != sd {
		t.Fatalf("run %d: counter deltas %+v, interpreted %+v", i, fd, sd)
	}
	return kind
}

// setBytes is the size of a slot's recordings.
func setBytes(s *traceSlot) int {
	n := 0
	for _, r := range s.set {
		n += r.trace.bytes()
	}
	return n
}

// runKinds runs w's runs 0..len(want)-1 on b and requires each to
// execute as want says.
func runKinds(t *testing.T, b twinBoards, w *keyedLoop, want []runKind) {
	t.Helper()
	for i, k := range want {
		if got := b.run(t, w, i); got != k {
			t.Fatalf("run %d (key %d): executed as %d, want %d", i, w.key(i), got, k)
		}
	}
}

// TestTraceSetRecordsOnRecurrence: a key records the second time the
// board runs it and replays from then on, for several keys at once; a
// forced hash collision makes a key record on its first run, but never
// replay another key's trace.
func TestTraceSetRecordsOnRecurrence(t *testing.T) {
	b := newTwinBoards(t, RAND())
	w := &keyedLoop{keys: []byte{1, 2, 1, 2, 1, 3, 2}, scale: 40}
	runKinds(t, b, w, []runKind{interpreted, interpreted, recorded, recorded, replayed, interpreted, replayed})

	// After run 0, note key 9's hash as a colliding earlier key would
	// have: its first run records, and no run replays a trace of
	// another key.
	c := newTwinBoards(t, RAND())
	w = &keyedLoop{keys: []byte{1, 9, 9, 1, 1}, scale: 40}
	for i, want := range []runKind{interpreted, recorded, replayed, recorded, replayed} {
		if i == 1 {
			c.fast.meas.slot.recurs([]byte{9})
		}
		if got := c.run(t, w, i); got != want {
			t.Fatalf("collision: run %d (key %d): executed as %d, want %d", i, w.key(i), got, want)
		}
	}
	if got := len(c.fast.meas.slot.set); got != 2 {
		t.Errorf("%d recordings, want 2", got)
	}
}

// TestTraceSetBudget: beyond its first trace the set stays within
// traceBudget. A recording that outgrows the room left is dropped, and
// the board records nothing after it; the keys it holds still replay.
func TestTraceSetBudget(t *testing.T) {
	b := newTwinBoards(t, RAND())
	// Key k's trace takes about (1+k) x 200 KB in 32 KB chunks: keys 0
	// and 1 (224 and 416 KB) fit, key 2's outgrows the 384 KB left, and
	// key 3 never starts recording.
	w := &keyedLoop{keys: []byte{0, 0, 1, 1, 2, 2, 2, 3, 3, 0, 1}, scale: 17000}
	runKinds(t, b, w, []runKind{
		interpreted, recorded, interpreted, recorded,
		interpreted, recorded, interpreted, interpreted, interpreted,
		replayed, replayed,
	})
	s := &b.fast.meas.slot
	if len(s.set) != 2 || setBytes(s) > traceBudget || s.room != 0 {
		t.Errorf("%d recordings of %d bytes (room %d), want 2 within %d and no room",
			len(s.set), setBytes(s), s.room, traceBudget)
	}
	if st := b.fast.BoardStats(); st.Recordings != 3 {
		t.Errorf("%d recording runs, want 3 (one dropped)", st.Recordings)
	}
}

// TestTraceSetWorkloadSwitch: a board that moves to another workload,
// keyed or keyless, drops its recordings and its seen keys, so the new
// workload's key equal to an old one neither replays the old trace nor
// records early, and a workload the board returns to starts afresh.
func TestTraceSetWorkloadSwitch(t *testing.T) {
	b := newTwinBoards(t, RAND())
	runKinds(t, b, &keyedLoop{keys: []byte{5}, scale: 40}, []runKind{interpreted, recorded, replayed})
	w := &keyedLoop{keys: []byte{5}, scale: 50}
	runKinds(t, b, w, []runKind{interpreted, recorded, replayed})
	s := &b.fast.meas.slot
	if got := len(s.set); got != 1 {
		t.Errorf("%d recordings after the switch, want 1", got)
	}
	keyless := opaqueWorkload{w}
	for i := 0; i < 2; i++ {
		if got := b.run(t, keyless, i); got != interpreted {
			t.Fatalf("keyless run %d: executed as %d, want interpreted", i, got)
		}
	}
	if len(s.set) != 0 || s.w != nil || s.keyer != nil {
		t.Errorf("after the keyless runs: %d recordings of %v, want none and no workload held", len(s.set), s.w)
	}
	runKinds(t, b, w, []runKind{interpreted, recorded, replayed})
}

// TestTraceSetDETRecordsNothing: equal non-empty keys may differ in
// FDIV/FSQRT operands, so an operand-dependent FPU never records or
// replays a keyed workload.
func TestTraceSetDETRecordsNothing(t *testing.T) {
	b := newTwinBoards(t, DET())
	runKinds(t, b, &keyedLoop{keys: []byte{1, 1, 1, 2, 2, 2}, scale: 40}, make([]runKind, 6))
	if st := b.fast.BoardStats(); st.Recordings != 0 || len(b.fast.meas.slot.set) != 0 {
		t.Errorf("DET: %d recording runs, %d recordings, want none", st.Recordings, len(b.fast.meas.slot.set))
	}
}

// FuzzTraceSet runs random key sequences of the synthetic keyed
// workload on a replaying and an interpreting RAND board. Every run
// must match its interpretation; a run replays only a recording of its
// own key, records only a key the board ran before and holds no
// recording of, and cannot interpret a key that the board ran just
// before while the set had room; the set's keys are distinct and,
// beyond the first trace, its bytes stay within traceBudget.
func FuzzTraceSet(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 2, 2, 1}, uint16(30))
	f.Add([]byte{3, 1, 3, 1, 3, 1, 7, 7, 7}, uint16(200))
	f.Add([]byte{0, 0, 3, 3, 7, 7, 2, 2, 6, 6, 1, 1, 0, 3}, uint16(5000))
	f.Fuzz(func(t *testing.T, seq []byte, scale uint16) {
		if len(seq) == 0 || len(seq) > 32 {
			t.Skip()
		}
		w := &keyedLoop{keys: make([]byte, len(seq)), scale: 1 + int32(scale%6000)}
		for i, k := range seq {
			w.keys[i] = k % 8
		}
		b := newTwinBoards(t, RAND())
		s := &b.fast.meas.slot
		runs := make(map[byte]int)
		for i, k := range w.keys {
			room := len(s.set) == 0 || s.room >= s.set[0].trace.bytes()
			held := false
			for _, r := range s.set {
				held = held || bytes.Equal(r.key, []byte{k})
			}
			kind := b.run(t, w, i)
			switch {
			case kind == replayed && !held:
				t.Fatalf("run %d: key %d replayed without a recording of it", i, k)
			case kind == recorded && (held || runs[k] == 0):
				t.Fatalf("run %d: key %d recorded (held %v, %d earlier runs)", i, k, held, runs[k])
			case kind == interpreted && i > 0 && w.keys[i-1] == k && room:
				t.Fatalf("run %d: key %d interpreted right after a run of it", i, k)
			}
			runs[k]++
			for j := range s.set {
				for _, r := range s.set[j+1:] {
					if bytes.Equal(r.key, s.set[j].key) {
						t.Fatalf("run %d: key %v recorded twice", i, r.key)
					}
				}
			}
			if len(s.set) > 1 && setBytes(s) > traceBudget {
				t.Fatalf("run %d: %d recordings take %d bytes, over %d", i, len(s.set), setBytes(s), traceBudget)
			}
		}
	})
}
