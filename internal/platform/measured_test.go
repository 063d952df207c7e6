package platform

// Tests for the measured core both boards share (measured): the run's
// context on every board, and the run-kind tallies.

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
)

// pollCountCtx is a context whose Err reports Canceled once it has
// been called n times, and whose Done channel never closes: a
// cancellation that lands at a fixed cancel poll of a run.
type pollCountCtx struct {
	context.Context
	n    int
	done chan struct{}
}

func newPollCountCtx(n int) *pollCountCtx {
	return &pollCountCtx{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *pollCountCtx) Done() <-chan struct{} { return c.done }

func (c *pollCountCtx) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// statsBoard is a Board with the telemetry counters: Platform or
// Multicore.
type statsBoard interface {
	Board
	boardStatser
}

// boardCase is one kind of board.
type boardCase struct {
	name  string
	multi bool       // a Multicore, else a Platform
	co    []Workload // the Multicore's co-runners
}

var boardCases = []boardCase{
	{name: "platform"},
	{name: "multicore", multi: true},
	{name: "multicore-co-runner", multi: true, co: []Workload{stableStreamer{streamer{lines: 8}}}},
}

// boards builds a board of the kind, and the reference its results
// must equal: a Platform that interprets every run, or the reference
// multicore board.
func (bc boardCase) boards(t *testing.T) (statsBoard, func(Workload, int, uint64) (RunResult, error)) {
	t.Helper()
	if !bc.multi {
		fast, err := New(RAND())
		if err != nil {
			t.Fatal(err)
		}
		slow, err := New(RAND())
		if err != nil {
			t.Fatal(err)
		}
		slow.SetReplay(false)
		return fast, func(w Workload, run int, seed uint64) (RunResult, error) {
			return slow.ExecuteRun(context.Background(), w, run, seed)
		}
	}
	mc, err := NewMulticore(RAND(), bc.co)
	if err != nil {
		t.Fatal(err)
	}
	return mc, newRefBoard(t, RAND(), bc.co).run
}

// TestContextFailsRun: on Platform and on Multicore, with no co-runner
// and with a replayed one, a run whose context fires at its 8th check
// fails with isa.ErrCancelled, both when the measured core replays
// (the empty-key streamer, recorded by run 0) and when it interprets
// (the keyless wrapper), and counts nothing. A replayed co-runner polls
// nothing, so the measured core's poll is what ends the run, and the
// multicore error names core 0. The board's next run succeeds and
// measures what an interpreting board measures.
func TestContextFailsRun(t *testing.T) {
	measured := stableStreamer{streamer{lines: 1 << 13}} // 32k instructions, 32 polls
	for _, bc := range boardCases {
		for _, w := range []Workload{measured, opaqueWorkload{measured}} {
			name := bc.name + "/" + w.Name()
			if _, ok := w.(opaqueWorkload); ok {
				name += "-keyless"
			}
			b, ref := bc.boards(t)
			if _, err := b.ExecuteRun(context.Background(), w, 0, 1); err != nil {
				t.Fatal(err)
			}
			if mc, ok := b.(*Multicore); ok && len(bc.co) > 0 && !mc.co[1].done {
				t.Fatalf("%s: co-runner recorded no whole iteration", name)
			}
			before := b.BoardStats()
			r, err := b.ExecuteRun(newPollCountCtx(8), w, 1, 2)
			if !errors.Is(err, isa.ErrCancelled) || bc.multi && !strings.Contains(err.Error(), "core 0") {
				t.Errorf("%s: run cancelled after 8 context checks returned (%+v, %v), want core 0 failing with ErrCancelled",
					name, r, err)
			}
			if d := b.BoardStats().Sub(before); d.ReplayRuns+d.InterpretRuns+d.Recordings != 0 {
				t.Errorf("%s: the cancelled run was counted: %+v", name, d)
			}
			got, err := b.ExecuteRun(context.Background(), w, 2, 3)
			if err != nil {
				t.Fatalf("%s: run after a cancelled one: %v", name, err)
			}
			want, err := ref(w, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s: run after a cancelled one measured %+v, interpreting board %+v", name, got, want)
			}
			if st := b.BoardStats(); (w == Workload(measured)) != (st.ReplayRuns > 0) {
				t.Errorf("%s: %d replayed runs", name, st.ReplayRuns)
			}
		}
	}
}

// runKindsOf runs w's runs 0..n-1 on b and returns how each executed,
// read from the board's tallies.
func runKindsOf(t *testing.T, b statsBoard, w Workload, n int) []runKind {
	t.Helper()
	kinds := make([]runKind, n)
	for i := range kinds {
		before := b.BoardStats()
		if _, err := b.ExecuteRun(context.Background(), w, i, DeriveRunSeed(9, i)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		d := b.BoardStats().Sub(before)
		switch {
		case d.ReplayRuns+d.InterpretRuns != 1 || d.Recordings > d.InterpretRuns:
			t.Fatalf("run %d: run-kind delta %+v", i, d)
		case d.ReplayRuns == 1:
			kinds[i] = replayed
		case d.Recordings == 1:
			kinds[i] = recorded
		}
	}
	return kinds
}

// TestRunKindTalliesAgree: the same keyed workload interprets, records
// and replays the same runs on Platform and on Multicore with no
// co-runners, and records as often. Next to a keyless co-runner, whose
// machine runs on every run, every run counts as interpreted and the
// measured core records the same runs. A run whose co-runner fails
// after the measured core finished counts nothing and keeps nothing.
func TestRunKindTalliesAgree(t *testing.T) {
	w := &keyedLoop{keys: []byte{1, 2, 1, 2, 1, 3, 2, 3}, scale: 40}
	n := len(w.keys)
	want := []runKind{interpreted, interpreted, recorded, recorded, replayed, interpreted, replayed, recorded}
	var recs []uint64
	for _, bc := range boardCases[:2] {
		b, _ := bc.boards(t)
		if got := runKindsOf(t, b, w, n); !slices.Equal(got, want) {
			t.Errorf("%s: run kinds %v, want %v", bc.name, got, want)
		}
		recs = append(recs, b.BoardStats().Recordings)
	}
	co, err := NewMulticore(RAND(), []Workload{streamer{lines: 64}})
	if err != nil {
		t.Fatal(err)
	}
	runKindsOf(t, co, w, n)
	if st := co.BoardStats(); st.InterpretRuns != uint64(n) || st.Recordings != recs[0] {
		t.Errorf("keyless co-runner: %d interpreted runs and %d recordings, want %d and %d",
			st.InterpretRuns, st.Recordings, n, recs[0])
	}
	if recs[0] != recs[1] {
		t.Errorf("%d recordings on the platform, %d on the multicore board", recs[0], recs[1])
	}

	// The measured streamer takes under 1,024 instructions, so it polls
	// only before its first one and finishes after its co-runner fails
	// on its first bus request.
	mc, err := NewMulticore(RAND(), []Workload{midFailWorkload{failAt: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.ExecuteRun(context.Background(), stableStreamer{streamer{lines: 64}}, 0, 1); !errors.Is(err, errMidFail) {
		t.Fatalf("run with a failing co-runner returned %v, want %v", err, errMidFail)
	}
	if mc.errs[0] != nil {
		t.Fatalf("the measured core failed too: %v", mc.errs[0])
	}
	if st := mc.BoardStats(); st.ReplayRuns+st.InterpretRuns+st.Recordings != 0 {
		t.Errorf("failed run counted: %+v", st)
	}
	// The measured run recorded its stream (the empty key records on
	// its first run), but a failed run keeps no recording.
	if n := len(mc.meas.slot.set); n != 0 {
		t.Errorf("failed run left %d recordings in the trace set", n)
	}
}

// uncomparable is a keyless workload whose type Go cannot compare (it
// holds a map): a board must never compare two of its values.
type uncomparable struct {
	Workload
	tags map[string]int
}

// uncomparableTasks is a TaskAware workload whose type Go cannot
// compare (it holds its spans in a slice).
type uncomparableTasks struct {
	Workload
	spans []isa.Span
}

func (w uncomparableTasks) TaskSpans() []isa.Span { return w.spans }

// heldTasks is a TaskAware type Go can compare; its values holding an
// uncomparableTasks still cannot be compared.
type heldTasks struct{ TaskAware }

// TestUncomparableKeylessWorkload: on every board, a keyless workload
// of an uncomparable type runs repeatedly, after a keyed one and before
// one, called directly rather than under supervision, without a panic,
// and measures what an interpreting board measures; so does a TaskAware
// one, whose runs are attributed to its task.
func TestUncomparableKeylessWorkload(t *testing.T) {
	keyed := &keyedLoop{keys: []byte{4, 4, 4, 4, 4, 4}, scale: 40}
	keyless := uncomparable{Workload: keyed, tags: map[string]int{"k": 1}}
	tasks := uncomparableTasks{Workload: keyed, spans: []isa.Span{{Name: "loop", Start: 0x8004, End: 0x8014}}}
	seq := []Workload{keyed, keyed, keyless, keyless, keyless, tasks, tasks, heldTasks{tasks}, heldTasks{tasks}, keyed}
	for _, bc := range boardCases {
		b, ref := bc.boards(t)
		var meas *measured
		switch b := b.(type) {
		case *Platform:
			meas = &b.meas
		case *Multicore:
			meas = &b.meas
		}
		for i, w := range seq {
			got, err := b.ExecuteRun(context.Background(), w, i, uint64(i+1))
			if err != nil {
				t.Fatalf("%s run %d: %v", bc.name, i, err)
			}
			want, err := ref(w, i, uint64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s run %d: measured %+v, interpreting board %+v", bc.name, i, got, want)
			}
			if _, ok := w.(TaskAware); ok && (len(meas.tasks.worst) != 1 || meas.tasks.worst[0] == 0) {
				t.Errorf("%s run %d: worst jobs %v, want one job", bc.name, i, meas.tasks.worst)
			}
		}
	}
}

// TestStaleContextIgnored: a context a PollContext caller left armed
// (a run of its own that ended before disarming) does not reach the
// board's next ExecuteRun, which cannot be cancelled.
func TestStaleContextIgnored(t *testing.T) {
	p, err := New(RAND())
	if err != nil {
		t.Fatal(err)
	}
	w := opaqueWorkload{stableStreamer{streamer{lines: 1 << 10}}}
	m, err := w.Prepare(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.PollContext(ctx, m)
	cancel()
	if _, err := p.ExecuteRun(context.Background(), w, 1, 2); err != nil {
		t.Fatalf("uncancelable run after a stale armed context: %v", err)
	}
}
