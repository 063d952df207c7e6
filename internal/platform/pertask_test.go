package platform

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/tvca"
)

// jobTimes maps task name to the per-job execution times (cycles) in
// activation order. Cycles spent outside every span are reported under
// the pseudo-task "(dispatcher)" as a single figure per run.
type jobTimes map[string][]uint64

// taskRef is the reference per-task attribution the measured core's
// taskClock must agree with: it charges a run to the core one
// instruction at a time and attributes each instruction's cycles to
// the task span holding its PC (or to the dispatcher outside every
// span).
type taskRef struct {
	core                      *cpu.Core
	spans                     []isa.Span
	jobs                      jobTimes
	current                   int // span index of the running job, -1 for none
	prev                      uint64
	jobCycles, dispatchCycles uint64
}

// FetchBytes asks for one-instruction blocks, whatever the span edges.
func (s *taskRef) FetchBytes() int { return 0 }

func (s *taskRef) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	s.core.ConsumeBlock(pc, classes, taken, ops)
	now := s.core.Cycle()
	delta := now - s.prev
	s.prev = now
	sp := -1
	for i := range s.spans {
		if pc >= s.spans[i].Start && pc < s.spans[i].End {
			sp = i
			break
		}
	}
	if sp != s.current {
		if s.current >= 0 {
			name := s.spans[s.current].Name
			s.jobs[name] = append(s.jobs[name], s.jobCycles)
		}
		s.current = sp
		s.jobCycles = 0
	}
	if sp >= 0 {
		s.jobCycles += delta
	} else {
		s.dispatchCycles += delta
	}
}

// refOnCore runs m on core through the reference attribution, once the
// board's per-run protocol has run.
func refOnCore(core *cpu.Core, m *isa.Machine, spans []isa.Span) (jobTimes, error) {
	ts := taskRef{core: core, spans: spans, jobs: make(jobTimes), current: -1, prev: core.Cycle()}
	if _, err := m.RunBlocks(&ts); err != nil {
		return nil, err
	}
	if ts.current >= 0 {
		name := spans[ts.current].Name
		ts.jobs[name] = append(ts.jobs[name], ts.jobCycles)
	}
	ts.jobs["(dispatcher)"] = []uint64{ts.dispatchCycles}
	return ts.jobs, nil
}

// runPerTask is the reference per-task run on p: the per-run protocol
// for seed, then run of w attributed one instruction at a time.
func runPerTask(p *Platform, w TaskAware, run int, seed uint64) (RunResult, jobTimes, error) {
	m, err := w.Prepare(run)
	if err != nil {
		return RunResult{}, nil, err
	}
	p.PrepareRun(seed)
	jobs, err := refOnCore(p.meas.core, m, w.TaskSpans())
	if err != nil {
		return RunResult{}, nil, err
	}
	return RunResult{
		Cycles:       p.meas.core.Cycle(),
		Instructions: p.meas.core.Stats().Instructions,
		Path:         w.PathOf(m),
	}, jobs, nil
}

// runPerTask is runPerTask on the measured core of mc.
func (mc *Multicore) runPerTask(w TaskAware, run int, seed uint64) (RunResult, jobTimes, error) {
	m, err := w.Prepare(run)
	if err != nil {
		return RunResult{}, nil, err
	}
	if err := mc.ensureBoard(); err != nil {
		return RunResult{}, nil, err
	}
	mc.prepareRun(seed)
	core := mc.cores[0]
	jobs, err := refOnCore(core, m, w.TaskSpans())
	if err != nil {
		return RunResult{}, nil, err
	}
	return RunResult{Cycles: core.Cycle(), Instructions: core.Stats().Instructions, Path: w.PathOf(m)}, jobs, nil
}

// worstJobs is each span's worst job in jobs, in span order (0: no
// job), as the measured core keeps them.
func worstJobs(jobs jobTimes, spans []isa.Span) []uint64 {
	out := make([]uint64, len(spans))
	for i, sp := range spans {
		for _, c := range jobs[sp.Name] {
			out[i] = max(out[i], c)
		}
	}
	return out
}

func TestValidateSpans(t *testing.T) {
	good := []isa.Span{
		{Name: "a", Start: 0x100, End: 0x200},
		{Name: "b", Start: 0x200, End: 0x300},
	}
	if err := ValidateSpans(good); err != nil {
		t.Fatal(err)
	}
	bad := [][]isa.Span{
		{},
		{{Name: "empty", Start: 0x100, End: 0x100}},
		{{Name: "a", Start: 0x100, End: 0x300}, {Name: "b", Start: 0x200, End: 0x400}},
		{{Name: "a", Start: 0x100, End: 0x200}, {Name: "a", Start: 0x300, End: 0x400}},
	}
	for i, s := range bad {
		if err := ValidateSpans(s); err == nil {
			t.Errorf("bad spans %d accepted", i)
		}
	}
}

func TestTVCATaskSpansWellFormed(t *testing.T) {
	app := tinyTVCA(t)
	spans := app.TaskSpans()
	if err := ValidateSpans(spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("%d spans", len(spans))
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.Start < app.Program().CodeBase {
			t.Errorf("span %q starts before code base", s.Name)
		}
	}
	for _, want := range []string{"sensor-acq", "actuator-x", "actuator-y"} {
		if !names[want] {
			t.Errorf("missing span %q", want)
		}
	}
}

// TestRunPerTaskAccounting checks the reference attribution itself.
func TestRunPerTaskAccounting(t *testing.T) {
	app := tinyTVCA(t) // 4 frames, 8 sensors, 8 taps
	p, err := New(RAND())
	if err != nil {
		t.Fatal(err)
	}
	res, jobs, err := runPerTask(p, app, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Activation counts over 4 minor frames: sensor every frame (4),
	// actuator-x every 2nd (2), actuator-y every 4th (1).
	if n := len(jobs["sensor-acq"]); n != 4 {
		t.Errorf("sensor jobs = %d, want 4", n)
	}
	if n := len(jobs["actuator-x"]); n != 2 {
		t.Errorf("actuator-x jobs = %d, want 2", n)
	}
	if n := len(jobs["actuator-y"]); n != 1 {
		t.Errorf("actuator-y jobs = %d, want 1", n)
	}
	// Conservation: task cycles + dispatcher cycles = total cycles.
	var sum uint64
	for _, ts := range jobs {
		for _, c := range ts {
			sum += c
		}
	}
	if sum != res.Cycles {
		t.Errorf("attributed %d cycles, run took %d", sum, res.Cycles)
	}
	// Every job costs something.
	for task, ts := range jobs {
		for i, c := range ts {
			if c == 0 {
				t.Errorf("%s job %d has zero cycles", task, i)
			}
		}
	}
}

// TestRunPerTaskMatchesPlainRun: attribution does not change the
// measured run, and the board's worst jobs are the reference's.
func TestRunPerTaskMatchesPlainRun(t *testing.T) {
	app := tinyTVCA(t)
	p1, _ := New(RAND())
	p2, _ := New(RAND())
	plain, err := p1.ExecuteRun(context.Background(), app, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	withTasks, jobs, err := runPerTask(p2, app, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if plain != withTasks {
		t.Errorf("plain %+v != per-task %+v", plain, withTasks)
	}
	if got, want := p1.meas.tasks.worst, worstJobs(jobs, app.TaskSpans()); !slices.Equal(got, want) {
		t.Errorf("board's worst jobs %v, reference %v", got, want)
	}
}

// spanlessWorkload has no spans, to exercise validation.
type spanlessWorkload struct{ *tvca.App }

func (s spanlessWorkload) TaskSpans() []isa.Span { return nil }

// TestRunPerTaskRejectsBadSpans: a TaskAware workload with invalid
// spans runs on both boards, attributed to no task, as the plain
// workload runs; its per-task campaign is rejected.
func TestRunPerTaskRejectsBadSpans(t *testing.T) {
	app := tinyTVCA(t)
	w := spanlessWorkload{app}
	ref, _ := New(RAND())
	want, err := ref.ExecuteRun(context.Background(), opaqueWorkload{app}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := New(RAND())
	mc, _ := NewMulticore(RAND(), nil)
	for _, b := range []struct {
		b    Board
		meas *measured
	}{{p, &p.meas}, {mc, &mc.meas}} {
		got, err := b.b.ExecuteRun(context.Background(), w, 0, 1)
		if err != nil || got != want {
			t.Errorf("%T: spanless workload ran %+v, %v; plain run %+v", b.b, got, err, want)
		}
		if n := len(b.meas.tasks.worst); n != 0 {
			t.Errorf("%T: %d tasks attributed", b.b, n)
		}
	}
	if _, err := PerTaskWorstCampaign(RAND(), w, 2, 1); err == nil || !strings.Contains(err.Error(), "no task spans") {
		t.Errorf("spanless campaign: %v", err)
	}
}

// TestTaskAttributionMatchesReference: over Frames-8 TVCA runs, the
// worst job per task that the measured core keeps equals the
// reference's, on a Platform whose runs interpret, record and replay
// and on a Multicore with no co-runners.
func TestTaskAttributionMatchesReference(t *testing.T) {
	cfg := tvca.DefaultConfig()
	cfg.Frames = 8
	app, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := 200
	if raceEnabled {
		runs = 40
	}
	spans := app.TaskSpans()
	p, _ := New(RAND())
	pRef, _ := New(RAND())
	mc, _ := NewMulticore(RAND(), nil)
	mcRef, _ := NewMulticore(RAND(), nil)
	for _, b := range []struct {
		name string
		b    Board
		meas *measured
		ref  func(w TaskAware, run int, seed uint64) (RunResult, jobTimes, error)
	}{
		{"platform", p, &p.meas, func(w TaskAware, run int, seed uint64) (RunResult, jobTimes, error) {
			return runPerTask(pRef, w, run, seed)
		}},
		{"multicore", mc, &mc.meas, mcRef.runPerTask},
	} {
		for run := 0; run < runs; run++ {
			seed := DeriveRunSeed(31, run)
			want, jobs, err := b.ref(app, run, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.b.ExecuteRun(context.Background(), app, run, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s run %d: measured %+v, reference %+v", b.name, run, got, want)
			}
			if worst := worstJobs(jobs, spans); !slices.Equal(b.meas.tasks.worst, worst) {
				t.Fatalf("%s run %d: worst jobs %v, reference %v", b.name, run, b.meas.tasks.worst, worst)
			}
		}
	}
	st := p.BoardStats()
	if st.InterpretRuns == 0 || st.Recordings == 0 || st.ReplayRuns == 0 {
		t.Errorf("platform did not interpret, record and replay: %+v", st)
	}
	if mst := mc.BoardStats(); mst.Recordings != st.Recordings || mst.ReplayRuns != st.ReplayRuns {
		t.Errorf("multicore tallies %+v, platform %+v", mst, st)
	}
}

// TestPerTaskWorstCampaignMatchesReference: the campaign's series, run
// by parallel boards, are the reference's worst jobs in run order.
func TestPerTaskWorstCampaignMatchesReference(t *testing.T) {
	app := tinyTVCA(t)
	const runs = 40
	got, err := PerTaskWorstCampaign(RAND(), app, runs, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := New(RAND())
	want := map[string][]float64{}
	for run := 0; run < runs; run++ {
		_, jobs, err := runPerTask(ref, app, run, DeriveRunSeed(5, run))
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range worstJobs(jobs, app.TaskSpans()) {
			name := app.TaskSpans()[i].Name
			want[name] = append(want[name], float64(c))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d task series, want %d", len(got), len(want))
	}
	for name, w := range want {
		if !slices.Equal(got[name], w) {
			t.Errorf("%s: campaign %v, reference %v", name, got[name], w)
		}
	}
}
