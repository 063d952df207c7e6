package platform

import (
	"context"
	"testing"

	"repro/internal/isa"
	"repro/internal/tvca"
)

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

func TestRunPerTaskAccounting(t *testing.T) {
	app := tinyTVCA(t) // 4 frames, 8 sensors, 8 taps
	p, err := New(RAND())
	if err != nil {
		t.Fatal(err)
	}
	res, jobs, err := p.RunPerTask(app, 0, 42)
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

func TestRunPerTaskMatchesPlainRun(t *testing.T) {
	// Per-task attribution must not change the measured total.
	app := tinyTVCA(t)
	p1, _ := New(RAND())
	p2, _ := New(RAND())
	plain, err := p1.ExecuteRun(context.Background(), app, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	withTasks, _, err := p2.RunPerTask(app, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != withTasks.Cycles || plain.Path != withTasks.Path {
		t.Errorf("plain %+v != per-task %+v", plain, withTasks)
	}
}

// spanlessWorkload has no spans, to exercise validation.
type spanlessWorkload struct{ *tvca.App }

func (s spanlessWorkload) TaskSpans() []isa.Span { return nil }

func TestRunPerTaskRejectsBadSpans(t *testing.T) {
	app := tinyTVCA(t)
	p, _ := New(RAND())
	if _, _, err := p.RunPerTask(spanlessWorkload{app}, 0, 1); err == nil {
		t.Error("spanless workload accepted")
	}
}
