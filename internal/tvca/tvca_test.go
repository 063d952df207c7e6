package tvca

import (
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
)

func newApp(t *testing.T) *App {
	t.Helper()
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func runGuest(t *testing.T, a *App, run int) *isa.Machine {
	t.Helper()
	m, err := a.Prepare(run)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunBlocks(nil); err != nil {
		t.Fatalf("run %d: %v", run, err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := []Config{
		mutate(func(c *Config) { c.Frames = 3 }),
		mutate(func(c *Config) { c.Frames = 6 }),
		mutate(func(c *Config) { c.Sensors = 1 }),
		mutate(func(c *Config) { c.Sensors = 100 }),
		mutate(func(c *Config) { c.Taps = 1 }),
		mutate(func(c *Config) { c.Taps = 64 }),
		mutate(func(c *Config) { c.CodeBase = 2 }),
		mutate(func(c *Config) { c.DataBase = 4 }),
		mutate(func(c *Config) { c.DataBase = 1 << 40 }),
		mutate(func(c *Config) { c.ExtremeProb = 1.5 }),
		mutate(func(c *Config) { c.Frames = 64; c.Sensors = 64 }), // raw overflow
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestProgramBuilds(t *testing.T) {
	a := newApp(t)
	p := a.Program()
	if p.Len() < 100 {
		t.Errorf("program suspiciously small: %d instructions", p.Len())
	}
	if p.CodeBase != DefaultConfig().CodeBase {
		t.Errorf("code base %#x", p.CodeBase)
	}
	// Disassembly smoke test.
	lst := DisassembleTask(p)
	if len(lst) != p.Len() {
		t.Fatal("listing length mismatch")
	}
	joined := strings.Join(lst, "\n")
	for _, want := range []string{"fdiv", "fsqrt", "call", "fld", "halt"} {
		if !strings.Contains(joined, want) {
			t.Errorf("listing lacks %q", want)
		}
	}
}

func TestGuestMatchesReferenceBitExact(t *testing.T) {
	a := newApp(t)
	for run := 0; run < 10; run++ {
		m := runGuest(t, a, run)
		ref, err := a.Reference(run)
		if err != nil {
			t.Fatal(err)
		}
		got := a.Filtered(m)
		for ch := range ref.Filtered {
			if got[ch] != ref.Filtered[ch] {
				t.Errorf("run %d ch %d: filtered %v != ref %v", run, ch, got[ch], ref.Filtered[ch])
			}
		}
		outX, outY := a.Outputs(m)
		if outX != ref.OutX || outY != ref.OutY {
			t.Errorf("run %d: outputs (%v,%v) != ref (%v,%v)", run, outX, outY, ref.OutX, ref.OutY)
		}
		clamp, satX, satY := a.Counters(m)
		if int(clamp) != ref.Clamp || int(satX) != ref.SatX || int(satY) != ref.SatY {
			t.Errorf("run %d: counters (%d,%d,%d) != ref (%d,%d,%d)",
				run, clamp, satX, satY, ref.Clamp, ref.SatX, ref.SatY)
		}
	}
}

func TestInputsDeterministicPerRun(t *testing.T) {
	a := newApp(t)
	i1 := a.Inputs(7)
	i2 := a.Inputs(7)
	for f := range i1 {
		for ch := range i1[f] {
			if i1[f][ch] != i2[f][ch] {
				t.Fatal("inputs not deterministic")
			}
		}
	}
	// Different runs differ.
	i3 := a.Inputs(8)
	same := true
	for f := range i1 {
		for ch := range i1[f] {
			if i1[f][ch] != i3[f][ch] {
				same = false
			}
		}
	}
	if same {
		t.Error("runs 7 and 8 produced identical inputs")
	}
}

func TestInputsBounded(t *testing.T) {
	a := newApp(t)
	for run := 0; run < 20; run++ {
		for _, frame := range a.Inputs(run) {
			for _, v := range frame {
				if math.IsNaN(v) || math.Abs(v) > 100 {
					t.Fatalf("run %d input %v out of range", run, v)
				}
			}
		}
	}
}

func TestPathsVaryAcrossRuns(t *testing.T) {
	a := newApp(t)
	paths := make(map[string]int)
	for run := 0; run < 60; run++ {
		m := runGuest(t, a, run)
		p := a.PathOf(m)
		if p == "" {
			t.Fatal("empty path id")
		}
		paths[p]++
	}
	if len(paths) < 2 {
		t.Errorf("only %d distinct paths across 60 runs: %v", len(paths), paths)
	}
}

func TestExtremeInputsTriggerFaultPaths(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExtremeProb = 1.0 // every run has a transient
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawClamp := false
	for run := 0; run < 20 && !sawClamp; run++ {
		m := runGuest(t, a, run)
		clamp, _, _ := a.Counters(m)
		if clamp > 0 {
			sawClamp = true
		}
	}
	if !sawClamp {
		t.Error("40x transients never triggered the clamp path in 20 runs")
	}
	// And with no extremes, clamping should be rare or absent.
	cfg.ExtremeProb = 0
	quiet, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clampTotal := uint32(0)
	for run := 0; run < 10; run++ {
		m := runGuest(t, quiet, run)
		c, _, _ := quiet.Counters(m)
		clampTotal += c
	}
	if clampTotal > 0 {
		t.Errorf("clamping occurred %d times without transients", clampTotal)
	}
}

func TestRunsAreReproducible(t *testing.T) {
	a := newApp(t)
	m1 := runGuest(t, a, 3)
	m2 := runGuest(t, a, 3)
	f1, f2 := a.Filtered(m1), a.Filtered(m2)
	for ch := range f1 {
		if f1[ch] != f2[ch] {
			t.Fatal("same run index produced different results")
		}
	}
	if m1.Steps() != m2.Steps() {
		t.Errorf("instruction counts differ: %d vs %d", m1.Steps(), m2.Steps())
	}
}

func TestInstructionCountScale(t *testing.T) {
	a := newApp(t)
	m := runGuest(t, a, 0)
	// 16 frames x 16 channels x 16 taps should land in the tens of
	// thousands of instructions — sanity-check the workload scale.
	if m.Steps() < 10_000 || m.Steps() > 1_000_000 {
		t.Errorf("instructions per run = %d, expected 1e4..1e6", m.Steps())
	}
}

func TestTasksMatchPaperStructure(t *testing.T) {
	tasks := Tasks()
	if len(tasks) != 3 {
		t.Fatalf("%d tasks, want 3", len(tasks))
	}
	if tasks[0].Name != "sensor-acq" || tasks[0].Period != 1 {
		t.Error("sensor task wrong")
	}
	if tasks[1].Period != 2 || tasks[2].Period != 4 {
		t.Error("actuator periods wrong")
	}
	// Sensor has the highest priority.
	if tasks[0].Priority >= tasks[1].Priority || tasks[1].Priority >= tasks[2].Priority {
		t.Error("priorities not descending")
	}
}

func TestFIRCoefficientsNormalized(t *testing.T) {
	sum := 0.0
	for t2 := 0; t2 < 16; t2++ {
		c := firCoef(t2, 16)
		if c < 0 {
			t.Errorf("negative coefficient %v", c)
		}
		sum += c
	}
	// Raised-cosine window normalized by taps: DC gain ~0.5.
	if sum < 0.3 || sum > 0.7 {
		t.Errorf("DC gain %v out of expected band", sum)
	}
}

func TestAlternateGeometries(t *testing.T) {
	for _, mod := range []func(*Config){
		func(c *Config) { c.Frames = 8 },
		func(c *Config) { c.Sensors = 4 },
		func(c *Config) { c.Taps = 4 },
		func(c *Config) { c.CodeBase = 0x40000; c.DataBase = 0x200000 },
	} {
		cfg := DefaultConfig()
		mod(&cfg)
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := runGuest(t, a, 0)
		ref, err := a.Reference(0)
		if err != nil {
			t.Fatal(err)
		}
		got := a.Filtered(m)
		for ch := range ref.Filtered {
			if got[ch] != ref.Filtered[ch] {
				t.Fatalf("cfg %+v: guest/ref mismatch", cfg)
			}
		}
	}
}

func TestUnrolledSensorMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frames = 8
	cfg.UnrollChannels = true
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The unrolled text segment is much larger than the looped one.
	looped := newApp(t)
	if a.Program().Len() < 4*looped.Program().Len()/2 {
		t.Errorf("unrolled program %d instrs vs looped %d — not unrolled?",
			a.Program().Len(), looped.Program().Len())
	}
	for run := 0; run < 5; run++ {
		m := runGuest(t, a, run)
		ref, err := a.Reference(run)
		if err != nil {
			t.Fatal(err)
		}
		got := a.Filtered(m)
		for ch := range ref.Filtered {
			if got[ch] != ref.Filtered[ch] {
				t.Fatalf("run %d ch %d: %v != %v", run, ch, got[ch], ref.Filtered[ch])
			}
		}
		clamp, sx, sy := a.Counters(m)
		if int(clamp) != ref.Clamp || int(sx) != ref.SatX || int(sy) != ref.SatY {
			t.Fatalf("run %d counters mismatch", run)
		}
	}
}

func TestUnrolledCodeCreatesICachePressure(t *testing.T) {
	// The unrolled binary's text must exceed the 16KB IL1, the point of
	// the ablation.
	cfg := DefaultConfig()
	cfg.UnrollChannels = true
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	codeBytes := a.Program().Len() * 4
	if codeBytes < 16*1024 {
		t.Errorf("unrolled text only %d bytes", codeBytes)
	}
}
