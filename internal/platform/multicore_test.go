package platform

import (
	"context"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/tvca"
)

// tinyTVCA is a cheap workload for co-simulation tests.
func tinyTVCA(t *testing.T) *tvca.App {
	t.Helper()
	cfg := tvca.DefaultConfig()
	cfg.Frames = 4
	cfg.Sensors = 8
	cfg.Taps = 8
	app, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// streamer is a memory-streaming co-runner: it sweeps a large buffer,
// missing constantly — a worst-case-ish bus hog.
type streamer struct{ lines int32 }

func (s streamer) Name() string { return "streamer" }
func (s streamer) Prepare(run int) (*isa.Machine, error) {
	b := isa.NewBuilder("streamer", 0x8000)
	b.Li(1, 0x400000)
	b.Li(2, 0)
	b.Li(3, s.lines)
	b.Label("loop")
	b.Ld(4, 1, 0)
	b.Addi(1, 1, 32)
	b.Addi(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return isa.NewMachine(p, isa.NewMemory()), nil
}
func (s streamer) PathOf(*isa.Machine) string { return "" }

func TestNewMulticoreValidation(t *testing.T) {
	app := tinyTVCA(t)
	if _, err := NewMulticore(RAND(), []Workload{app, app, app, app}); err == nil {
		t.Error("4 co-runners on a 4-core platform accepted")
	}
	if _, err := NewMulticore(RAND(), []Workload{nil}); err == nil {
		t.Error("nil co-runner accepted")
	}
	if _, err := NewMulticore(RAND(), []Workload{app}); err != nil {
		t.Errorf("valid multicore rejected: %v", err)
	}
}

func TestMulticoreSoloMatchesSinglecore(t *testing.T) {
	// With no co-runners, the co-simulation must reproduce the
	// single-core platform's cycle count exactly (same seed derivation
	// differs, so compare against a Multicore-run with zero co-runners
	// twice for determinism, and against plausibility bounds).
	app := tinyTVCA(t)
	mc, err := NewMulticore(RAND(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := mc.ExecuteRun(context.Background(), app, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mc.ExecuteRun(context.Background(), app, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("solo multicore not deterministic: %+v vs %+v", r1, r2)
	}
	if r1.Cycles == 0 || r1.Instructions == 0 {
		t.Errorf("empty measurement %+v", r1)
	}
}

func TestMulticoreDeterministicWithCoRunners(t *testing.T) {
	app := tinyTVCA(t)
	co := streamer{lines: 256}
	mc, err := NewMulticore(RAND(), []Workload{co, co, co})
	if err != nil {
		t.Fatal(err)
	}
	var first RunResult
	for trial := 0; trial < 5; trial++ {
		r, err := mc.ExecuteRun(context.Background(), app, 1, 99)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = r
			continue
		}
		if r != first {
			t.Fatalf("trial %d: measured %+v != %+v (state leaks across runs)",
				trial, r, first)
		}
	}
}

// TestMulticoreContentionSlowsMeasuredCore: three streaming co-runners
// that replay their recorded iteration slow the measured core down
// (TestInterferenceSlowsDownRuns checks unkeyed ones).
func TestMulticoreContentionSlowsMeasuredCore(t *testing.T) {
	app := tinyTVCA(t)
	solo, err := NewMulticore(RAND(), nil)
	if err != nil {
		t.Fatal(err)
	}
	co := stableStreamer{streamer{lines: 512}}
	noisy, err := NewMulticore(RAND(), []Workload{co, co, co})
	if err != nil {
		t.Fatal(err)
	}
	slower := 0
	for run := 0; run < 4; run++ {
		rs, err := solo.ExecuteRun(context.Background(), app, run, 5)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := noisy.ExecuteRun(context.Background(), app, run, 5)
		if err != nil {
			t.Fatal(err)
		}
		if rn.Cycles > rs.Cycles {
			slower++
		}
		if noisy.BusStats().WaitCycles == 0 {
			t.Error("no bus contention recorded with 3 streaming co-runners")
		}
	}
	if slower < 4 {
		t.Errorf("contention slowed only %d/4 runs", slower)
	}
}

func TestMulticoreCoRunnersMakeProgress(t *testing.T) {
	// Every line of the co-runner's first 64-line sweep misses, so a
	// co-runner that completes an iteration during the measured run
	// puts at least 64 bus transactions on top of the measured core's.
	app := tinyTVCA(t)
	solo, err := NewMulticore(RAND(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMulticore(RAND(), []Workload{streamer{lines: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.ExecuteRun(context.Background(), app, 0, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.ExecuteRun(context.Background(), app, 0, 11); err != nil {
		t.Fatal(err)
	}
	own, all := solo.BusStats().Transactions, mc.BusStats().Transactions
	if all < own+64 {
		t.Errorf("%d bus transactions with the co-runner, %d without: the co-runner completed no sweep", all, own)
	}
}

func TestMulticoreArchitecturalResultUnaffected(t *testing.T) {
	// Contention changes timing, never results: the measured path must
	// match the single-core platform's for the same run index.
	app := tinyTVCA(t)
	p, err := New(RAND())
	if err != nil {
		t.Fatal(err)
	}
	single, err := p.ExecuteRun(context.Background(), app, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMulticore(RAND(), []Workload{streamer{lines: 256}})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := mc.ExecuteRun(context.Background(), app, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if single.Path != multi.Path {
		t.Errorf("path %q != %q", single.Path, multi.Path)
	}
	if single.Instructions != multi.Instructions {
		t.Errorf("instructions %d != %d", single.Instructions, multi.Instructions)
	}
}

// failingWorkload errors at Prepare to test propagation.
type failingWorkload struct{}

func (failingWorkload) Name() string { return "failing" }
func (failingWorkload) Prepare(int) (*isa.Machine, error) {
	return nil, errTest
}
func (failingWorkload) PathOf(*isa.Machine) string { return "" }

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "synthetic failure" }

func TestMulticoreCoRunnerErrorPropagates(t *testing.T) {
	app := tinyTVCA(t)
	mc, err := NewMulticore(RAND(), []Workload{failingWorkload{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.ExecuteRun(context.Background(), app, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("co-runner error not propagated: %v", err)
	}
}

func TestMulticoreMeasuredErrorPropagates(t *testing.T) {
	mc, err := NewMulticore(RAND(), []Workload{streamer{lines: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.ExecuteRun(context.Background(), failingWorkload{}, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("measured-core error not propagated: %v", err)
	}
}

func TestMulticoreSeedsChangeTiming(t *testing.T) {
	// Needs the cache-pressured workload geometry: the tiny test app
	// fits in the caches and is placement-insensitive.
	cfg := tvca.DefaultConfig()
	cfg.Frames = 4
	app, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMulticore(RAND(), []Workload{streamer{lines: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for seed := uint64(1); seed <= 8; seed++ {
		r, err := mc.ExecuteRun(context.Background(), app, 1, seed*7919)
		if err != nil {
			t.Fatal(err)
		}
		seen[r.Cycles] = true
	}
	if len(seen) < 4 {
		t.Errorf("only %d distinct timings over 8 seeds", len(seen))
	}
}

// TestMulticorePairedDominance: under equal run seeds, adding
// co-runners never shortens a measured run. Core 0's seeds do not
// depend on the core count, so the boards with 0, 1 and 3 streamers
// place and replace the measured core's lines identically, and only the
// co-runners' bus and DRAM traffic differs. Checked over 200 seeds each
// for 4-frame TVCA (replayed from its third run on) and for a crc32 over
// 24 KiB (interpreted every run), whose misses make contention a
// measurable share.
func TestMulticorePairedDominance(t *testing.T) {
	tv := tvca.DefaultConfig()
	tv.Frames = 4
	app, err := tvca.New(tv)
	if err != nil {
		t.Fatal(err)
	}
	co := stableStreamer{streamer{lines: 1024}}
	for _, w := range []Workload{app, kernels.CRC32{Bytes: 24 << 10, Seed: 1}} {
		var boards []*Multicore
		for _, n := range []int{0, 1, 3} {
			mc, err := NewMulticore(RAND(), []Workload{co, co, co}[:n])
			if err != nil {
				t.Fatal(err)
			}
			boards = append(boards, mc)
		}
		slower := 0
		for run := 0; run < 200; run++ {
			seed := DeriveRunSeed(17, run)
			var cycles [3]uint64
			for i, mc := range boards {
				r, err := mc.ExecuteRun(context.Background(), w, run, seed)
				if err != nil {
					t.Fatal(err)
				}
				if cycles[i] = r.Cycles; i > 0 && cycles[i] < cycles[i-1] {
					t.Errorf("%s run %d (seed %#x): %d cycles with more co-runners, %d with fewer",
						w.Name(), run, seed, cycles[i], cycles[i-1])
				}
			}
			if cycles[2] > cycles[0] {
				slower++
			}
		}
		t.Logf("%s: %d/200 runs slower against 3 streamers than solo", w.Name(), slower)
		if slower == 0 {
			t.Errorf("%s: no run slowed down; the property was not exercised", w.Name())
		}
	}
}
