package platform

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/fpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/tlb"
	"repro/internal/tvca"
)

func smallTVCA(t *testing.T) *tvca.App {
	t.Helper()
	cfg := tvca.DefaultConfig()
	cfg.Frames = 8 // halve the run length; keep the cache pressure
	app, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestConfigsValidate(t *testing.T) {
	for _, cfg := range []Config{DET(), RAND()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestPaperGeometry(t *testing.T) {
	for _, cfg := range []Config{DET(), RAND()} {
		if cfg.Cores != 4 {
			t.Errorf("%s: cores = %d, want 4", cfg.Name, cfg.Cores)
		}
		for _, cc := range []cache.Config{cfg.IL1, cfg.DL1} {
			if cc.SizeBytes != 16*1024 || cc.Ways != 4 {
				t.Errorf("%s/%s: geometry %d/%d-way, want 16KB 4-way",
					cfg.Name, cc.Name, cc.SizeBytes, cc.Ways)
			}
		}
		if cfg.DL1.WriteAllocate {
			t.Errorf("%s: DL1 must be no-write-allocate", cfg.Name)
		}
		for _, tc := range []tlb.Config{cfg.ITLB, cfg.DTLB} {
			if tc.Entries != 64 {
				t.Errorf("%s/%s: %d entries, want 64", cfg.Name, tc.Name, tc.Entries)
			}
		}
	}
}

func TestDETvsRANDPolicies(t *testing.T) {
	det, rand := DET(), RAND()
	if det.IL1.Placement != cache.PlacementModulo || det.IL1.Replacement != cache.ReplaceLRU {
		t.Error("DET IL1 policies wrong")
	}
	if det.FPUMode != fpu.ModeOperation {
		t.Error("DET FPU mode wrong")
	}
	if rand.IL1.Placement != cache.PlacementRandomModulo || rand.IL1.Replacement != cache.ReplaceRandom {
		t.Error("RAND IL1 policies wrong")
	}
	if rand.ITLB.Replacement != tlb.ReplaceRandom || rand.DTLB.Replacement != tlb.ReplaceRandom {
		t.Error("RAND TLB policies wrong")
	}
	if rand.FPUMode != fpu.ModeAnalysis {
		t.Error("RAND FPU mode wrong")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	c := DET()
	c.Cores = 0
	if err := c.Validate(); err == nil {
		t.Error("cores=0 accepted")
	}
	c = DET()
	c.FPUMode = "turbo"
	if err := c.Validate(); err == nil {
		t.Error("bad FPU mode accepted")
	}
}

func TestDETRunsAreBitIdenticalAcrossSeeds(t *testing.T) {
	// The deterministic platform must produce the same cycle count for
	// the same run (same inputs) regardless of the run seed.
	app := smallTVCA(t)
	p, err := New(DET())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p.ExecuteRun(context.Background(), app, 5, 111)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.ExecuteRun(context.Background(), app, 5, 999999)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Errorf("DET cycles differ across seeds: %d vs %d", r1.Cycles, r2.Cycles)
	}
}

func TestRANDRunsVaryAcrossSeeds(t *testing.T) {
	app := smallTVCA(t)
	p, err := New(RAND())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for seed := uint64(1); seed <= 12; seed++ {
		r, err := p.ExecuteRun(context.Background(), app, 5, seed*7919)
		if err != nil {
			t.Fatal(err)
		}
		seen[r.Cycles] = true
	}
	if len(seen) < 6 {
		t.Errorf("RAND produced only %d distinct times over 12 seeds", len(seen))
	}
}

func TestRunReproducibleGivenSeed(t *testing.T) {
	app := smallTVCA(t)
	for _, cfg := range []Config{DET(), RAND()} {
		p1, _ := New(cfg)
		p2, _ := New(cfg)
		a, err := p1.ExecuteRun(context.Background(), app, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p2.ExecuteRun(context.Background(), app, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles || a.Path != b.Path || a.Instructions != b.Instructions {
			t.Errorf("%s: runs with same seed differ: %+v vs %+v", cfg.Name, a, b)
		}
	}
}

func TestArchitecturalResultsPlatformIndependent(t *testing.T) {
	// Timing differs between DET and RAND but the computed outputs and
	// executed path must be identical — the same binary and inputs.
	app := smallTVCA(t)
	det, _ := New(DET())
	rand, _ := New(RAND())
	for run := 0; run < 5; run++ {
		rd, err := det.ExecuteRun(context.Background(), app, run, 1)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := rand.ExecuteRun(context.Background(), app, run, 2)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Path != rr.Path {
			t.Errorf("run %d: path %q (DET) != %q (RAND)", run, rd.Path, rr.Path)
		}
		if rd.Instructions != rr.Instructions {
			t.Errorf("run %d: instructions %d != %d", run, rd.Instructions, rr.Instructions)
		}
	}
}

func TestCampaignDeterministicAndOrdered(t *testing.T) {
	app := smallTVCA(t)
	opts := StreamOptions{MaxRuns: 24, BatchSize: 24, BaseSeed: 7, Parallel: 4}
	c1, err := StreamCampaign(context.Background(), RAND(), app, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 1
	c2, err := StreamCampaign(context.Background(), RAND(), app, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Results) != 24 || len(c2.Results) != 24 {
		t.Fatal("wrong result count")
	}
	for i := range c1.Results {
		if c1.Results[i] != c2.Results[i] {
			t.Fatalf("run %d differs between parallel and serial: %+v vs %+v",
				i, c1.Results[i], c2.Results[i])
		}
	}
	if c1.Platform != "RAND" || c1.Workload != "TVCA" {
		t.Errorf("labels %q %q", c1.Platform, c1.Workload)
	}
}

func TestCampaignTimesAndPaths(t *testing.T) {
	app := smallTVCA(t)
	c, err := StreamCampaign(context.Background(), RAND(), app,
		StreamOptions{MaxRuns: 30, BatchSize: 30, BaseSeed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	times := c.Times()
	if len(times) != 30 {
		t.Fatal("times length")
	}
	for _, v := range times {
		if v <= 0 {
			t.Fatal("non-positive execution time")
		}
	}
	byPath := c.TimesByPath()
	total := 0
	for _, ts := range byPath {
		total += len(ts)
	}
	if total != 30 {
		t.Errorf("per-path counts sum to %d", total)
	}
}

func TestCampaignRejectsZeroRuns(t *testing.T) {
	app := smallTVCA(t)
	if _, err := StreamCampaign(context.Background(), RAND(), app, StreamOptions{MaxRuns: 0}, nil); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestDeriveRunSeedDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		s := DeriveRunSeed(42, i)
		if seen[s] {
			t.Fatalf("duplicate seed at run %d", i)
		}
		seen[s] = true
	}
}

// TestInterferenceSlowsDownRuns: three unkeyed streaming co-runners,
// produced from their machines on every run, slow the measured core
// down on a Multicore board against the same board without them
// (TestMulticoreContentionSlowsMeasuredCore checks replayed ones).
func TestInterferenceSlowsDownRuns(t *testing.T) {
	app := smallTVCA(t)
	base, err := NewMulticore(RAND(), nil)
	if err != nil {
		t.Fatal(err)
	}
	co := streamer{lines: 512}
	noisy, err := NewMulticore(RAND(), []Workload{co, co, co})
	if err != nil {
		t.Fatal(err)
	}
	slower := 0
	for run := 0; run < 5; run++ {
		rb, err := base.ExecuteRun(context.Background(), app, run, 9)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := noisy.ExecuteRun(context.Background(), app, run, 9)
		if err != nil {
			t.Fatal(err)
		}
		if rn.Cycles > rb.Cycles {
			slower++
		}
		if noisy.co[1].stable || noisy.co[1].done {
			t.Fatal("unkeyed co-runner replayed a recording")
		}
	}
	if slower < 4 {
		t.Errorf("co-runners made only %d/5 runs slower", slower)
	}
}

// trivialWorkload exercises the Workload plumbing with a 3-instruction
// program.
type trivialWorkload struct{}

func (trivialWorkload) Name() string { return "trivial" }
func (trivialWorkload) Prepare(run int) (*isa.Machine, error) {
	b := isa.NewBuilder("trivial", 0)
	b.Li(1, int32(run)).Halt()
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return isa.NewMachine(p, isa.NewMemory()), nil
}
func (trivialWorkload) PathOf(*isa.Machine) string { return "" }

func TestTrivialWorkloadRuns(t *testing.T) {
	p, err := New(DET())
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.ExecuteRun(context.Background(), trivialWorkload{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != 2 {
		t.Errorf("instructions = %d, want 2", r.Instructions)
	}
	if r.Path != "" {
		t.Errorf("path = %q", r.Path)
	}
}

func TestDeriveRunSeedBitBalance(t *testing.T) {
	// Each output bit should be set for roughly half the run indices —
	// a heavily biased bit would correlate the per-run randomization.
	const n = 10000
	var ones [64]int
	for i := 0; i < n; i++ {
		s := DeriveRunSeed(42, i)
		for b := 0; b < 64; b++ {
			if s>>uint(b)&1 == 1 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		// 5000 +- ~5 sigma (sigma = sqrt(n)/2 = 50).
		if c < 4750 || c > 5250 {
			t.Errorf("bit %d set in %d/%d seeds", b, c, n)
		}
	}
}

func TestDeriveRunSeedAvalanche(t *testing.T) {
	// Adjacent run indices must produce uncorrelated seeds: the mean
	// Hamming distance between seeds of consecutive runs is ~32 bits.
	const n = 5000
	total := 0
	for i := 0; i < n; i++ {
		d := DeriveRunSeed(7, i) ^ DeriveRunSeed(7, i+1)
		for ; d != 0; d &= d - 1 {
			total++
		}
	}
	mean := float64(total) / n
	if mean < 28 || mean > 36 {
		t.Errorf("mean Hamming distance %.2f, want ~32", mean)
	}
}

func TestDeriveRunSeedNoCollisionsAcrossBases(t *testing.T) {
	// Campaigns with different base seeds should not share per-run
	// seeds over realistic campaign sizes.
	seen := make(map[uint64]string, 40000)
	for _, base := range []uint64{0, 1, 42, 0xDEADBEEF} {
		for i := 0; i < 10000; i++ {
			s := DeriveRunSeed(base, i)
			key := fmt.Sprintf("base %#x run %d", base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both map to %#x", prev, key, s)
			}
			seen[s] = key
		}
	}
}

// TestTraceRecordingGrowsOnDemand: recording a small run-invariant
// workload on a fresh board allocates in proportion to its trace, on
// both the single-core Platform and the Multicore board (measured
// workload plus a run-invariant co-runner, both recorded as block
// traces). Later runs must replay the recording.
func TestTraceRecordingGrowsOnDemand(t *testing.T) {
	// Each recording here fits one 32 KB trace chunk: the recording runs
	// allocate about 42 KB (Platform) and 79 KB (Multicore). A fixed
	// 65,536-event buffer of the old per-instruction format cost 3.7 MB.
	const limit = 256 << 10
	w := kernels.MatMul{N: 8, Seed: 1}
	allocated := func(run func() error) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	p, err := New(RAND())
	if err != nil {
		t.Fatal(err)
	}
	uni := allocated(func() error {
		_, err := p.ExecuteRun(context.Background(), w, 0, DeriveRunSeed(5, 0))
		return err
	})
	if uni >= limit {
		t.Errorf("Platform: recording run allocated %d bytes, want < %d", uni, limit)
	}
	if _, err := p.ExecuteRun(context.Background(), w, 1, DeriveRunSeed(5, 1)); err != nil {
		t.Fatal(err)
	}
	if st := p.BoardStats(); st.ReplayRuns != 1 {
		t.Errorf("Platform: %d replayed runs after recording, want 1", st.ReplayRuns)
	}

	mc, err := NewMulticore(RAND(), []Workload{stableStreamer{streamer{lines: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.ensureBoard(); err != nil {
		t.Fatal(err)
	}
	multi := allocated(func() error {
		_, err := mc.ExecuteRun(context.Background(), w, 0, DeriveRunSeed(5, 0))
		return err
	})
	if multi >= limit {
		t.Errorf("Multicore: recording run allocated %d bytes, want < %d", multi, limit)
	}
	// The co-runner's ~260-instruction iteration is one chunk plus its
	// replay tables (33 KB); one 1,024-event chunk of the per-instruction
	// format it replaced took 56 KB.
	co := &mc.co[1].src
	if !mc.co[1].done {
		t.Fatal("Multicore: the co-runner recorded no whole iteration")
	}
	if n := co.bytes(); n > 40<<10 {
		t.Errorf("Multicore: co-runner trace takes %d bytes, want <= %d", n, 40<<10)
	}
	// The replayed runs must match a board that
	// interprets the same workload every run.
	interp, err := NewMulticore(RAND(), []Workload{stableStreamer{streamer{lines: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		seed := DeriveRunSeed(5, i)
		got, err := mc.ExecuteRun(context.Background(), w, i, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := interp.ExecuteRun(context.Background(), opaqueWorkload{w}, i, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Multicore run %d: replayed %+v, interpreted %+v", i, got, want)
		}
	}
	if st := mc.BoardStats(); st.ReplayRuns != 4 {
		t.Errorf("Multicore: %d replayed runs after recording, want 4", st.ReplayRuns)
	}
	t.Logf("recording run allocated %d B (Platform), %d B (Multicore)", uni, multi)
}
