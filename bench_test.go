// Package repro's benchmark harness regenerates every table and figure
// of the paper (one benchmark per experiment in DESIGN.md's index) and
// the design-choice ablations. Benchmarks use reduced campaigns (600
// runs, 8-frame major frames) so `go test -bench=.` completes in
// minutes; `cmd/experiments -runs 3000` reproduces the paper-scale
// evaluation. Custom metrics report the headline numbers of each
// artifact alongside the wall-clock cost of regenerating it.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/evt"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/matrix"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tvca"
)

// benchParams returns the reduced evaluation setup shared by the
// experiment benchmarks.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Runs = 600
	cfg := tvca.DefaultConfig()
	cfg.Frames = 8
	p.TVCA = cfg
	return p
}

func newEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.NewEnv(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkE1IIDTests regenerates the §III i.i.d. table (paper values:
// Ljung-Box 0.83, KS 0.45).
func BenchmarkE1IIDTests(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := newEnv(b)
		r, err := experiments.E1IID(env)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Pass {
			b.Fatal("i.i.d. gate failed")
		}
		b.ReportMetric(r.Independence.PValue, "LjungBox-p")
		b.ReportMetric(r.IdentDist.PValue, "KS-p")
	}
}

// BenchmarkE2PWCETCurve regenerates Figure 2 (pWCET curve).
func BenchmarkE2PWCETCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := newEnv(b)
		r, err := experiments.E2PWCETCurve(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PWCET[1e-15]/r.HWM, "pWCET1e-15/HWM")
	}
}

// BenchmarkE3MBPTAvsDET regenerates Figure 3 (MBPTA vs DET).
func BenchmarkE3MBPTAvsDET(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := newEnv(b)
		r, err := experiments.E3Comparison(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RatioAtCutoff[1e-6], "pWCET1e-6/DETHWM")
		b.ReportMetric(r.RatioAtCutoff[1e-15], "pWCET1e-15/DETHWM")
	}
}

// BenchmarkE4AvgPerformance regenerates the average-performance
// comparison (paper: no noticeable difference).
func BenchmarkE4AvgPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := newEnv(b)
		r, err := experiments.E4AvgPerformance(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.RelativeOverhead, "overhead-%")
	}
}

// BenchmarkE5Convergence regenerates the campaign-size convergence
// trace.
func BenchmarkE5Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := newEnv(b)
		r, err := experiments.E5Convergence(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.StopAt), "runs-to-converge")
	}
}

// BenchmarkE6FPUJitter regenerates the FPU jitter-control check.
func BenchmarkE6FPUJitter(b *testing.B) {
	env := newEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.E6FPUJitter(env)
		if err != nil {
			b.Fatal(err)
		}
		if !r.UpperBoundsHold {
			b.Fatal("FPU upper bound violated")
		}
		b.ReportMetric(float64(r.DivOpMax-r.DivOpMin), "div-jitter-cycles")
	}
}

// BenchmarkE7PlacementAblation regenerates the memory-layout ablation.
func BenchmarkE7PlacementAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := newEnv(b)
		r, err := experiments.E7PlacementAblation(env, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.DETSpread, "DET-layout-spread-%")
		b.ReportMetric(100*r.CoverFraction, "RAND-cover-%")
	}
}

// --- Design-choice ablations (DESIGN.md §5) ---

// BenchmarkAblationFitMethod compares the Gumbel estimators on the same
// synthetic maxima.
func BenchmarkAblationFitMethod(b *testing.B) {
	truth := evt.Gumbel{Mu: 10000, Beta: 150}
	src := rng.NewXoroshiro128(12)
	maxima := truth.Sample(src, 200)
	for _, m := range []evt.FitMethod{evt.MethodPWM, evt.MethodMoments, evt.MethodMLE} {
		b.Run(string(m), func(b *testing.B) {
			var fit evt.Gumbel
			var err error
			for i := 0; i < b.N; i++ {
				fit, err = evt.FitGumbel(maxima, m)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(fit.Beta, "beta")
		})
	}
}

// BenchmarkAblationBlockSize sweeps the block-maxima block length.
func BenchmarkAblationBlockSize(b *testing.B) {
	truth := evt.Gumbel{Mu: 10000, Beta: 150}
	src := rng.NewXoroshiro128(13)
	times := truth.Sample(src, 3000)
	for _, bs := range []int{20, 50, 100} {
		b.Run(map[int]string{20: "B20", 50: "B50", 100: "B100"}[bs], func(b *testing.B) {
			var bound float64
			for i := 0; i < b.N; i++ {
				an := core.NewAnalyzer(core.Options{BlockSize: bs})
				res, err := an.Analyze(times)
				if err != nil {
					b.Fatal(err)
				}
				if bound, err = res.PWCET(1e-12); err != nil {
					b.Fatal(err)
				}
			}
			want, _ := truth.QuantileSF(1e-12)
			b.ReportMetric(bound/want, "bound/truth")
		})
	}
}

// BenchmarkAblationPlacement compares cache placement policies on the
// TVCA footprint: hit ratio and (for the randomized ones) run-to-run
// spread.
func BenchmarkAblationPlacement(b *testing.B) {
	cases := []struct {
		name string
		p    cache.Placement
		r    cache.Replacement
	}{
		{"modulo-LRU", cache.PlacementModulo, cache.ReplaceLRU},
		{"randmod-rand", cache.PlacementRandomModulo, cache.ReplaceRandom},
		{"hash-rand", cache.PlacementRandomHash, cache.ReplaceRandom},
	}
	cfg := tvca.DefaultConfig()
	cfg.Frames = 8
	app, err := tvca.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			pc := platform.RAND()
			pc.Name = c.name
			pc.IL1.Placement, pc.IL1.Replacement = c.p, c.r
			pc.DL1.Placement, pc.DL1.Replacement = c.p, c.r
			var mean float64
			for i := 0; i < b.N; i++ {
				camp, err := platform.StreamCampaign(context.Background(), pc, app,
					platform.StreamOptions{MaxRuns: 100, BaseSeed: 3}, nil)
				if err != nil {
					b.Fatal(err)
				}
				sum := 0.0
				for _, t := range camp.Times() {
					sum += t
				}
				mean = sum / float64(len(camp.Times()))
			}
			b.ReportMetric(mean, "mean-cycles")
		})
	}
}

// BenchmarkAblationReplacement compares LRU vs random vs round-robin
// replacement under randomized placement.
func BenchmarkAblationReplacement(b *testing.B) {
	cfg := tvca.DefaultConfig()
	cfg.Frames = 8
	app, err := tvca.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []cache.Replacement{cache.ReplaceLRU, cache.ReplaceRandom, cache.ReplaceRoundRobin} {
		b.Run(string(r), func(b *testing.B) {
			pc := platform.RAND()
			pc.Name = "RAND-" + string(r)
			pc.IL1.Replacement = r
			pc.DL1.Replacement = r
			var mean float64
			for i := 0; i < b.N; i++ {
				camp, err := platform.StreamCampaign(context.Background(), pc, app,
					platform.StreamOptions{MaxRuns: 100, BaseSeed: 5}, nil)
				if err != nil {
					b.Fatal(err)
				}
				sum := 0.0
				for _, t := range camp.Times() {
					sum += t
				}
				mean = sum / float64(len(camp.Times()))
			}
			b.ReportMetric(mean, "mean-cycles")
		})
	}
}

// BenchmarkAblationDRAMPolicy compares closed-page (jitterless) and
// open-page (row-buffer jitter) memory controllers on the DET platform.
func BenchmarkAblationDRAMPolicy(b *testing.B) {
	cfg := tvca.DefaultConfig()
	cfg.Frames = 8
	app, err := tvca.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []mem.Policy{mem.PolicyClosedPage, mem.PolicyOpenPage} {
		b.Run(string(pol), func(b *testing.B) {
			pc := platform.DET()
			pc.Name = "DET-" + string(pol)
			pc.DRAM.Policy = pol
			var spread float64
			for i := 0; i < b.N; i++ {
				camp, err := platform.StreamCampaign(context.Background(), pc, app,
					platform.StreamOptions{MaxRuns: 50, BaseSeed: 7}, nil)
				if err != nil {
					b.Fatal(err)
				}
				mn, mx := camp.Times()[0], camp.Times()[0]
				for _, t := range camp.Times() {
					if t < mn {
						mn = t
					}
					if t > mx {
						mx = t
					}
				}
				spread = (mx - mn) / mn
			}
			b.ReportMetric(100*spread, "spread-%")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw platform speed: simulated
// instructions per second for one TVCA run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := tvca.DefaultConfig()
	cfg.Frames = 8
	app, err := tvca.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, err := platform.New(platform.RAND())
	if err != nil {
		b.Fatal(err)
	}
	var instr uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := p.ExecuteRun(context.Background(), app, i, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		instr += r.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkTelemetryCampaignThroughput measures the observability
// layer's overhead on the campaign path, the configuration it is
// actually wired into: a streaming campaign with telemetry disabled
// (nil registry — the default everywhere) versus enabled with an
// attached ring sink. The acceptance bound is <3% on instr/s.
func BenchmarkTelemetryCampaignThroughput(b *testing.B) {
	cfg := tvca.DefaultConfig()
	cfg.Frames = 8
	app, err := tvca.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, reg *telemetry.Registry) {
		var instr uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			camp, err := platform.StreamCampaign(context.Background(), platform.RAND(), app,
				platform.StreamOptions{MaxRuns: 64, BatchSize: 16, Parallel: 1,
					BaseSeed: 42, Telemetry: reg}, nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range camp.Results {
				instr += r.Instructions
			}
		}
		b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) {
		reg := telemetry.New()
		reg.Attach(telemetry.NewRingSink(1024))
		run(b, reg)
	})
}

// BenchmarkE8Contention regenerates the multicore-contention extension
// (co-simulated co-runners).
func BenchmarkE8Contention(b *testing.B) {
	p := benchParams()
	cfg := p.TVCA
	cfg.Frames = 4
	p.TVCA = cfg
	env, err := experiments.NewEnv(p)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.E8Contention(env, 2, 300)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SlowdownByCoRunners[2], "slowdown-2co")
	}
}

// BenchmarkMulticoreThroughput measures co-simulation speed: simulated
// instructions per second on the measured core with three streaming
// co-runners.
func BenchmarkMulticoreThroughput(b *testing.B) {
	cfg := tvca.DefaultConfig()
	cfg.Frames = 4
	app, err := tvca.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	co := []platform.Workload{
		experiments.StreamerWorkload{Lines: 1024},
		experiments.StreamerWorkload{Lines: 1024},
		experiments.StreamerWorkload{Lines: 1024},
	}
	mc, err := platform.NewMulticore(platform.RAND(), co)
	if err != nil {
		b.Fatal(err)
	}
	var instr uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := mc.ExecuteRun(context.Background(), app, i, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		instr += r.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkMatrixWarmVsCold measures the scenario-matrix run cache
// (internal/matrix): the same 2x2 matrix executed against an empty
// cache directory (every run simulated) versus a pre-populated one
// (every run replayed from the journal). The cold/warm ns/op ratio is
// the cache's speedup; `make matrix-check` enforces the >=5x floor.
func BenchmarkMatrixWarmVsCold(b *testing.B) {
	spec := matrix.Spec{
		Name:      "bench",
		Platforms: []string{"DET", "RAND"},
		Workloads: []fabric.WorkloadSpec{
			{Kind: "crc32", Params: json.RawMessage(`{"Bytes":1024,"Seed":1}`)},
			{Kind: "isort", Params: json.RawMessage(`{"N":96,"Seed":1}`)},
		},
		Runs:     200,
		Batch:    50,
		BaseSeed: 42,
		Analysis: matrix.AnalysisSpec{BlockSize: 20},
	}
	pool := fabric.NewPool(fabric.Config{})
	defer pool.Close()
	pass := func(b *testing.B, dir string) *matrix.Report {
		cache, err := matrix.NewCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		runner := &matrix.Runner{Pool: pool, Cache: cache, CellParallel: 2}
		rep, err := runner.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	b.Run("cold", func(b *testing.B) {
		root := b.TempDir()
		b.ReportAllocs()
		b.ResetTimer()
		var runs int
		for i := 0; i < b.N; i++ {
			rep := pass(b, filepath.Join(root, fmt.Sprintf("cold%d", i)))
			runs += rep.SimulatedRuns + rep.CachedRuns
		}
		b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/s")
	})
	b.Run("warm", func(b *testing.B) {
		dir := filepath.Join(b.TempDir(), "cache")
		pass(b, dir) // populate
		b.ReportAllocs()
		b.ResetTimer()
		var runs int
		for i := 0; i < b.N; i++ {
			rep := pass(b, dir)
			if rep.SimulatedRuns != 0 {
				b.Fatalf("warm pass re-simulated %d runs", rep.SimulatedRuns)
			}
			runs += rep.CachedRuns
		}
		b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/s")
	})
}

// BenchmarkE9Generality regenerates the workload-generality table.
func BenchmarkE9Generality(b *testing.B) {
	env := newEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.E9Generality(env, 400)
		if err != nil {
			b.Fatal(err)
		}
		pass := 0
		for _, k := range r.Kernels {
			if k.IIDPass {
				pass++
			}
		}
		b.ReportMetric(float64(pass), "kernels-gate-pass")
	}
}

// BenchmarkAblationCodeLayout compares the looped and unrolled TVCA
// code shapes: the unrolled text exceeds the IL1, adding
// instruction-cache placement sensitivity on the randomized platform.
func BenchmarkAblationCodeLayout(b *testing.B) {
	for _, unroll := range []bool{false, true} {
		name := "looped"
		if unroll {
			name = "unrolled"
		}
		b.Run(name, func(b *testing.B) {
			cfg := tvca.DefaultConfig()
			cfg.Frames = 8
			cfg.UnrollChannels = unroll
			app, err := tvca.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var cov float64
			for i := 0; i < b.N; i++ {
				camp, err := platform.StreamCampaign(context.Background(), platform.RAND(), app,
					platform.StreamOptions{MaxRuns: 100, BaseSeed: 21}, nil)
				if err != nil {
					b.Fatal(err)
				}
				times := camp.Times()
				mean, sum2 := 0.0, 0.0
				for _, t := range times {
					mean += t
				}
				mean /= float64(len(times))
				for _, t := range times {
					d := t - mean
					sum2 += d * d
				}
				cov = 100 * (sum2 / float64(len(times)-1)) / (mean * mean)
			}
			b.ReportMetric(cov*1e4, "var-over-mean2-x1e4")
			b.ReportMetric(float64(app.Program().Len()*4), "text-bytes")
		})
	}
}

// BenchmarkQuantileGateThroughput measures the nine-decile quantile
// gate's analysis cost on a paper-sized campaign: a 3000-sample split
// compared with Harrell-Davis estimates, Maritz-Jarrett intervals and
// the Bayesian leak posterior at every decile. The gate runs once per
// analysis batch, so its per-call cost bounds the overhead of enabling
// -quantile-gate on a campaign.
func BenchmarkQuantileGateThroughput(b *testing.B) {
	const half = 1500
	src := rng.NewXoroshiro128(9)
	xs := make([]float64, 2*half)
	for i := range xs {
		// Lognormal-ish positive execution times with a heavy-ish tail.
		u := rng.Float64(src)
		v := rng.Float64(src)
		xs[i] = 14000 + 500*u + 2000*v*v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := stats.CompareQuantiles(xs[:half], xs[half:], stats.QuantileGateOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !g.Pass {
			b.Fatal("identically drawn halves must pass the gate")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "gates/s")
	b.ReportMetric(float64(b.N)*2*half/b.Elapsed().Seconds(), "samples/s")
}
