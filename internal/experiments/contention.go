package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/stats"
)

// E8 extends the paper's single-application evaluation to the 4-core
// usage the reference architecture permits: TVCA is measured while
// memory-streaming co-runners execute on the other cores (full
// co-simulation, not synthetic traffic). MBPTA's promise is that the
// analysis remains applicable — the randomized platform keeps the
// contended execution times i.i.d., and the pWCET estimate simply
// shifts up to absorb the interference.

// StreamerWorkload is a pathological co-runner: an endless sweep over
// a buffer larger than the DL1, missing on every line — near-worst-case
// bus pressure.
type StreamerWorkload struct {
	Lines int32 // lines per sweep
}

// Name identifies the co-runner.
func (s StreamerWorkload) Name() string { return "mem-streamer" }

// Prepare builds the sweep kernel (identical every iteration).
func (s StreamerWorkload) Prepare(run int) (*isa.Machine, error) {
	lines := s.Lines
	if lines <= 0 {
		lines = 1024
	}
	b := isa.NewBuilder("streamer", 0x8000)
	b.Li(1, 0x400000)
	b.Li(2, 0)
	b.Li(3, lines)
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

// PathOf reports the single path.
func (s StreamerWorkload) PathOf(*isa.Machine) string { return "" }

// Reload re-initializes a prepared machine in place
// (platform.Reloader): the kernel never writes its program or data
// memory, so resetting the registers restores the exact Prepare state.
func (s StreamerWorkload) Reload(m *isa.Machine, run int) error {
	m.Reset()
	return nil
}

// TraceKey declares the sweep's event stream run-invariant, the empty
// key of platform.TraceKeyer: straight-line loop, no data-dependent
// control flow or FP operands, so co-simulation boards may record one
// iteration and replay it.
func (s StreamerWorkload) TraceKey(dst []byte, run int) ([]byte, bool) { return dst[:0], true }

// E8Result quantifies multicore contention on the RAND platform.
type E8Result struct {
	// MeanByCoRunners[k] is the mean measured execution time with k
	// streaming co-runners (k = 0..3).
	MeanByCoRunners []float64
	// SlowdownByCoRunners[k] = mean(k) / mean(0).
	SlowdownByCoRunners []float64
	// IIDPass reports whether the contended campaign (max co-runners)
	// still passes the i.i.d. gate — MBPTA stays applicable.
	IIDPass bool
	// PWCET1e12 per co-runner count (from a reduced fit), showing the
	// bound absorbing the interference.
	PWCET1e12 []float64
	Runs      int
}

// E8Contention measures TVCA under 0..maxCoRunners streaming
// co-runners, with runsPer runs per configuration (co-simulation is
// ~4x slower than single-core, so this experiment uses its own,
// smaller campaign).
func E8Contention(e *Env, maxCoRunners, runsPer int) (*E8Result, error) {
	if maxCoRunners < 1 || maxCoRunners > 3 {
		return nil, fmt.Errorf("experiments: co-runners %d outside [1,3]", maxCoRunners)
	}
	if runsPer < 300 {
		return nil, fmt.Errorf("experiments: %d runs per configuration too few (need >= 300)", runsPer)
	}
	out := &E8Result{Runs: runsPer}
	var contended []float64
	for k := 0; k <= maxCoRunners; k++ {
		co := make([]platform.Workload, k)
		for i := range co {
			co[i] = StreamerWorkload{Lines: 1024}
		}
		c, err := platform.StreamCampaign(context.Background(), platform.RAND(), e.App(),
			platform.StreamOptions{
				MaxRuns: runsPer, BatchSize: runsPer,
				BaseSeed: e.P.Seed + uint64(k), Parallel: e.P.Parallel,
				NewBoard: func() (platform.Board, error) {
					return platform.NewMulticore(platform.RAND(), co)
				},
			}, nil)
		if err != nil {
			return nil, fmt.Errorf("%d co-runner(s): %w", k, err)
		}
		times := c.Times()
		mean, err := stats.Mean(times)
		if err != nil {
			return nil, err
		}
		out.MeanByCoRunners = append(out.MeanByCoRunners, mean)
		out.SlowdownByCoRunners = append(out.SlowdownByCoRunners, mean/out.MeanByCoRunners[0])
		fitBound, err := fitReduced(times)
		if err != nil {
			return nil, err
		}
		out.PWCET1e12 = append(out.PWCET1e12, fitBound)
		if k == maxCoRunners {
			contended = times
		}
	}
	rep, err := stats.CheckIID(contended, 0.05)
	if err != nil {
		return nil, err
	}
	out.IIDPass = rep.Pass
	return out, nil
}

// fitReduced fits a small-block Gumbel tail suited to the reduced
// per-configuration campaigns and returns pWCET(1e-12).
func fitReduced(times []float64) (float64, error) {
	res, err := core.NewAnalyzer(core.Options{BlockSize: 25}).Analyze(times)
	if err != nil {
		return 0, err
	}
	return res.PWCET(1e-12)
}

// RenderE8 prints the contention experiment.
func RenderE8(w io.Writer, r *E8Result) error {
	bars := make([]report.Bar, len(r.MeanByCoRunners))
	for k, m := range r.MeanByCoRunners {
		bars[k] = report.Bar{Label: fmt.Sprintf("%d co-runner(s) mean", k), Value: m}
	}
	if err := report.BarChart(w,
		"E8 (extension) - TVCA under co-simulated memory-streaming co-runners (cycles)",
		50, bars); err != nil {
		return err
	}
	rows := make([][2]string, 0, len(r.SlowdownByCoRunners)+1)
	for k := range r.SlowdownByCoRunners {
		rows = append(rows, [2]string{
			fmt.Sprintf("slowdown with %d co-runner(s)", k),
			fmt.Sprintf("%.3fx   pWCET(1e-12)=%.0f", r.SlowdownByCoRunners[k], r.PWCET1e12[k]),
		})
	}
	verdict := "passes (MBPTA applicable under contention)"
	if !r.IIDPass {
		verdict = "FAILS"
	}
	rows = append(rows, [2]string{"i.i.d. gate on the contended campaign", verdict})
	report.Table(w, "", rows)
	return nil
}
