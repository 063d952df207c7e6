// Multicore contention: the paper's platform has four cores, and the
// other cores may be busy while the measured task runs. This example
// co-simulates TVCA against memory-streaming co-runners (real guest
// programs sharing the bus and DRAM, not synthetic traffic), shows the
// slowdown, and runs the full analysis on the solo and the contended
// campaign at the same run count, base seed and block size, so the two
// verdicts show what contention changed. Whether MBPTA applies to a
// campaign is the analyzer's verdict: a rejected i.i.d. gate or a heavy
// fitted tail is printed as the result, and only other errors exit
// non-zero.
//
//	go run ./examples/multicore_contention
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/pkg/mbpta"
)

// streamer sweeps a DL1-sized buffer, missing on most lines — a
// bus-hungry co-runner.
type streamer struct{}

func (streamer) Name() string { return "streamer" }

func (streamer) Prepare(run int) (*mbpta.Machine, error) {
	b := mbpta.NewProgramBuilder("streamer", 0x8000)
	b.Li(1, 0x400000)
	b.Li(2, 0)
	b.Li(3, 1024)
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
	return mbpta.NewMachine(p, mbpta.NewMemory()), nil
}

func (streamer) PathOf(*mbpta.Machine) string { return "" }

// TraceKey declares the sweep run-invariant (the empty trace key): the
// board records its first iteration as the co-runner runs and replays
// it from then on, instead of interpreting every iteration.
func (streamer) TraceKey(dst []byte, run int) ([]byte, bool) { return dst[:0], true }

const runs = 500

func main() {
	cfg := mbpta.DefaultTVCAConfig()
	cfg.Frames = 4
	cfg.Sensors = 16
	cfg.Taps = 16
	app, err := mbpta.NewTVCA(cfg)
	if err != nil {
		log.Fatal(err)
	}

	collect := func(coRunners int) ([]float64, error) {
		co := make([]mbpta.Workload, coRunners)
		for i := range co {
			co[i] = streamer{}
		}
		rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
			mbpta.WithRuns(runs), mbpta.WithBaseSeed(1),
			mbpta.WithCoRunners(co...), mbpta.MeasureOnly())
		if err != nil {
			return nil, err
		}
		return rep.TraceSet().Times(), nil
	}

	solo, err := collect(0)
	if err != nil {
		log.Fatal(err)
	}
	contended, err := collect(3)
	if err != nil {
		log.Fatal(err)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	fmt.Printf("solo mean:      %.0f cycles\n", mean(solo))
	fmt.Printf("contended mean: %.0f cycles (%.2fx)\n",
		mean(contended), mean(contended)/mean(solo))

	// Gate + fit on each campaign: same runs, seed and block size.
	verdict := func(name string, times []float64) {
		gate, err := mbpta.CheckIID(times, 0.05)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s campaign:\n%v\n", name, gate)
		res, err := mbpta.NewAnalyzer(mbpta.Options{BlockSize: 25}).Analyze(times)
		switch {
		case errors.Is(err, mbpta.ErrIIDRejected), errors.Is(err, mbpta.ErrHeavyTail):
			fmt.Printf("analyzer verdict: no pWCET for the %s campaign (%v)\n", name, err)
			return
		case err != nil:
			log.Fatal(err)
		}
		bound, err := res.PWCET(1e-12)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("analyzer verdict: %s pWCET(1e-12) = %.0f cycles\n", name, bound)
	}
	verdict("solo", solo)
	verdict("contended", contended)
}
