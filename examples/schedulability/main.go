// Probabilistic schedulability: the paper's TVCA schedules three
// periodic tasks under fixed priorities. This example measures
// *per-task* execution times (cycles are attributed to tasks by PC
// span), fits a pWCET per task at a chosen exceedance probability, and
// feeds those budgets into classical response-time analysis — the way
// MBPTA composes with scheduling theory in the literature that follows
// the paper.
//
//	go run ./examples/schedulability
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/pkg/mbpta"
)

const (
	runs   = 800
	cutoff = 1e-12
)

func main() {
	cfg := mbpta.DefaultTVCAConfig()
	cfg.Frames = 8
	app, err := mbpta.NewTVCA(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Per-task campaign on the MBPTA-compliant platform: per run, each
	// task contributes its worst job time. (Concatenating every job
	// would fail the i.i.d. gate — consecutive jobs within a run share
	// warmed cache state; per-run worst-case samples are i.i.d. and
	// conservatively cover all activations.)
	byTask, err := mbpta.PerTaskWorstCampaign(mbpta.RANDPlatform(), app, runs, 31)
	if err != nil {
		log.Fatal(err)
	}

	// Fit a per-task pWCET. Job samples per task are plentiful (the
	// sensor runs every minor frame), so a small block size suffices.
	tasks := mbpta.TVCATasks()
	budgets := make(map[string]uint64, len(tasks))
	names := make([]string, 0, len(byTask))
	for name := range byTask {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		times := byTask[name]
		lo, hi := minMax(times)
		var bound float64
		if lo == hi {
			// A task whose worst job is identical every run (small cold
			// footprint, no conflict-sensitive reuse) has no jitter to
			// model: its measurement IS its bound.
			bound = hi
			fmt.Printf("%-12s %6d runs   constant worst job %7.0f cycles (jitterless)\n",
				name, len(times), hi)
		} else {
			res, err := mbpta.NewAnalyzer(mbpta.Options{BlockSize: 25}).Analyze(times)
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			if bound, err = res.PWCET(cutoff); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12s %6d runs   mean %7.0f   pWCET(%.0e) %7.0f cycles\n",
				name, len(times), mean(times), cutoff, bound)
		}
		budgets[name] = uint64(bound)
	}

	// Response-time analysis with the pWCET budgets. The minor frame
	// must be long enough for the worst frame (all three tasks).
	for i := range tasks {
		tasks[i].WCET = budgets[tasks[i].Name]
	}
	frame := budgets["sensor-acq"] + budgets["actuator-x"] + budgets["actuator-y"] + 2000
	rts, err := mbpta.ResponseTimes(tasks, frame)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nminor frame budget: %d cycles\n", frame)
	for i, task := range tasks {
		deadline := uint64(task.Period) * frame
		fmt.Printf("%-12s response time %7d / deadline %7d cycles (%.0f%%)\n",
			task.Name, rts[i], deadline, 100*float64(rts[i])/float64(deadline))
	}
	fmt.Println("\nall response times within deadlines: the task set is schedulable")
	fmt.Printf("with per-task overrun probability <= %.0e per activation.\n", cutoff)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
