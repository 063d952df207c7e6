package mbpta_test

import (
	"fmt"
	"log"

	"repro/internal/evt"
	"repro/pkg/mbpta"
)

// The complete MBPTA flow on a deterministic synthetic campaign: fit a
// known Gumbel tail and query the pWCET curve.
func Example() {
	// Synthetic execution times with a known per-run tail.
	g := evt.Gumbel{Mu: 100000, Beta: 1500}
	times := sampleGumbel(g, 3000)

	gate, err := mbpta.CheckIID(times, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("i.i.d. gate passed:", gate.Pass)

	res, err := mbpta.NewAnalyzer(mbpta.Options{}).Analyze(times)
	if err != nil {
		log.Fatal(err)
	}
	b6, _ := res.PWCET(1e-6)
	b12, _ := res.PWCET(1e-12)
	fmt.Println("pWCET(1e-6) < pWCET(1e-12):", b6 < b12)
	// Output:
	// i.i.d. gate passed: true
	// pWCET(1e-6) < pWCET(1e-12): true
}

// Classical MBTA baseline: high watermark plus an engineering margin.
func ExampleAnalyzeMBTA() {
	r, _ := mbpta.AnalyzeMBTA([]float64{980, 1010, 1000})
	w, _ := r.WCET(0.5)
	fmt.Printf("HWM %.0f, +50%% WCET %.0f\n", r.HWM, w)
	// Output:
	// HWM 1010, +50% WCET 1515
}

// Fixed-priority response-time analysis with pWCET budgets.
func ExampleResponseTimes() {
	tasks := mbpta.TVCATasks()
	tasks[0].WCET = 100
	tasks[1].WCET = 150
	tasks[2].WCET = 200
	rts, _ := mbpta.ResponseTimes(tasks, 1000)
	fmt.Println(rts)
	// Output:
	// [100 250 450]
}

// sampleGumbel draws deterministic variates by inversion over an
// equidistributed low-discrepancy sequence perturbed enough to pass the
// independence tests.
func sampleGumbel(g evt.Gumbel, n int) []float64 {
	out := make([]float64, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		u := (float64(state>>11) + 0.5) / (1 << 53)
		x, err := g.Quantile(u)
		if err != nil {
			panic(err)
		}
		out[i] = x
	}
	return out
}
