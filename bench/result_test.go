package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the sort matters
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0: refused
	}{
		{50, 0.8, 40},
		{49, 0.8, 0},
		{20, 0.5, 10},
		{19, 0.5, 0},
		{1000, 0.99, 990},
		{1000, 0.995, 0},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", tc.q*100, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", tc.q*100, tc.n, got, err, tc.want)
		}
	}
}

func TestMetricLineRoundTrip(t *testing.T) {
	for _, m := range []metric{
		{"runs_per_s", 196.599825945495, "1/s"},
		{"setup_s", 3.7456e-05, "s"},
		{"platform.runs", 3000, "count"},
		{"trace.overhead_ratio", -0.020718125321208647, "ratio"},
		{"wal.bytes", 1 << 40, "B"},
	} {
		line := formatLine("paper_tvca", m)
		wl, got, err := parseLine(line)
		if err != nil || wl != "paper_tvca" || got != m {
			t.Errorf("%q parsed to %q %+v, %v; want %+v", line, wl, got, err, m)
		}
	}
	for _, bad := range []string{"paper_tvca runs_per_s 1.5", "a b c d e", "w m notanumber s"} {
		if _, _, err := parseLine(bad); err == nil {
			t.Errorf("parseLine(%q) accepted a malformed line", bad)
		}
	}
}

// TestMetricSpecsMatchBenchmarkJSON keeps the metric tables of this
// program and the benchmark description at the repository root in step.
func TestMetricSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []spec, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || math.Abs(*g.Bound-m.bound) > 1e-12) {
				t.Errorf("%s %s: BENCHMARK.json bound %v, program %g", kind, m.name, g.Bound, m.bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
}
