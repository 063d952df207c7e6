package main

import (
	"context"
	"path/filepath"
	"testing"
)

// smokeSize shrinks every workload so all four run timed and traced in
// seconds; the percentile rule still sees at least minSamples samples.
var smokeSize = sizes{
	setups:         1,
	tvcaRuns:       250,
	contentionRuns: 250,
	runWindow:      4,
	matrixRuns:     100,
	tracedPasses:   2,
	serviceRuns:    100,
	serviceBatch:   50,
	tracedRequests: 6,
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := env{seed: 7, size: smokeSize}
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			res, err := runWorkload(context.Background(), w, e, traced, spans, nil)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.checkErr != nil || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: check %v, %d of %d operations failed", w.name, traced, res.checkErr, res.failed, res.attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.metrics), len(want))
			}
			for i, m := range res.metrics {
				if m.name != want[i].name || m.unit != want[i].unit {
					t.Errorf("%s: metric %d is %s %s, want %s %s", w.name, i, m.name, m.unit, want[i].name, want[i].unit)
				}
				if !traced && m.value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, want > 0", w.name, m.name, m.value)
				}
				if traced && m.name == "trace.unattributed_ratio" && w.name != "service_mixed" && m.value > 0.05 {
					t.Errorf("%s: spans leave %.1f%% of traced wall time unattributed", w.name, 100*m.value)
				}
			}
		}
	}
}
