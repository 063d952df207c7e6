package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// metricSpec declares one reported metric. The end-to-end set and its
// regression bounds mirror BENCHMARK.json (TestMetricSpecsMatchBenchmarkJSON
// keeps the two in step).
type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression (end-to-end only).
	bound float64
}

// The host-time bounds are as wide as a bound may be: on a shared
// two-vCPU host the simulator's speed drifts by up to a third for
// minutes at a time (README.md, "Noise"), so run-to-run spreads of
// 15-30% are routine and a tighter bound would flag noise.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"runs_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_run", "us", "lower", 0.25},
	{"latency_p50_s", "s", "lower", 0.25},
	{"latency_p80_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer lists the traced run's metrics, grouped by the repository
// module they measure.
var perLayer = []metricSpec{
	{name: "platform.runs", unit: "count", better: "higher"},
	{name: "platform.busy_s", unit: "s", better: "lower"},
	{name: "platform.ns_per_instr", unit: "ns", better: "lower"},
	{name: "platform.boards_built", unit: "count", better: "lower"},
	{name: "platform.board_build_s", unit: "s", better: "lower"},
	{name: "platform.replay_ratio", unit: "ratio", better: "higher"},
	{name: "platform.il1_miss_ratio", unit: "ratio", better: "lower"},
	{name: "platform.dl1_miss_ratio", unit: "ratio", better: "lower"},
	{name: "platform.itlb_miss_ratio", unit: "ratio", better: "lower"},
	{name: "platform.dtlb_miss_ratio", unit: "ratio", better: "lower"},
	{name: "platform.ipc", unit: "ratio", better: "higher"},
	{name: "core.batches", unit: "count", better: "lower"},
	{name: "core.observe_s", unit: "s", better: "lower"},
	{name: "core.finalize_s", unit: "s", better: "lower"},
	{name: "stats.iid_s", unit: "s", better: "lower"},
	{name: "stats.qgate_s", unit: "s", better: "lower"},
	{name: "evt.fit_s", unit: "s", better: "lower"},
	{name: "wal.create_s", unit: "s", better: "lower"},
	{name: "wal.runs_logged", unit: "count", better: "lower"},
	{name: "wal.log_s", unit: "s", better: "lower"},
	{name: "wal.barriers", unit: "count", better: "lower"},
	{name: "wal.barrier_s", unit: "s", better: "lower"},
	{name: "wal.close_s", unit: "s", better: "lower"},
	{name: "wal.bytes", unit: "B", better: "lower"},
	{name: "matrix.acquire_s", unit: "s", better: "lower"},
	{name: "matrix.lookups", unit: "count", better: "lower"},
	{name: "matrix.hits", unit: "count", better: "higher"},
	{name: "matrix.hit_ratio", unit: "ratio", better: "higher"},
	{name: "fabric.wait_s", unit: "s", better: "lower"},
	{name: "fabric.queued_leases_mean", unit: "count", better: "lower"},
	{name: "fabric.running_leases_mean", unit: "count", better: "higher"},
	{name: "faults.injected", unit: "count", better: "lower"},
	{name: "faults.mitigated", unit: "count", better: "higher"},
	{name: "faults.quarantined", unit: "count", better: "lower"},
	{name: "pwcetd.submit_s", unit: "s", better: "lower"},
	{name: "pwcetd.status_s", unit: "s", better: "lower"},
	{name: "pwcetd.status_polls", unit: "count", better: "lower"},
	{name: "pwcetd.poll_wait_s", unit: "s", better: "lower"},
	{name: "pwcetd.report_s", unit: "s", better: "lower"},
	{name: "pwcetd.pwcet_s", unit: "s", better: "lower"},
	{name: "mbpta.fingerprint_s", unit: "s", better: "lower"},
	{name: "trace.unattributed_ratio", unit: "ratio", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// metric is one measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// minTail is how many samples must lie beyond a reported percentile: a
// pNN drawn from fewer is refused rather than printed.
const minTail = 10

// minSamples is the smallest latency sample that supports p80 under the
// minTail rule.
const minSamples = 50

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses when fewer than minTail samples lie beyond that rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	// The epsilon keeps q*n from rounding up past an exact rank (0.8*50
	// is 40.000000000000004 in floating point).
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if n-k < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, n-k, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], nil
}

// median returns the middle of xs (the mean of the middle two for an
// even count); it is used for small repeated measurements such as
// set-up, where the percentile rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0, so a layer a workload never
// touches reports 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// formatLine renders one metric in the "workload metric value unit"
// output format, with the value's full precision.
func formatLine(workload string, m metric) string {
	return fmt.Sprintf("%s %s %s %s", workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
}

// parseLine reads a line written by formatLine.
func parseLine(line string) (workload string, m metric, err error) {
	f := strings.Fields(line)
	if len(f) != 4 {
		return "", metric{}, fmt.Errorf("metric line %q: want 4 fields, have %d", line, len(f))
	}
	v, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return "", metric{}, fmt.Errorf("metric line %q: %w", line, err)
	}
	return f[0], metric{name: f[1], value: v, unit: f[3]}, nil
}

// summary is the last line of the benchmark's output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spread is the distance between the extremes of xs as a share of
// their median: the agreement measure of the -sets mode.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return ratio(hi-lo, median(xs))
}

// checks collects output-correctness failures.
type checks struct{ errs []error }

func (c *checks) failf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf(format, args...))
}

func (c *checks) err() error { return errors.Join(c.errs...) }
