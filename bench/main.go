// Command bench is the repository benchmark. It runs four workloads,
// from the paper's 3,000-run campaign to the pwcetd service, prints
// every metric as a "workload metric value unit" line, checks that the
// outputs are correct, and ends with one JSON summary line.
//
//	bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--sets N]
//
// A timed run (--trace 0) reports the end-to-end metrics with tracing
// off. A traced run (--trace 1) repeats a fixed amount of the
// workload's work untraced and then traced through the engine's hooks,
// and reports the per-layer metrics; its spans are written as JSON
// lines. When several workloads or sets are asked for, each run happens
// in a process of its own. See README.md for the workloads and metrics.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the paper's campaign seed.
const defaultSeed = 20170327

// sizes scales a workload's work; tests use a reduced copy.
type sizes struct {
	setups         int // set-ups per timed run; setup_s is their median
	tvcaRuns       int // runs per paper_tvca campaign
	contentionRuns int // runs per contention_4core campaign
	runWindow      int // consecutive campaign runs per latency sample
	matrixRuns     int // runs per matrix_warm cell
	tracedPasses   int // warm passes in a traced matrix_warm run
	serviceRuns    int // runs per service_mixed campaign
	serviceBatch   int // batch size of service_mixed campaigns
	tracedRequests int // requests per client in a traced service_mixed run (>= 6, one mix round)
}

var fullSize = sizes{
	setups:         3,
	tvcaRuns:       3000,
	contentionRuns: 3000,
	runWindow:      50,
	matrixRuns:     1000,
	tracedPasses:   20,
	serviceRuns:    500,
	serviceBatch:   100,
	tracedRequests: 12,
}

// env is one run's configuration.
type env struct {
	seed    uint64
	seconds time.Duration // the timed phase runs at least this long
	size    sizes
	dir     string // scratch directory for journals and run caches
}

// more reports whether a timed loop that started at start and has n
// latency samples should run another operation: it measures for the
// run's seconds and until p80 is reportable.
func (e env) more(start time.Time, n int) bool {
	return time.Since(start) < e.seconds || n < minSamples
}

// timedRun is what a workload's timed run measured.
type timedRun struct {
	setups            []float64 // seconds per set-up
	wall, cpu         float64   // seconds spent in the timed phase
	runs              int       // measurement runs delivered to analysis
	latencies         []float64 // seconds per operation
	attempted, failed int
	golden            string // digest of the default-seed outputs
}

// tracedRun is what a workload's traced run measured; the tracer holds
// the spans and layer counters.
type tracedRun struct {
	untraced, traced  float64 // wall seconds of the same work
	attempted, failed int
	golden            string // digest of the default-seed outputs
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name   string
	timed  func(ctx context.Context, e env, c *checks) (*timedRun, error)
	traced func(ctx context.Context, e env, t *tracer, c *checks) (*tracedRun, error)
}

var workloads = []workload{
	{"paper_tvca", paperTVCA.timed, paperTVCA.traced},
	{"contention_4core", contention4Core.timed, contention4Core.traced},
	{"matrix_warm", matrixWarm{}.timed, matrixWarm{}.traced},
	{"service_mixed", serviceMixed{}.timed, serviceMixed{}.traced},
}

//go:embed golden.json
var goldenJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Uint64("seed", defaultSeed, "seed every workload input is derived from")
	seconds := fs.Int("seconds", 10, "seconds the timed phase of each run measures")
	traceOn := fs.Int("trace", 0, "1: do a traced run and report the per-layer metrics")
	spansPath := fs.String("spans", "", "file a traced run writes its spans to (default .bench_build/spans/<workload>.jsonl)")
	sets := fs.Int("sets", 1, "run the suite this many times and print each end-to-end metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceOn != 0 && *traceOn != 1) || *seconds < 0 || *sets < 1 {
		fmt.Fprintln(stderr, "bench: want --trace 0|1, --seconds >= 0, --sets >= 1 and no positional arguments")
		return 2
	}
	selected := workloads
	if *only != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *only {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *only)
			return 2
		}
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintf(stderr, "bench: golden.json: %v\n", err)
		return 1
	}

	for _, kv := range provenance(*seed) {
		fmt.Fprintf(stdout, "# %s %s\n", kv[0], kv[1])
	}
	e := env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, size: fullSize}
	sum := summary{Correct: true, Metrics: make(map[string]jsonMetric)}
	values := make(map[metricKey][]float64) // one value per set
	var order []metricKey
	units := make(map[metricKey]string)
	for set := 0; set < *sets; set++ {
		for _, w := range selected {
			spans := *spansPath
			if spans == "" {
				spans = filepath.Join(".bench_build", "spans", w.name+".jsonl")
			}
			var res *result
			var err error
			if len(selected) == 1 && *sets == 1 {
				res, err = runWorkload(context.Background(), w, e, *traceOn == 1, spans, golden)
			} else {
				res, err = runChild(w.name, stderr, "--workload", w.name, "--seed", fmt.Sprint(*seed),
					"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*traceOn), "--spans", spans)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			for _, line := range res.notes {
				fmt.Fprintf(stdout, "# %s %s\n", w.name, line)
			}
			for _, m := range res.metrics {
				fmt.Fprintln(stdout, formatLine(w.name, m))
				key := metricKey{w.name, m.name}
				if _, ok := values[key]; !ok {
					order = append(order, key)
				}
				values[key] = append(values[key], m.value)
				units[key] = m.unit
			}
			sum.Attempted += res.attempted
			sum.Failed += res.failed
			if res.checkErr != nil {
				sum.Correct = false
				fmt.Fprintf(stderr, "bench: %s: output check failed: %v\n", w.name, res.checkErr)
			}
		}
	}
	if *sets > 1 && *traceOn == 0 {
		printSpreads(stdout, selected, values)
	}
	for _, key := range order {
		name := key.metric
		if len(selected) > 1 {
			name = key.workload + "." + name
		}
		sum.Metrics[name] = jsonMetric{Value: median(values[key]), Unit: units[key]}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "bench: summary: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// metricKey names one workload's metric.
type metricKey struct{ workload, metric string }

// printSpreads prints, for every end-to-end metric of every workload,
// its spread across the sets against the metric's bound.
func printSpreads(w io.Writer, selected []workload, values map[metricKey][]float64) {
	for _, wl := range selected {
		for _, m := range endToEnd {
			xs := values[metricKey{wl.name, m.name}]
			s := spread(xs)
			verdict := "ok"
			if s > m.bound {
				verdict = "over"
			}
			fmt.Fprintf(w, "# spread %s %s %.4f bound %.2f %s\n", wl.name, m.name, s, m.bound, verdict)
		}
	}
}

// runChild runs one workload in a fresh process of this program, as a
// harness does, so process-wide measurements such as peak RSS, and the
// heap and GC state every timing depends on, cover that run alone. The
// child's stderr is passed through; its stdout is parsed back.
func runChild(name string, stderr io.Writer, args ...string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		return nil, fmt.Errorf("no result from its own process: %v", runErr)
	}
	res := &result{attempted: sum.Attempted, failed: sum.Failed}
	if !sum.Correct {
		res.checkErr = errors.New("see the messages above")
	}
	for _, line := range lines[:len(lines)-1] {
		if note, ok := strings.CutPrefix(line, "# "+name+" "); ok {
			res.notes = append(res.notes, note)
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // the child's provenance repeats the parent's
		}
		_, m, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		res.metrics = append(res.metrics, m)
	}
	return res, nil
}

// result is one workload run's output.
type result struct {
	metrics           []metric
	notes             []string // informational lines, printed as comments
	attempted, failed int
	checkErr          error
}

// runWorkload does one timed or traced run of w in a fresh scratch
// directory. An error means the run could not measure at all; failed
// output checks are reported in result.checkErr.
func runWorkload(ctx context.Context, w workload, e env, traced bool, spansPath string, golden map[string]string) (*result, error) {
	dir, err := os.MkdirTemp("", "bench-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.dir = dir
	// Every run must end well inside the three minutes a harness allows.
	ctx, cancel := context.WithTimeout(ctx, 150*time.Second)
	defer cancel()

	var c checks
	res := &result{}
	var outputs string // digest of the outputs golden.json pins
	if traced {
		t := newTracer()
		tr, err := w.traced(ctx, e, t, &c)
		if err != nil {
			return nil, err
		}
		res.metrics = t.metrics(ratio(tr.traced, tr.untraced) - 1)
		res.attempted, res.failed, outputs = tr.attempted, tr.failed, tr.golden
		if err := writeSpans(spansPath, t.rec.snapshot()); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, "spans "+spansPath)
	} else {
		tr, err := w.timed(ctx, e, &c)
		if err != nil {
			return nil, err
		}
		if res.metrics, err = endToEndMetrics(tr); err != nil {
			return nil, err
		}
		res.attempted, res.failed, outputs = tr.attempted, tr.failed, tr.golden
		res.notes = append(res.notes,
			fmt.Sprintf("latency_samples %d", len(tr.latencies)),
			fmt.Sprintf("timed_wall_s %.3f", tr.wall))
	}
	res.notes = append(res.notes, "golden "+outputs)
	if e.seed == defaultSeed && e.size == fullSize && golden[w.name] != outputs {
		c.failf("default-seed outputs digest to %s, golden.json pins %q", outputs, golden[w.name])
	}
	res.checkErr = c.err()
	return res, nil
}

// endToEndMetrics derives the end-to-end metrics of a timed run, in
// endToEnd order.
func endToEndMetrics(tr *timedRun) ([]metric, error) {
	if tr.runs == 0 || tr.wall <= 0 {
		return nil, fmt.Errorf("timed phase delivered %d runs in %gs", tr.runs, tr.wall)
	}
	p50, err := percentile(tr.latencies, 0.5)
	if err != nil {
		return nil, err
	}
	p80, err := percentile(tr.latencies, 0.8)
	if err != nil {
		return nil, err
	}
	v := map[string]float64{
		"setup_s":        median(tr.setups),
		"runs_per_s":     float64(tr.runs) / tr.wall,
		"cpu_us_per_run": tr.cpu * 1e6 / float64(tr.runs),
		"latency_p50_s":  p50,
		"latency_p80_s":  p80,
		"peak_rss_mb":    peakRSSMB(),
	}
	out := make([]metric, len(endToEnd))
	for i, m := range endToEnd {
		out[i] = metric{name: m.name, value: v[m.name], unit: m.unit}
	}
	return out, nil
}

// measure runs the timed phase fn and returns its wall and CPU seconds.
// It collects set-up garbage first, so the phase does not pay for it.
func measure(fn func() error) (wall, cpu float64, err error) {
	runtime.GC()
	cpu0, start := cpuTime(), time.Now()
	err = fn()
	return time.Since(start).Seconds(), (cpuTime() - cpu0).Seconds(), err
}

// Set-up repeats at least n times (sizes.setups) and, while it is
// quick, until setupBudget has been spent or setupCap repetitions
// have run: the median of a few repetitions of a sub-millisecond set-up
// would be mostly noise.
const (
	setupBudget = 500 * time.Millisecond
	setupCap    = 200
)

// repeatSetup runs setup repeatedly, timing each, and returns the last
// state; earlier states are released as soon as the next one exists.
func repeatSetup[T any](n int, setup func() (T, error), release func(T)) (T, []float64, error) {
	var cur T
	var times []float64
	began := time.Now()
	for i := 0; i < n || (time.Since(began) < setupBudget && i < setupCap); i++ {
		start := time.Now()
		next, err := setup()
		if err != nil {
			if i > 0 {
				release(cur)
			}
			return cur, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i > 0 {
			release(cur)
		}
		cur = next
	}
	return cur, times, nil
}
