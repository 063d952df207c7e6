package matrix

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/stats"
	"repro/pkg/mbpta"
)

// CellState is one phase of a cell's lifecycle, streamed to
// Runner.Progress.
type CellState string

const (
	CellStart CellState = "start"
	CellDone  CellState = "done"
	CellError CellState = "error"
)

// CellProgress is one streamed progress notification.
type CellProgress struct {
	// Index and Total locate the cell in the expansion order.
	Index, Total int
	Cell         Cell
	State        CellState
	// CachedRuns/SimulatedRuns are set with CellDone.
	CachedRuns    int
	SimulatedRuns int
	Elapsed       time.Duration
	// Err is set with CellError.
	Err error
}

// Runner executes a scenario matrix: cells expand deterministically,
// execute concurrently (each cell is one campaign; single-core cells
// additionally fan their runs out through the fabric pool), and
// deduplicate simulation through the content-addressed run cache.
type Runner struct {
	// Pool, when non-nil, executes single-core cells' runs on the
	// fabric's executor pool, fault-injected cells included (on its
	// in-process executors). Co-runner cells execute locally: a pool
	// executor builds a fresh board whenever it switches sessions or
	// idles, and a co-simulated board re-records its co-runner traces
	// on its first run.
	Pool *fabric.Pool
	// Cache, when non-nil, deduplicates simulation across cells and
	// across matrix invocations.
	Cache *Cache
	// Registry resolves workload specs (default: fabric.BuiltinRegistry).
	Registry *fabric.Registry
	// CellParallel bounds how many cells run concurrently (default 2).
	// Cells sharing a simulation key serialize on the cache's key lock
	// regardless, so the second one replays what the first simulated.
	CellParallel int
	// Progress, when non-nil, receives streamed per-cell notifications.
	// It is called from multiple goroutines; the callback must be
	// thread-safe.
	Progress func(CellProgress)
}

// Run executes the matrix and returns its comparative report. Cell
// failures do not abort the matrix: failed cells carry their error in
// the report and the first one is returned as a joined error alongside
// the (complete) report. Advisory analysis outcomes — the i.i.d. gate
// rejecting, the stop rule not converging within budget — are not
// failures; the cell keeps its report and notes the condition.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Report, error) {
	cells, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	reg := r.Registry
	if reg == nil {
		reg = fabric.BuiltinRegistry()
	}
	par := r.CellParallel
	if par <= 0 {
		par = 2
	}
	if par > len(cells) {
		par = len(cells)
	}

	started := time.Now()
	results := make([]CellResult, len(cells))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := range cells {
		// Take the slot before spawning, so cells start in expansion
		// order: which of two same-key cells simulates and which replays
		// is then fixed by the spec, not by the scheduler.
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			r.notify(CellProgress{Index: i, Total: len(cells), Cell: cells[i], State: CellStart})
			res := r.runCell(ctx, reg, cells[i])
			results[i] = res
			p := CellProgress{
				Index: i, Total: len(cells), Cell: cells[i], State: CellDone,
				CachedRuns: res.CachedRuns, SimulatedRuns: res.SimulatedRuns,
				Elapsed: res.Elapsed,
			}
			if res.Err != "" {
				p.State, p.Err = CellError, errors.New(res.Err)
			}
			r.notify(p)
		}(i)
	}
	wg.Wait()

	rep := &Report{Spec: spec, Cells: results, Elapsed: time.Since(started)}
	for _, res := range results {
		rep.CachedRuns += res.CachedRuns
		rep.SimulatedRuns += res.SimulatedRuns
	}
	rep.buildDeltas()
	var firstErr error
	for _, res := range results {
		if res.Err != "" {
			firstErr = fmt.Errorf("matrix: cell %s: %s", res.Label, res.Err)
			break
		}
	}
	return rep, firstErr
}

func (r *Runner) notify(p CellProgress) {
	if r.Progress != nil {
		r.Progress(p)
	}
}

// runCell executes one cell end to end: acquire the cache entry,
// assemble the campaign options, run, and summarize.
func (r *Runner) runCell(ctx context.Context, reg *fabric.Registry, cell Cell) CellResult {
	started := time.Now()
	res := CellResult{Cell: cell, Label: cell.Label()}
	fail := func(err error) CellResult {
		res.Err = err.Error()
		res.Elapsed = time.Since(started)
		return res
	}

	// A leak cell's primary campaign measures the secret-0 variant; the
	// secret-1 variant runs afterwards (leakGate) and each derives its
	// own cache key from the rewritten workload params.
	simCell := cell
	if cell.Leak {
		sc, serr := cell.withSecret(0)
		if serr != nil {
			return fail(serr)
		}
		simCell = sc
	}
	cfg, err := fabric.NamedPlatform(cell.Platform)
	if err != nil {
		return fail(err)
	}
	w, err := reg.Build(simCell.Workload)
	if err != nil {
		return fail(err)
	}
	rule, err := cell.StopRule.Build(cell.Runs)
	if err != nil {
		return fail(err)
	}

	var entry *Entry
	if r.Cache != nil {
		entry, err = r.Cache.Acquire(simCell)
		if err != nil {
			return fail(err)
		}
		defer entry.Close()
	}
	opts := append(r.execOptions(cell, entry),
		mbpta.WithStopRule(rule),
		mbpta.WithAnalyzerOptions(mbpta.Options{Alpha: cell.Analysis.Alpha, BlockSize: cell.Analysis.BlockSize}))

	rep, err := mbpta.Campaign(ctx, cfg, w, opts...)
	if err != nil {
		// A returned report means the measurement campaign completed;
		// the error is then an analysis verdict (i.i.d. gate rejection,
		// an unfittable tail — routine on DET builds — or
		// non-convergence) and the cell keeps its measured result with
		// the verdict as an advisory note. Cancellation and degradation
		// interrupt measurement itself and stay fatal.
		if rep == nil || errors.Is(err, mbpta.ErrCanceled) || errors.Is(err, mbpta.ErrDegraded) {
			return fail(err)
		}
		res.Advisory = err.Error()
	}
	res.Elapsed = time.Since(started)
	res.summarize(rep)
	if entry != nil {
		// Only delivered runs count: the engine may look up runs it
		// leased past an early stop.
		res.CachedRuns = min(len(entry.Prefix), res.StopRuns)
	}
	res.SimulatedRuns = res.StopRuns - res.CachedRuns
	if res.SimulatedRuns < 0 {
		res.SimulatedRuns = 0
	}
	if cell.Leak && rep != nil {
		if lerr := r.leakGate(ctx, reg, cfg, cell, rep, &res); lerr != nil {
			return fail(lerr)
		}
	}
	return res
}

// execOptions are the campaign options that fix how a cell's runs are
// measured and where they execute: budget, batching and seeds, the run
// timeout, the run cache entry (nil = none), fault injection or
// co-runners, and the pool for single-core cells.
func (r *Runner) execOptions(cell Cell, entry *Entry) []mbpta.CampaignOption {
	opts := []mbpta.CampaignOption{
		mbpta.WithRuns(cell.Runs),
		mbpta.WithBatchSize(cell.Batch),
		mbpta.WithBaseSeed(cell.BaseSeed),
	}
	if cell.RunTimeoutMS > 0 {
		opts = append(opts, mbpta.WithRunTimeout(time.Duration(cell.RunTimeoutMS)*time.Millisecond))
	}
	if entry != nil {
		opts = append(opts, mbpta.WithRunCache(entry.Lookup), mbpta.WithJournalSink(entry.Journal()))
	}
	switch {
	case cell.FaultRate > 0:
		opts = append(opts, mbpta.WithFaultInjection(mbpta.FaultConfig{
			Rate:       cell.FaultRate,
			Mitigation: cell.Mitigation,
			Hazard:     cell.Hazard,
		}))
	case cell.Cores > 1:
		co := make([]mbpta.Workload, cell.Cores-1)
		for i := range co {
			co[i] = experiments.StreamerWorkload{Lines: 1024}
		}
		opts = append(opts, mbpta.WithCoRunners(co...))
	}
	if r.Pool != nil && cell.Cores == 1 {
		opts = append(opts, mbpta.WithExecutorPool(r.Pool))
	}
	return opts
}

// leakGate runs a leak cell's second campaign — the secret-1 variant,
// measure-only, same seed schedule — and gates the two timing
// distributions against each other with the nine-decile quantile gate.
func (r *Runner) leakGate(ctx context.Context, reg *fabric.Registry, cfg mbpta.PlatformConfig, cell Cell, primary *mbpta.CampaignReport, res *CellResult) error {
	variant, err := cell.withSecret(1)
	if err != nil {
		return err
	}
	w, err := reg.Build(variant.Workload)
	if err != nil {
		return err
	}
	var entry *Entry
	if r.Cache != nil {
		if entry, err = r.Cache.Acquire(variant); err != nil {
			return err
		}
		defer entry.Close()
	}
	// The primary campaign's execution shape, so the two variants differ
	// in nothing but the secret.
	opts := append(r.execOptions(cell, entry), mbpta.MeasureOnly())
	rep, err := mbpta.Campaign(ctx, cfg, w, opts...)
	if err != nil {
		return err
	}
	gate, err := stats.CompareQuantiles(primary.Campaign.Times(), rep.Campaign.Times(), stats.QuantileGateOptions{})
	if err != nil {
		return err
	}
	prob, leaks := gate.LeakProbability, !gate.Pass
	res.LeakProb, res.Leaks = &prob, &leaks
	if entry != nil {
		hits := min(len(entry.Prefix), len(rep.Campaign.Results))
		res.CachedRuns += hits
		if sim := len(rep.Campaign.Results) - hits; sim > 0 {
			res.SimulatedRuns += sim
		}
	} else {
		res.SimulatedRuns += len(rep.Campaign.Results)
	}
	return nil
}
