package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/pkg/mbpta"
)

// matrixWarm re-runs a 16-cell scenario matrix against a warm run cache,
// as a repeated `tvca -matrix` invocation does: simulation is bypassed
// entirely, so the analyzer, run-cache replay, WAL recovery and fabric
// lease/merge paths are all that is left. The cold pass that fills the
// cache is its set-up.
type matrixWarm struct{}

// spec is the matrix: {DET, RAND} x four generality kernels x {fixed,
// crps} stop rules, on one seed. The two stop rules of a scenario share
// one simulation key, so the crps cell replays what the fixed cell
// simulated.
func (matrixWarm) spec(e env) matrix.Spec {
	p := func(s string) json.RawMessage { return json.RawMessage(s) }
	return matrix.Spec{
		Name:      "bench matrix_warm",
		Platforms: []string{"DET", "RAND"},
		Workloads: []fabric.WorkloadSpec{
			{Kind: "crc32", Params: p(`{"Bytes":1024,"Seed":1}`)},
			{Kind: "isort", Params: p(`{"N":96,"Seed":1}`)},
			{Kind: "matmul", Params: p(`{"N":8,"Seed":1}`)},
			{Kind: "vecnorm", Params: p(`{"N":64,"Seed":1}`)},
		},
		StopRules: []matrix.StopRuleSpec{{Kind: "fixed"}, {Kind: "crps"}},
		Runs:      e.size.matrixRuns,
		Batch:     50,
		BaseSeed:  e.seed,
		Analysis:  matrix.AnalysisSpec{BlockSize: 50},
	}
}

// pass runs the matrix once through matrix.Runner on a cache opened
// fresh on dir, as a new process would.
func (m matrixWarm) pass(ctx context.Context, e env, pool *fabric.Pool, dir string) (*matrix.Report, error) {
	cache, err := matrix.NewCache(dir)
	if err != nil {
		return nil, err
	}
	r := &matrix.Runner{Pool: pool, Cache: cache, CellParallel: 1}
	return r.Run(ctx, m.spec(e))
}

func (m matrixWarm) timed(ctx context.Context, e env, c *checks) (*timedRun, error) {
	pool := fabric.NewPool(fabric.Config{Executors: 1})
	defer pool.Close()
	n := 0
	type cold struct {
		dir string
		rep *matrix.Report
	}
	setup := func() (cold, error) {
		n++
		dir := filepath.Join(e.dir, fmt.Sprintf("cache-%d", n))
		rep, err := m.pass(ctx, e, pool, dir)
		return cold{dir, rep}, err
	}
	st, setups, err := repeatSetup(e.size.setups, setup, func(old cold) { os.RemoveAll(old.dir) })
	if err != nil {
		return nil, err
	}
	want := cellFingerprints(st.rep)
	size, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}

	tr := &timedRun{setups: setups}
	var warm []*matrix.Report
	tr.wall, tr.cpu, err = measure(func() error {
		begin := time.Now()
		for len(warm) == 0 || e.more(begin, len(tr.latencies)) {
			start := time.Now()
			rep, err := m.pass(ctx, e, pool, st.dir)
			tr.latencies = append(tr.latencies, time.Since(start).Seconds())
			tr.attempted++
			if err != nil {
				tr.failed++
				if ctx.Err() != nil {
					return ctx.Err()
				}
				continue
			}
			for _, cell := range rep.Cells {
				tr.runs += cell.StopRuns
			}
			warm = append(warm, rep)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, rep := range warm {
		if rep.SimulatedRuns != 0 {
			c.failf("warm pass %d re-simulated %d runs", i, rep.SimulatedRuns)
		}
		if got := cellFingerprints(rep); !slices.Equal(got, want) {
			c.failf("warm pass %d cell fingerprints differ from the cold pass", i)
		}
	}
	// A warm pass appends nothing: every delivered run came from the cache.
	if after, err := dirBytes(st.dir); err != nil || after != size {
		c.failf("run cache grew from %d to %d bytes over the warm passes (%v)", size, after, err)
	}
	tr.golden = digest(want)
	return tr, nil
}

// traced composes a cold pass and tracedPasses warm passes from the
// engine's parts and runs them twice, untraced and then with every hook
// traced, each time on a fresh cache directory. Every pass must
// fingerprint cell by cell like the untraced cold pass, and every
// traced warm cell must serve all its delivered runs from the cache.
func (m matrixWarm) traced(ctx context.Context, e env, t *tracer, c *checks) (*tracedRun, error) {
	pool := fabric.NewPool(fabric.Config{Executors: 1})
	defer pool.Close()
	cells, err := matrix.Expand(m.spec(e))
	if err != nil {
		return nil, err
	}
	passes := 1 + e.size.tracedPasses
	var want []string
	var cold []*mbpta.CampaignReport
	run := func(t *tracer, dir string) (float64, error) {
		wall, _, err := measure(func() error {
			for p := 0; p < passes; p++ {
				name := "bench.warm_pass"
				if p == 0 {
					name = "bench.cold_pass"
				}
				reps, fps, hits, err := m.composedPass(ctx, t.root(name), pool, dir, cells)
				if err != nil {
					return err
				}
				if p == 0 && want == nil {
					want = fps
				} else if !slices.Equal(fps, want) {
					c.failf("pass %d cell fingerprints differ from the untraced cold pass", p)
				}
				if p == 0 {
					cold = reps
				} else if t != nil {
					for i, rep := range reps {
						if hits[i] != rep.StopRuns {
							c.failf("warm pass %d cell %s served %d of %d runs from cache", p, cells[i].Label(), hits[i], rep.StopRuns)
						}
					}
				}
			}
			return nil
		})
		return wall, err
	}
	untraced, err := run(nil, filepath.Join(e.dir, "untraced"))
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.dir, "traced")
	stop := t.samplePool(pool)
	traced, err := run(t, dir)
	stop()
	if err != nil {
		return nil, err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	t.count("wal.bytes", float64(size))
	for i, rep := range cold {
		t.replay(rep.Campaign.Times(), rep.Snapshots, analysisOptions(cells[i]))
	}
	return &tracedRun{untraced: untraced, traced: traced, attempted: 2 * passes, golden: digest(want)}, nil
}

// composedPass runs every cell in expansion order, as matrix.Runner
// does with CellParallel 1, each cell's campaign composed from the
// engine's parts. It returns each cell's report, fingerprint, and runs
// served from cache below its stop point (counted only when traced).
func (m matrixWarm) composedPass(ctx context.Context, s scope, pool *fabric.Pool, dir string, cells []matrix.Cell) ([]*mbpta.CampaignReport, []string, []int, error) {
	defer s.end()
	cache, err := matrix.NewCache(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	reps := make([]*mbpta.CampaignReport, len(cells))
	fps := make([]string, len(cells))
	hits := make([]int, len(cells))
	for i, cell := range cells {
		cs := s.child("bench.cell")
		reps[i], fps[i], hits[i], err = m.composedCell(ctx, cs, pool, cache, cell)
		cs.end()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("cell %s: %w", cell.Label(), err)
		}
	}
	return reps, fps, hits, nil
}

// composedCell is matrix.Runner's plain-cell path (run cache, fabric
// pool), with the cache lookup, the journal, the board factory and the
// batch sink decorated by the scope's tracer.
func (matrixWarm) composedCell(ctx context.Context, s scope, pool *fabric.Pool, cache *matrix.Cache, cell matrix.Cell) (*mbpta.CampaignReport, string, int, error) {
	cfg, err := fabric.NamedPlatform(cell.Platform)
	if err != nil {
		return nil, "", 0, err
	}
	w, err := fabric.BuiltinRegistry().Build(cell.Workload)
	if err != nil {
		return nil, "", 0, err
	}
	rule, err := cell.StopRule.Build(cell.Runs)
	if err != nil {
		return nil, "", 0, err
	}
	start := time.Now()
	entry, err := cache.Acquire(cell)
	s.leaf("matrix.acquire", start)
	if err != nil {
		return nil, "", 0, err
	}
	online := core.NewOnlineAnalyzer(analysisOptions(cell), rule)
	var hl hitLog
	lookup := entry.Lookup
	if s.t != nil {
		lookup = hl.wrap(lookup)
	}
	so := platform.StreamOptions{
		MaxRuns:   cell.Runs,
		BatchSize: cell.Batch,
		BaseSeed:  cell.BaseSeed,
		Cached:    lookup,
		Journal:   s.journal(entry.Journal(), true),
		NewBoard:  s.boards(func() (platform.Board, error) { return platform.New(cfg) }),
	}
	camp, err := pool.StreamCampaign(ctx, cfg, w, so, s.sink(online))
	if err != nil {
		entry.Close()
		return nil, "", 0, err
	}
	rep, rerr := s.report(camp, online, rule)
	fp := s.fingerprint(rep)
	start = time.Now()
	err = entry.Close()
	s.leaf("wal.close", start)
	if err != nil {
		return nil, "", 0, err
	}
	if campaignFailed(rep, rerr) {
		return nil, "", 0, rerr
	}
	hits := hl.hitsBelow(rep.StopRuns)
	s.t.count("matrix.lookups", float64(hl.lookups))
	s.t.count("matrix.hits", float64(hits))
	s.t.count("wal.runs_logged", float64(entry.Appended()))
	return rep, fp, hits, nil
}

// analysisOptions are the analyzer options matrix.Runner gives a cell.
func analysisOptions(cell matrix.Cell) core.Options {
	return core.Options{Alpha: cell.Analysis.Alpha, BlockSize: cell.Analysis.BlockSize}
}

// cellFingerprints lists a matrix report's cell fingerprints in
// expansion order.
func cellFingerprints(rep *matrix.Report) []string {
	out := make([]string, len(rep.Cells))
	for i, cell := range rep.Cells {
		out[i] = cell.Fingerprint
	}
	return out
}

// digest folds a list of fingerprints into one.
func digest(fps []string) string {
	h := sha256.New()
	for _, fp := range fps {
		fmt.Fprintln(h, fp)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// dirBytes totals the sizes of the files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range ents {
		fi, err := ent.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
