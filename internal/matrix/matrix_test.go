package matrix

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/telemetry"
	"repro/pkg/mbpta"
)

// baseCell returns a small, fully populated cell for key tests.
func baseCell() Cell {
	return Cell{
		Platform:  "RAND",
		Workload:  fabric.WorkloadSpec{Kind: "crc32", Params: json.RawMessage(`{"Bytes":512,"Seed":1}`)},
		FaultRate: 0,
		Cores:     1,
		BaseSeed:  42,
		StopRule:  StopRuleSpec{Kind: "fixed"},
		Runs:      100,
		Batch:     25,
		Analysis:  AnalysisSpec{},
	}
}

// TestCacheKeySensitivity classifies every Cell field as
// simulation-relevant (mutating it must change the key) or
// analysis-only (mutating it must not), and fails loudly on any field
// that is neither — adding a field to Cell without deciding its cache
// semantics is exactly the bug this test exists to catch.
func TestCacheKeySensitivity(t *testing.T) {
	type class struct {
		simRelevant bool
		mutate      func(*Cell)
	}
	classes := map[string]class{
		// Simulation-relevant: these change what the boards execute.
		"Platform":     {true, func(c *Cell) { c.Platform = "DET" }},
		"Workload":     {true, func(c *Cell) { c.Workload.Params = json.RawMessage(`{"Bytes":1024,"Seed":1}`) }},
		"FaultRate":    {true, func(c *Cell) { c.FaultRate = 0.25 }},
		"Cores":        {true, func(c *Cell) { c.Cores = 2 }},
		"BaseSeed":     {true, func(c *Cell) { c.BaseSeed = 43 }},
		"RunTimeoutMS": {true, func(c *Cell) { c.RunTimeoutMS = 100 }},
		// Mitigation changes measured cycle counts (overheads, recovered
		// runs); a hazard reshapes the per-run upset schedule.
		"Mitigation": {true, func(c *Cell) { c.Mitigation = mbpta.Mitigation{Kind: mbpta.MitigationECC} }},
		"Hazard":     {true, func(c *Cell) { c.Hazard = mbpta.Hazard{Kind: mbpta.HazardWeibull} }},
		// Analysis-only: these reshape the analysis over the same runs.
		"StopRule": {false, func(c *Cell) { c.StopRule = StopRuleSpec{Kind: "pwcet-delta", Q: 1e-9} }},
		"Runs":     {false, func(c *Cell) { c.Runs = 200 }},
		"Batch":    {false, func(c *Cell) { c.Batch = 50 }},
		"Analysis": {false, func(c *Cell) { c.Analysis = AnalysisSpec{Alpha: 0.01, BlockSize: 25, Quantiles: []float64{1e-6}} }},
		// Leak is analysis-only for the cell itself: the two secret
		// variants derive their own keys via withSecret's params rewrite.
		"Leak": {false, func(c *Cell) { c.Leak = true }},
	}

	base := baseCell()
	baseKey, err := base.SimKey()
	if err != nil {
		t.Fatalf("SimKey: %v", err)
	}
	ct := reflect.TypeOf(Cell{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		cl, ok := classes[name]
		if !ok {
			t.Fatalf("Cell field %q is not classified as simulation-relevant or analysis-only; "+
				"decide its cache semantics and add it to this test's table", name)
		}
		mutated := base
		cl.mutate(&mutated)
		if reflect.DeepEqual(mutated, base) {
			t.Fatalf("mutator for %q did not change the cell", name)
		}
		key, err := mutated.SimKey()
		if err != nil {
			t.Fatalf("SimKey after mutating %q: %v", name, err)
		}
		if cl.simRelevant && key == baseKey {
			t.Errorf("field %q is simulation-relevant but mutating it did not change the cache key", name)
		}
		if !cl.simRelevant && key != baseKey {
			t.Errorf("field %q is analysis-only but mutating it changed the cache key", name)
		}
	}
}

// TestSimKeyAliasStable: the empty platform name is the RAND alias and
// must share RAND's cache entries.
func TestSimKeyAliasStable(t *testing.T) {
	a, b := baseCell(), baseCell()
	b.Platform = ""
	ka, _ := a.SimKey()
	kb, err := b.SimKey()
	if err != nil {
		t.Fatalf("SimKey: %v", err)
	}
	if ka != kb {
		t.Fatalf("platform alias %q and %q derive different keys", a.Platform, b.Platform)
	}
}

func TestExpandDefaultsAndOrder(t *testing.T) {
	spec := Spec{
		Platforms: []string{"DET", "RAND"},
		Workloads: []fabric.WorkloadSpec{{Kind: "crc32"}, {Kind: "isort"}},
	}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(cells) != 4 {
		t.Fatalf("2x2 spec expanded to %d cells", len(cells))
	}
	want := []string{"DET/crc32/f0/c1/fixed", "DET/isort/f0/c1/fixed", "RAND/crc32/f0/c1/fixed", "RAND/isort/f0/c1/fixed"}
	for i, c := range cells {
		if c.Label() != want[i] {
			t.Errorf("cell %d = %s, want %s", i, c.Label(), want[i])
		}
		if c.Runs != 3000 || c.Batch != 250 {
			t.Errorf("cell %d defaults: runs %d batch %d", i, c.Runs, c.Batch)
		}
	}
	again, _ := Expand(spec)
	if !reflect.DeepEqual(cells, again) {
		t.Fatal("expansion is not deterministic")
	}
}

func TestExpandExclusions(t *testing.T) {
	rate := 0.25
	spec := Spec{
		Platforms:  []string{"DET", "RAND"},
		Workloads:  []fabric.WorkloadSpec{{Kind: "crc32"}},
		FaultRates: []float64{0, 0.25},
		Cores:      []int{1, 2},
		Exclude:    []Exclusion{{Platform: "DET", FaultRate: &rate}},
	}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	for _, c := range cells {
		if c.FaultRate > 0 && c.Cores > 1 {
			t.Errorf("fault x multicore cell %s survived auto-exclusion", c.Label())
		}
		if c.Platform == "DET" && c.FaultRate == rate {
			t.Errorf("excluded cell %s survived", c.Label())
		}
	}
	// 2 platforms x (f0 x {c1,c2} + f0.25 x c1) = 6, minus DET/f0.25 = 5.
	if len(cells) != 5 {
		t.Fatalf("got %d cells, want 5", len(cells))
	}
}

func TestExpandRejectsBadSpecs(t *testing.T) {
	for name, spec := range map[string]Spec{
		"no platforms":  {Workloads: []fabric.WorkloadSpec{{Kind: "crc32"}}},
		"no workloads":  {Platforms: []string{"RAND"}},
		"bad platform":  {Platforms: []string{"XYZ"}, Workloads: []fabric.WorkloadSpec{{Kind: "crc32"}}},
		"bad rule":      {Platforms: []string{"RAND"}, Workloads: []fabric.WorkloadSpec{{Kind: "crc32"}}, StopRules: []StopRuleSpec{{Kind: "nope"}}},
		"bad cores":     {Platforms: []string{"RAND"}, Workloads: []fabric.WorkloadSpec{{Kind: "crc32"}}, Cores: []int{0}},
		"cores > board": {Platforms: []string{"RAND"}, Workloads: []fabric.WorkloadSpec{{Kind: "crc32"}}, Cores: []int{5}},
		"too many cells": {Platforms: []string{"RAND"}, Workloads: make([]fabric.WorkloadSpec, 64),
			FaultRates: make([]float64, 65)},
		"all excluded": {Platforms: []string{"RAND"}, Workloads: []fabric.WorkloadSpec{{Kind: "crc32"}}, Exclude: []Exclusion{{}}},
	} {
		if _, err := Expand(spec); err == nil {
			t.Errorf("%s: Expand accepted an invalid spec", name)
		}
	}
}

// smallSpec is a fast 2-platform x 1-workload matrix for execution
// tests.
func smallSpec(runs int) Spec {
	return Spec{
		Name:      "test",
		Platforms: []string{"DET", "RAND"},
		Workloads: []fabric.WorkloadSpec{{Kind: "crc32", Params: json.RawMessage(`{"Bytes":256,"Seed":1}`)}},
		Runs:      runs,
		Batch:     25,
		BaseSeed:  7,
		Analysis:  AnalysisSpec{BlockSize: 10},
	}
}

// TestMatrixMatchesPlainCampaign: a matrix cell (cold cache, through
// the runner) fingerprints identically to the same campaign run
// directly through mbpta.Campaign — the matrix layer adds provenance,
// not perturbation.
func TestMatrixMatchesPlainCampaign(t *testing.T) {
	cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	r := &Runner{Cache: cache, CellParallel: 2}
	rep, err := r.Run(context.Background(), smallSpec(100))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.CachedRuns != 0 {
		t.Fatalf("cold matrix reported %d cached runs", rep.CachedRuns)
	}
	for _, c := range rep.Cells {
		cfg, _ := fabric.NamedPlatform(c.Cell.Platform)
		w, _ := fabric.BuiltinRegistry().Build(c.Cell.Workload)
		direct, err := mbpta.Campaign(context.Background(), cfg, w,
			mbpta.WithRuns(100), mbpta.WithBatchSize(25), mbpta.WithBaseSeed(7),
			mbpta.WithAnalyzerOptions(mbpta.Options{BlockSize: 10}))
		if err != nil && direct == nil {
			t.Fatalf("direct campaign %s: %v", c.Label, err)
		}
		if got, want := c.Fingerprint, direct.Fingerprint(); got != want {
			t.Errorf("cell %s fingerprint %s != direct campaign %s", c.Label, got, want)
		}
	}
}

// TestWarmReplayAndExtension is the cache contract end to end: an
// analysis-only re-run simulates nothing and fingerprints identically,
// and a larger budget extends the cached prefix instead of restarting.
func TestWarmReplayAndExtension(t *testing.T) {
	cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	r := &Runner{Cache: cache, CellParallel: 2}

	cold, err := r.Run(context.Background(), smallSpec(100))
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if cold.SimulatedRuns != 200 || cold.CachedRuns != 0 {
		t.Fatalf("cold run: %d simulated, %d cached; want 200, 0", cold.SimulatedRuns, cold.CachedRuns)
	}

	// Analysis-only change that leaves the whole analysis trace intact:
	// the report quantiles are queried after the fact and are not part
	// of CampaignReport.Fingerprint, so the replayed cells must
	// fingerprint identically to the cold ones.
	warm := smallSpec(100)
	warm.Analysis.Quantiles = []float64{1e-6}
	warmRep, err := r.Run(context.Background(), warm)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if warmRep.SimulatedRuns != 0 {
		t.Fatalf("warm run re-simulated %d runs", warmRep.SimulatedRuns)
	}
	if warmRep.CachedRuns != 200 {
		t.Fatalf("warm run served %d cached runs, want 200", warmRep.CachedRuns)
	}
	for i := range warmRep.Cells {
		if got, want := warmRep.Cells[i].Fingerprint, cold.Cells[i].Fingerprint; got != want {
			t.Errorf("cell %s: cached fingerprint %s != fresh %s — replay is not bit-identical",
				warmRep.Cells[i].Label, got, want)
		}
	}

	// A batch-size change reshapes the analysis trace (and thus the
	// fingerprint) but must still replay every run from the cache.
	rebatched := smallSpec(100)
	rebatched.Batch = 50
	rebatchedRep, err := r.Run(context.Background(), rebatched)
	if err != nil {
		t.Fatalf("rebatched run: %v", err)
	}
	if rebatchedRep.SimulatedRuns != 0 {
		t.Fatalf("rebatched run re-simulated %d runs", rebatchedRep.SimulatedRuns)
	}

	// Budget extension: 150 runs per cell, 100 already cached.
	ext, err := r.Run(context.Background(), smallSpec(150))
	if err != nil {
		t.Fatalf("extension run: %v", err)
	}
	if ext.CachedRuns != 200 || ext.SimulatedRuns != 100 {
		t.Fatalf("extension: %d cached, %d simulated; want 200 cached, 100 simulated",
			ext.CachedRuns, ext.SimulatedRuns)
	}
	// And the extended prefix replays fully next time.
	again, err := r.Run(context.Background(), smallSpec(150))
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if again.SimulatedRuns != 0 {
		t.Fatalf("re-run after extension re-simulated %d runs", again.SimulatedRuns)
	}
	for i := range again.Cells {
		if got, want := again.Cells[i].Fingerprint, ext.Cells[i].Fingerprint; got != want {
			t.Errorf("cell %s: extended replay fingerprint drifted", again.Cells[i].Label)
		}
	}
}

// TestCacheRejectsForeignJournal: an on-disk entry whose identity does
// not match the cell is rebuilt, not replayed.
func TestCacheRejectsForeignJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	cell := baseCell()
	cell.Runs, cell.Batch = 20, 10
	key, _ := cell.SimKey()

	// Populate the entry, then corrupt its identity by writing a
	// different cell's journal at this cell's key path.
	other := cell
	other.BaseSeed = 99
	entry, err := cache.Acquire(other)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	entry.Close()
	otherKey, _ := other.SimKey()
	if err := copyFile(filepath.Join(dir, otherKey+".wal"), filepath.Join(dir, key+".wal")); err != nil {
		t.Fatalf("copy: %v", err)
	}

	got, err := cache.Acquire(cell)
	if err != nil {
		t.Fatalf("Acquire after tamper: %v", err)
	}
	defer got.Close()
	if len(got.Prefix) != 0 {
		t.Fatalf("tampered entry served a %d-run prefix instead of rebuilding", len(got.Prefix))
	}
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// TestRunnerWithFabricPool: single-core cells, plain and fault-injected
// with and without ECC, schedule through the fabric executor pool and
// still fingerprint identically to local execution.
func TestRunnerWithFabricPool(t *testing.T) {
	pool := fabric.NewPool(fabric.Config{Executors: 2})
	defer pool.Close()
	cacheA, _ := NewCache(filepath.Join(t.TempDir(), "a"))
	cacheB, _ := NewCache(filepath.Join(t.TempDir(), "b"))

	spec := smallSpec(100)
	spec.FaultRates = []float64{0, 0.5}
	spec.Mitigations = []mbpta.Mitigation{{}, {Kind: mbpta.MitigationECC}}
	pooled := &Runner{Pool: pool, Cache: cacheA, CellParallel: 2}
	local := &Runner{Cache: cacheB, CellParallel: 2}
	repP, err := pooled.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("pooled run: %v", err)
	}
	repL, err := local.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	// Per platform: the plain cell, then unmitigated and ECC fault cells.
	faulted, quarantined := 0, 0
	for _, c := range repP.Cells {
		if c.Cell.FaultRate > 0 {
			faulted++
			quarantined += c.Quarantined
		}
	}
	if len(repP.Cells) != 6 || faulted != 4 {
		t.Fatalf("%d cells, %d fault-injected; want 6 and 4", len(repP.Cells), faulted)
	}
	if quarantined == 0 {
		t.Fatal("no fault cell quarantined a run: injection did not happen")
	}
	for i := range repP.Cells {
		if repP.Cells[i].Fingerprint != repL.Cells[i].Fingerprint {
			t.Errorf("cell %s: pool execution changed the fingerprint", repP.Cells[i].Label)
		}
	}
}

// TestReportTable smoke-tests the comparative rendering.
func TestReportTable(t *testing.T) {
	cache, _ := NewCache(filepath.Join(t.TempDir(), "cache"))
	r := &Runner{Cache: cache, CellParallel: 2}
	rep, err := r.Run(context.Background(), smallSpec(100))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	rep.Table(&buf)
	out := buf.String()
	for _, want := range []string{"RAND/crc32", "DET/crc32", "pWCET"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestLeakGrid is the comparative leak-probability grid end to end:
// under Spec.Leak each cell measures both secret variants, and the
// deterministic platform's cell must leak while the time-randomized
// one's must not. A warm re-run replays both variants from the cache
// with identical verdicts.
func TestLeakGrid(t *testing.T) {
	spec := Spec{
		Name:      "leak grid",
		Platforms: []string{"DET", "RAND"},
		Workloads: []fabric.WorkloadSpec{
			{Kind: "secretdep", Params: json.RawMessage(`{"Lines":48,"Passes":8,"Seed":5}`)},
		},
		Runs:     200,
		Batch:    50,
		BaseSeed: 5,
		Leak:     true,
		Analysis: AnalysisSpec{BlockSize: 10},
	}
	cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	r := &Runner{Cache: cache, CellParallel: 2}
	run := func(label string) *Report {
		rep, err := r.Run(context.Background(), spec)
		if rep == nil {
			t.Fatalf("%s run: %v", label, err)
		}
		return rep
	}
	cold := run("cold")
	if len(cold.Cells) != 2 {
		t.Fatalf("expected 2 cells, got %d", len(cold.Cells))
	}
	for _, c := range cold.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s failed: %s", c.Label, c.Err)
		}
		if c.LeakProb == nil || c.Leaks == nil {
			t.Fatalf("cell %s has no leak verdict", c.Label)
		}
		switch c.Cell.Platform {
		case "DET":
			if !*c.Leaks || *c.LeakProb < 0.999 {
				t.Errorf("DET cell: leaks=%v P(leak)=%.4f, want a certain leak", *c.Leaks, *c.LeakProb)
			}
		case "RAND":
			if *c.Leaks || *c.LeakProb > 0.5 {
				t.Errorf("RAND cell: leaks=%v P(leak)=%.4f, want no leak", *c.Leaks, *c.LeakProb)
			}
		}
	}

	warm := run("warm")
	if warm.SimulatedRuns != 0 {
		t.Errorf("warm leak grid simulated %d runs", warm.SimulatedRuns)
	}
	for i := range warm.Cells {
		if warm.Cells[i].Fingerprint != cold.Cells[i].Fingerprint {
			t.Errorf("cell %s: warm replay changed the fingerprint", warm.Cells[i].Label)
		}
		if *warm.Cells[i].LeakProb != *cold.Cells[i].LeakProb {
			t.Errorf("cell %s: warm replay changed P(leak)", warm.Cells[i].Label)
		}
	}

	var buf bytes.Buffer
	cold.Table(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("P(leak)")) || !bytes.Contains(buf.Bytes(), []byte("LEAK")) {
		t.Errorf("leak table missing leak column:\n%s", buf.String())
	}
}

// TestWarmPassSyncsOnlyOnClose: barriers inside the cached prefix
// append nothing, and closing an entry whose journal this pass never
// wrote syncs nothing either, so a fully warm pass performs no fsync.
func TestWarmPassSyncsOnlyOnClose(t *testing.T) {
	cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	r := &Runner{Cache: cache, CellParallel: 1}
	if _, err := r.Run(context.Background(), smallSpec(100)); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	reg := telemetry.New()
	cache.SetTelemetry(reg)
	warm, err := r.Run(context.Background(), smallSpec(100))
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if warm.SimulatedRuns != 0 {
		t.Fatalf("warm run re-simulated %d runs", warm.SimulatedRuns)
	}
	if got := reg.Counter("wal_fsyncs_total").Value(); got != 0 {
		t.Errorf("warm pass fsynced %d times, want 0", got)
	}
}

// TestCachedRunsCountsDeliveredOnly pins the DET/vecnorm crps cell of
// the repository benchmark's matrix: it stops at 350 runs, and a warm
// pass must report 350 cached runs, not the runs the fabric leased
// past the stop.
func TestCachedRunsCountsDeliveredOnly(t *testing.T) {
	pool := fabric.NewPool(fabric.Config{Executors: 1})
	defer pool.Close()
	cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	spec := Spec{
		Name:      "vecnorm",
		Platforms: []string{"DET"},
		Workloads: []fabric.WorkloadSpec{{Kind: "vecnorm", Params: json.RawMessage(`{"N":64,"Seed":1}`)}},
		StopRules: []StopRuleSpec{{Kind: "fixed"}, {Kind: "crps"}},
		Runs:      1000,
		Batch:     50,
		BaseSeed:  20170327,
		Analysis:  AnalysisSpec{BlockSize: 50},
	}
	r := &Runner{Pool: pool, Cache: cache, CellParallel: 1}
	if _, err := r.Run(context.Background(), spec); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	warm, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	for _, c := range warm.Cells {
		want := 1000
		if c.Cell.StopRule.Kind == "crps" {
			want = 350
		}
		if c.StopRuns != want || c.CachedRuns != want || c.SimulatedRuns != 0 {
			t.Errorf("cell %s: stop %d, cached %d, simulated %d; want %d, %d, 0",
				c.Label, c.StopRuns, c.CachedRuns, c.SimulatedRuns, want, want)
		}
	}
	if warm.CachedRuns != 1350 {
		t.Errorf("report cached %d runs, want 1350", warm.CachedRuns)
	}
}

// TestCellsStartInExpansionOrder: at CellParallel 1 cells start in
// Expand order, so of two cells sharing a simulation key the first one
// always simulates and the second replays, and per-cell SimulatedRuns
// repeat exactly from one cold pass to the next.
func TestCellsStartInExpansionOrder(t *testing.T) {
	spec := smallSpec(100)
	spec.StopRules = []StopRuleSpec{{Kind: "fixed"}, {Kind: "crps"}}
	var first []int
	for pass := 0; pass < 3; pass++ {
		cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
		if err != nil {
			t.Fatalf("NewCache: %v", err)
		}
		var started []int
		r := &Runner{Cache: cache, CellParallel: 1, Progress: func(p CellProgress) {
			if p.State == CellStart {
				started = append(started, p.Index)
			}
		}}
		rep, err := r.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for i, idx := range started {
			if idx != i {
				t.Fatalf("pass %d: start order %v, want expansion order", pass, started)
			}
		}
		sim := make([]int, len(rep.Cells))
		for i, c := range rep.Cells {
			sim[i] = c.SimulatedRuns
		}
		if pass == 0 {
			first = sim
			continue
		}
		if !reflect.DeepEqual(sim, first) {
			t.Fatalf("pass %d: per-cell simulated runs %v, pass 0 had %v", pass, sim, first)
		}
	}
}

// BenchmarkCacheAcquireWarm measures opening and closing one warm cache
// entry: recovering a 1000-run journal and validating its seed
// schedule, with nothing appended.
func BenchmarkCacheAcquireWarm(b *testing.B) {
	cache, err := NewCache(filepath.Join(b.TempDir(), "cache"))
	if err != nil {
		b.Fatal(err)
	}
	spec := smallSpec(1000)
	spec.Platforms = []string{"RAND"}
	r := &Runner{Cache: cache, CellParallel: 1}
	if _, err := r.Run(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	cells, err := Expand(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entry, err := cache.Acquire(cells[0])
		if err != nil {
			b.Fatal(err)
		}
		if len(entry.Prefix) != 1000 {
			b.Fatalf("warm entry holds %d runs, want 1000", len(entry.Prefix))
		}
		if err := entry.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
