// Telemetry harvest for the campaign engine. The simulator's hot loop
// carries no telemetry calls: the substrate models keep plain struct
// counters (cache/TLB/FPU stats, run-kind tallies). An executor diffs
// its board's counters after each run it completes; the session keeps
// the delta of the first copy of each run (first write wins, like the
// result) summed per batch, and this file folds that sum into a
// telemetry.Registry at the batch barrier — the one point in a
// streaming campaign where a single goroutine observes a complete,
// ordered prefix of the run series.
//
// Determinism: every instrument harvested from per-run state (cache,
// TLB, FPU, cycle, instruction and outcome counters; run/batch events)
// is reproducible for a fixed BaseSeed regardless of Parallel, because
// per-run deltas depend only on (workload, run index, seed) and sums
// commute. The exceptions, excluded from the parallelism-invariance
// test and documented in DESIGN.md §11, are the wall-clock instruments
// (campaign_runs_per_sec, campaign_batch_seconds), the retry/timeout
// tallies, and the host-execution instruments
// sim_replay_runs_total/sim_interpret_runs_total/sim_trace_recordings_total
// for keyed workloads: each board records the keys that recur on it,
// so which runs record, replay or interpret depends on which board ran
// which run. The replayed and interpreted runs add up to the runs
// executed.
package platform

import (
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/fpu"
	"repro/internal/telemetry"
	"repro/internal/tlb"
)

// BoardStats is the cumulative per-board counter snapshot the
// telemetry harvest diffs between batches.
type BoardStats struct {
	IL1, DL1      cache.Stats
	ITLB, DTLB    tlb.Stats
	FPU           fpu.Stats
	ReplayRuns    uint64
	InterpretRuns uint64
	// Recordings counts the interpreted runs that recorded their block
	// stream for replay (a recording over the board's trace budget is
	// counted and dropped).
	Recordings uint64
}

// BoardStats returns the platform's cumulative substrate counters.
func (p *Platform) BoardStats() BoardStats { return p.meas.stats() }

// Sub returns the counter delta b - prev (prev must be an earlier
// snapshot of the same board).
func (b BoardStats) Sub(prev BoardStats) BoardStats {
	return BoardStats{
		IL1:           subCache(b.IL1, prev.IL1),
		DL1:           subCache(b.DL1, prev.DL1),
		ITLB:          subTLB(b.ITLB, prev.ITLB),
		DTLB:          subTLB(b.DTLB, prev.DTLB),
		FPU:           fpu.Stats{DivWorstCase: b.FPU.DivWorstCase - prev.FPU.DivWorstCase, SqrtWorstCase: b.FPU.SqrtWorstCase - prev.FPU.SqrtWorstCase},
		ReplayRuns:    b.ReplayRuns - prev.ReplayRuns,
		InterpretRuns: b.InterpretRuns - prev.InterpretRuns,
		Recordings:    b.Recordings - prev.Recordings,
	}
}

// add returns the counter sum b + d, accumulating per-run deltas.
func (b BoardStats) add(d BoardStats) BoardStats {
	return BoardStats{
		IL1:           addCache(b.IL1, d.IL1),
		DL1:           addCache(b.DL1, d.DL1),
		ITLB:          tlb.Stats{Hits: b.ITLB.Hits + d.ITLB.Hits, Misses: b.ITLB.Misses + d.ITLB.Misses, MRUHits: b.ITLB.MRUHits + d.ITLB.MRUHits},
		DTLB:          tlb.Stats{Hits: b.DTLB.Hits + d.DTLB.Hits, Misses: b.DTLB.Misses + d.DTLB.Misses, MRUHits: b.DTLB.MRUHits + d.DTLB.MRUHits},
		FPU:           fpu.Stats{DivWorstCase: b.FPU.DivWorstCase + d.FPU.DivWorstCase, SqrtWorstCase: b.FPU.SqrtWorstCase + d.FPU.SqrtWorstCase},
		ReplayRuns:    b.ReplayRuns + d.ReplayRuns,
		InterpretRuns: b.InterpretRuns + d.InterpretRuns,
		Recordings:    b.Recordings + d.Recordings,
	}
}

func addCache(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:        a.Hits + b.Hits,
		Misses:      a.Misses + b.Misses,
		Evictions:   a.Evictions + b.Evictions,
		WriteHits:   a.WriteHits + b.WriteHits,
		WriteMisses: a.WriteMisses + b.WriteMisses,
		MRUHits:     a.MRUHits + b.MRUHits,
	}
}

func subCache(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:        a.Hits - b.Hits,
		Misses:      a.Misses - b.Misses,
		Evictions:   a.Evictions - b.Evictions,
		WriteHits:   a.WriteHits - b.WriteHits,
		WriteMisses: a.WriteMisses - b.WriteMisses,
		MRUHits:     a.MRUHits - b.MRUHits,
	}
}

func subTLB(a, b tlb.Stats) tlb.Stats {
	return tlb.Stats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, MRUHits: a.MRUHits - b.MRUHits}
}

// streamTele aggregates one campaign's telemetry: pre-resolved
// instruments fed at each batch barrier. All methods run on the
// session's delivery loop.
//
// Every instrument the barrier harvest touches is resolved once at
// campaign start — the per-batch path does no registry lookups and no
// name construction, so a telemetry-enabled campaign allocates a
// near-constant amount per batch (one run-event field slab, one batch
// event) instead of per counter update.
type streamTele struct {
	reg     *telemetry.Registry
	started time.Time

	runs, clean, quarantined, faults, batches *telemetry.Counter
	cycles, instructions                      *telemetry.Counter
	batchSec                                  *telemetry.Histogram
	runsPerSec, ipc                           *telemetry.Gauge

	il1, dl1                      cacheInstruments
	itlb, dtlb                    tlbInstruments
	fpuDiv, fpuSqrt               *telemetry.Counter
	replay, interpret, recordings *telemetry.Counter
}

// cacheInstruments is one cache level's pre-resolved harvest set.
type cacheInstruments struct {
	hits, misses, evictions     *telemetry.Counter
	writeHits, writeMisses, mru *telemetry.Counter
	hitRatio, mruRatio          *telemetry.Gauge
}

// tlbInstruments is one TLB's pre-resolved harvest set.
type tlbInstruments struct {
	hits, misses, mru  *telemetry.Counter
	hitRatio, mruRatio *telemetry.Gauge
}

// Instrument names are spelled out as literals (not built with string
// concatenation) so resolving them allocates nothing.
func il1Instruments(reg *telemetry.Registry) cacheInstruments {
	return cacheInstruments{
		hits:        reg.Counter("sim_il1_hits_total"),
		misses:      reg.Counter("sim_il1_misses_total"),
		evictions:   reg.Counter("sim_il1_evictions_total"),
		writeHits:   reg.Counter("sim_il1_write_hits_total"),
		writeMisses: reg.Counter("sim_il1_write_misses_total"),
		mru:         reg.Counter("sim_il1_mru_hits_total"),
		hitRatio:    reg.Gauge("sim_il1_hit_ratio"),
		mruRatio:    reg.Gauge("sim_il1_mru_hit_ratio"),
	}
}

func dl1Instruments(reg *telemetry.Registry) cacheInstruments {
	return cacheInstruments{
		hits:        reg.Counter("sim_dl1_hits_total"),
		misses:      reg.Counter("sim_dl1_misses_total"),
		evictions:   reg.Counter("sim_dl1_evictions_total"),
		writeHits:   reg.Counter("sim_dl1_write_hits_total"),
		writeMisses: reg.Counter("sim_dl1_write_misses_total"),
		mru:         reg.Counter("sim_dl1_mru_hits_total"),
		hitRatio:    reg.Gauge("sim_dl1_hit_ratio"),
		mruRatio:    reg.Gauge("sim_dl1_mru_hit_ratio"),
	}
}

func itlbInstruments(reg *telemetry.Registry) tlbInstruments {
	return tlbInstruments{
		hits:     reg.Counter("sim_itlb_hits_total"),
		misses:   reg.Counter("sim_itlb_misses_total"),
		mru:      reg.Counter("sim_itlb_mru_hits_total"),
		hitRatio: reg.Gauge("sim_itlb_hit_ratio"),
		mruRatio: reg.Gauge("sim_itlb_mru_hit_ratio"),
	}
}

func dtlbInstruments(reg *telemetry.Registry) tlbInstruments {
	return tlbInstruments{
		hits:     reg.Counter("sim_dtlb_hits_total"),
		misses:   reg.Counter("sim_dtlb_misses_total"),
		mru:      reg.Counter("sim_dtlb_mru_hits_total"),
		hitRatio: reg.Gauge("sim_dtlb_hit_ratio"),
		mruRatio: reg.Gauge("sim_dtlb_mru_hit_ratio"),
	}
}

// batchSecondsBounds spans sub-millisecond micro-batches to multi-
// minute fault campaigns.
var batchSecondsBounds = []float64{0.001, 0.005, 0.02, 0.1, 0.5, 2, 10, 60, 300}

// boardStatser is the optional Board extension the substrate harvest
// uses. Both Platform and the co-simulated Multicore implement it
// through their shared measured core (measured.stats), whose counters
// accumulate across the board's runs.
type boardStatser interface {
	BoardStats() BoardStats
}

// BoardStats returns the cumulative substrate counters of the measured
// core (core 0) — the core whose timing the campaign analyzes; the
// co-runner cores exist to generate contention and are not reported.
// Read between runs like Platform's, when no run is in flight on the
// board.
func (mc *Multicore) BoardStats() BoardStats {
	if !mc.built {
		return BoardStats{}
	}
	return mc.meas.stats()
}

func newStreamTele(reg *telemetry.Registry, o StreamOptions, platformName, workload string) *streamTele {
	t := &streamTele{
		reg:          reg,
		started:      time.Now(),
		runs:         reg.Counter("campaign_runs_total"),
		clean:        reg.Counter("campaign_clean_runs_total"),
		quarantined:  reg.Counter("campaign_quarantined_total"),
		faults:       reg.Counter("campaign_faults_injected_total"),
		batches:      reg.Counter("campaign_batches_total"),
		cycles:       reg.Counter("sim_cycles_total"),
		instructions: reg.Counter("sim_instructions_total"),
		batchSec:     reg.Histogram("campaign_batch_seconds", batchSecondsBounds),
		runsPerSec:   reg.Gauge("campaign_runs_per_sec"),
		ipc:          reg.Gauge("sim_ipc"),
		il1:          il1Instruments(reg),
		dl1:          dl1Instruments(reg),
		itlb:         itlbInstruments(reg),
		dtlb:         dtlbInstruments(reg),
		fpuDiv:       reg.Counter("sim_fpu_div_worstcase_total"),
		fpuSqrt:      reg.Counter("sim_fpu_sqrt_worstcase_total"),
		replay:       reg.Counter("sim_replay_runs_total"),
		interpret:    reg.Counter("sim_interpret_runs_total"),
		recordings:   reg.Counter("sim_trace_recordings_total"),
	}
	reg.Emit("campaign_start", -1,
		telemetry.Str("platform", platformName),
		telemetry.Str("workload", workload),
		telemetry.Num("max_runs", float64(o.MaxRuns)),
		telemetry.Num("batch_size", float64(o.BatchSize)),
		telemetry.Str("base_seed", strconv.FormatUint(o.BaseSeed, 10)),
	)
	return t
}

// emitBatchResults publishes everything about a batch that is derivable
// from its results alone — outcome counters, per-run events (in run
// order), campaign counters, and the batch event. It is shared between
// the live barrier harvest and the resume replay, which re-emits
// journaled batches so the event stream of a resumed campaign is
// byte-identical to an uninterrupted one.
func emitBatchResults(reg *telemetry.Registry, b Batch) {
	var cycles, instructions, faults uint64
	var quarantined int
	for _, r := range b.Results {
		cycles += r.Cycles
		instructions += r.Instructions
		faults += uint64(r.Faults)
		if r.Quarantined() {
			quarantined++
			reg.Counter("campaign_outcome_" + telemetry.SanitizeName(r.Outcome) + "_total").Inc()
		}
	}
	// One field slab per batch, sub-sliced per run: sized for the worst
	// case (3 fields per run, 2 more per quarantined run) so appends
	// never reallocate and earlier sub-slices stay valid. The slab is
	// fresh each batch because sinks (RingSink) may retain Event.Fields
	// after Emit returns — reuse across batches would corrupt retained
	// events.
	slab := make([]telemetry.Field, 0, 3*len(b.Results)+2*quarantined)
	for i, r := range b.Results {
		start := len(slab)
		slab = append(slab,
			telemetry.Num("cycles", float64(r.Cycles)),
			telemetry.Num("instructions", float64(r.Instructions)))
		if r.Path != "" {
			slab = append(slab, telemetry.Str("path", r.Path))
		}
		if r.Quarantined() {
			slab = append(slab, telemetry.Str("outcome", r.Outcome),
				telemetry.Num("faults", float64(r.Faults)))
		}
		reg.Emit("run", b.Start+i, slab[start:len(slab):len(slab)]...)
	}

	reg.Counter("campaign_runs_total").Add(uint64(len(b.Results)))
	reg.Counter("campaign_clean_runs_total").Add(uint64(len(b.Results) - quarantined))
	reg.Counter("campaign_quarantined_total").Add(uint64(quarantined))
	reg.Counter("campaign_faults_injected_total").Add(faults)
	reg.Counter("campaign_batches_total").Inc()
	reg.Counter("sim_cycles_total").Add(cycles)
	reg.Counter("sim_instructions_total").Add(instructions)

	reg.Emit("batch", -1,
		telemetry.Num("batch", float64(b.Index)),
		telemetry.Num("start", float64(b.Start)),
		telemetry.Num("runs", float64(len(b.Results))),
		telemetry.Num("cycles", float64(cycles)),
		telemetry.Num("quarantined", float64(quarantined)),
	)
}

// observeBatch folds one completed batch into the registry: result-
// derived counters and per-run events (in run order), then the
// substrate counters its runs added on the executors' boards, then the
// derived gauges.
func (t *streamTele) observeBatch(b Batch, delta BoardStats, elapsed time.Duration) {
	emitBatchResults(t.reg, b)

	t.il1.add(delta.IL1)
	t.dl1.add(delta.DL1)
	t.itlb.add(delta.ITLB)
	t.dtlb.add(delta.DTLB)
	t.fpuDiv.Add(delta.FPU.DivWorstCase)
	t.fpuSqrt.Add(delta.FPU.SqrtWorstCase)
	t.replay.Add(delta.ReplayRuns)
	t.interpret.Add(delta.InterpretRuns)
	t.recordings.Add(delta.Recordings)
	t.il1.setRatios()
	t.dl1.setRatios()
	t.itlb.setRatios()
	t.dtlb.setRatios()

	if cyc := t.cycles.Value(); cyc > 0 {
		t.ipc.Set(float64(t.instructions.Value()) / float64(cyc))
	}
	t.batchSec.Observe(elapsed.Seconds())
	if wall := time.Since(t.started).Seconds(); wall > 0 {
		t.runsPerSec.Set(float64(t.runs.Value()) / wall)
	}
}

func (c cacheInstruments) add(s cache.Stats) {
	c.hits.Add(s.Hits)
	c.misses.Add(s.Misses)
	c.evictions.Add(s.Evictions)
	c.writeHits.Add(s.WriteHits)
	c.writeMisses.Add(s.WriteMisses)
	c.mru.Add(s.MRUHits)
}

// setRatios refreshes the level's derived hit-rate gauges from its
// cumulative counters.
func (c cacheInstruments) setRatios() {
	hits := c.hits.Value() + c.writeHits.Value()
	total := hits + c.misses.Value() + c.writeMisses.Value()
	if total > 0 {
		c.hitRatio.Set(float64(hits) / float64(total))
		c.mruRatio.Set(float64(c.mru.Value()) / float64(total))
	}
}

func (tl tlbInstruments) add(s tlb.Stats) {
	tl.hits.Add(s.Hits)
	tl.misses.Add(s.Misses)
	tl.mru.Add(s.MRUHits)
}

func (tl tlbInstruments) setRatios() {
	hits := tl.hits.Value()
	total := hits + tl.misses.Value()
	if total > 0 {
		tl.hitRatio.Set(float64(hits) / float64(total))
		tl.mruRatio.Set(float64(tl.mru.Value()) / float64(total))
	}
}

// finish emits the campaign_end event.
func (t *streamTele) finish(totalRuns int, stopped bool) {
	early := 0.0
	if stopped {
		early = 1
	}
	t.reg.Emit("campaign_end", -1,
		telemetry.Num("runs", float64(totalRuns)),
		telemetry.Num("stopped_early", early),
	)
}
