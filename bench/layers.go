package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/evt"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/pkg/mbpta"
)

// tracer is one traced run: the span recorder plus the counters taken
// at the same layer boundaries. Its decorators wrap the hooks the
// campaign engine already exposes (StreamOptions.NewBoard, .Journal,
// .Cached, and the batch sink), so the program itself is untouched.
// A nil tracer traces nothing: its scopes hand every hook back
// undecorated, which is how a traced run's untraced twin is composed.
type tracer struct {
	rec *recorder

	mu        sync.Mutex
	nextTrace int
	boards    []platform.Board // undecorated, read for BoardStats at the end
	sim       simTotals
	layer     map[string]float64 // counters reported as per-layer metrics
	poolStats [2]float64         // summed queued and running leases
	poolN     float64            // pool samples taken
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), layer: make(map[string]float64)}
}

// count adds v to a per-layer counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.layer[name] += v
	t.mu.Unlock()
}

// root opens the root span of a new trace.
func (t *tracer) root(name string) scope {
	if t == nil {
		return scope{}
	}
	t.mu.Lock()
	t.nextTrace++
	id := t.nextTrace
	t.mu.Unlock()
	return scope{t: t, trace: id, parent: t.rec.open(id, 0, name)}
}

// scope places spans under one parent span of one trace.
type scope struct {
	t      *tracer
	trace  int
	parent int
}

// leaf records a finished child span that started at start.
func (s scope) leaf(name string, start time.Time) {
	if s.t != nil {
		s.t.rec.add(s.trace, s.parent, name, start, time.Now())
	}
}

// child opens a structural child span and returns the scope under it.
func (s scope) child(name string) scope {
	if s.t == nil {
		return s
	}
	return scope{t: s.t, trace: s.trace, parent: s.t.rec.open(s.trace, s.parent, name)}
}

// end closes the scope's own span.
func (s scope) end() {
	if s.t != nil {
		s.t.rec.end(s.parent)
	}
}

// simTotals accumulates what the modelled hardware did.
type simTotals struct {
	runs, instructions, cycles float64
	// accesses and misses of IL1, DL1, ITLB, DTLB, in that order.
	accesses, misses  [4]float64
	replay, interpret float64
}

func (a *simTotals) add(b platform.BoardStats) {
	caches := []struct{ hits, wHits, misses, wMisses uint64 }{
		{b.IL1.Hits, b.IL1.WriteHits, b.IL1.Misses, b.IL1.WriteMisses},
		{b.DL1.Hits, b.DL1.WriteHits, b.DL1.Misses, b.DL1.WriteMisses},
		{b.ITLB.Hits, 0, b.ITLB.Misses, 0},
		{b.DTLB.Hits, 0, b.DTLB.Misses, 0},
	}
	for i, c := range caches {
		miss := float64(c.misses + c.wMisses)
		a.accesses[i] += float64(c.hits+c.wHits) + miss
		a.misses[i] += miss
	}
	a.replay += float64(b.ReplayRuns)
	a.interpret += float64(b.InterpretRuns)
}

// boardStatser is the BoardStats method single-core and multicore
// boards both have.
type boardStatser interface{ BoardStats() platform.BoardStats }

// boards decorates a board factory: each build is timed as
// platform.board_build and every run on the board as platform.run.
func (s scope) boards(build func() (platform.Board, error)) func() (platform.Board, error) {
	if s.t == nil {
		return build
	}
	return func() (platform.Board, error) {
		start := time.Now()
		b, err := build()
		s.leaf("platform.board_build", start)
		if err != nil {
			return nil, err
		}
		s.t.mu.Lock()
		s.t.boards = append(s.t.boards, b)
		s.t.layer["platform.boards_built"]++
		s.t.mu.Unlock()
		return &tracedBoard{inner: b, s: s}, nil
	}
}

type tracedBoard struct {
	inner platform.Board
	s     scope
}

func (b *tracedBoard) ExecuteRun(ctx context.Context, w platform.Workload, run int, seed uint64) (platform.RunResult, error) {
	start := time.Now()
	r, err := b.inner.ExecuteRun(ctx, w, run, seed)
	b.s.leaf("platform.run", start)
	if err == nil {
		t := b.s.t
		t.mu.Lock()
		t.sim.runs++
		t.sim.instructions += float64(r.Instructions)
		t.sim.cycles += float64(r.Cycles)
		t.mu.Unlock()
	}
	return r, err
}

// tracedJournal times the journal layer. The engine logs a batch's runs
// back to back, so one wal.log span covers each batch's appends. On the
// fabric the campaign goroutine blocks between a barrier and the next
// batch's first append; that interval is recorded as fabric.wait.
type tracedJournal struct {
	inner  platform.Journal
	s      scope
	fabric bool

	waitFrom         time.Time
	logFrom, logTill time.Time
}

func (s scope) journal(j platform.Journal, onFabric bool) platform.Journal {
	if s.t == nil {
		return j
	}
	return &tracedJournal{inner: j, s: s, fabric: onFabric, waitFrom: time.Now()}
}

func (j *tracedJournal) LogRun(run int, seed uint64, r platform.RunResult) error {
	now := time.Now()
	if j.logFrom.IsZero() {
		if j.fabric {
			j.s.t.rec.add(j.s.trace, j.s.parent, "fabric.wait", j.waitFrom, now)
		}
		j.logFrom = now
	}
	err := j.inner.LogRun(run, seed, r)
	j.logTill = time.Now()
	return err
}

// closeLog records the pending batch's wal.log span.
func (j *tracedJournal) closeLog() {
	if !j.logFrom.IsZero() {
		j.s.t.rec.add(j.s.trace, j.s.parent, "wal.log", j.logFrom, j.logTill)
		j.logFrom = time.Time{}
	}
}

func (j *tracedJournal) Barrier(b platform.Batch) error {
	j.closeLog()
	start := time.Now()
	err := j.inner.Barrier(b)
	j.s.leaf("wal.barrier", start)
	j.s.t.count("wal.barriers", 1)
	j.waitFrom = time.Now()
	return err
}

func (j *tracedJournal) Flush() error {
	j.closeLog()
	start := time.Now()
	err := j.inner.Flush()
	j.s.leaf("wal.flush", start)
	return err
}

// sink is the campaign's batch sink around the incremental analyzer,
// timing each ObserveBatch as core.observe. The observation mapping is
// the one pkg/mbpta's Campaign uses.
func (s scope) sink(online *core.OnlineAnalyzer) platform.BatchSink {
	return func(b platform.Batch) (bool, error) {
		obs := make([]core.Observation, len(b.Results))
		for i, r := range b.Results {
			obs[i] = core.Observation{
				Cycles:    float64(r.Cycles),
				Path:      r.Path,
				Outcome:   r.Outcome,
				Mitigated: platform.MitigatedOutcome(r.Outcome),
			}
		}
		start := time.Now()
		snap, err := online.ObserveBatch(obs)
		s.leaf("core.observe", start)
		s.t.count("core.batches", 1)
		if err != nil {
			return false, err
		}
		return snap.Done, nil
	}
}

// report assembles a campaign report exactly as pkg/mbpta's Campaign
// does, timing the final per-path analysis as core.finalize. A non-nil
// error comes with a report when it is an analysis verdict.
func (s scope) report(camp *platform.CampaignResult, online *core.OnlineAnalyzer, rule core.StopRule) (*mbpta.CampaignReport, error) {
	rep := &mbpta.CampaignReport{
		Campaign:  camp,
		Snapshots: online.Snapshots(),
		Converged: online.Done(),
		StopRuns:  len(camp.Results),
		Rule:      rule.Name(),
		Faults:    faults.Summarize(camp.Results),
	}
	start := time.Now()
	res, err := online.Finalize()
	s.leaf("core.finalize", start)
	if err != nil {
		return rep, err
	}
	rep.Analysis = res
	if !rep.Converged {
		return rep, fmt.Errorf("%w: rule %s unsatisfied after %d runs", mbpta.ErrNotConverged, rep.Rule, rep.StopRuns)
	}
	return rep, nil
}

// fingerprint times the report digest as mbpta.fingerprint.
func (s scope) fingerprint(rep *mbpta.CampaignReport) string {
	start := time.Now()
	fp := rep.Fingerprint()
	s.leaf("mbpta.fingerprint", start)
	return fp
}

// hitLog counts run-cache lookups and remembers which runs hit, so hits
// can be capped at the runs the campaign actually delivered (the fabric
// also looks up runs it leases past an early stop).
type hitLog struct {
	mu      sync.Mutex
	lookups int
	hit     []bool
}

func (h *hitLog) wrap(lookup func(int) (platform.RunResult, bool)) func(int) (platform.RunResult, bool) {
	return func(run int) (platform.RunResult, bool) {
		r, ok := lookup(run)
		h.mu.Lock()
		h.lookups++
		if ok {
			for len(h.hit) <= run {
				h.hit = append(h.hit, false)
			}
			h.hit[run] = true
		}
		h.mu.Unlock()
		return r, ok
	}
}

// hitsBelow counts distinct runs below stop that were served from cache.
func (h *hitLog) hitsBelow(stop int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for run, ok := range h.hit {
		if ok && run < stop {
			n++
		}
	}
	return n
}

// samplePool snapshots the pool's lease queue every 10ms until the
// returned stop function is called; stop waits for the sampler to exit.
func (t *tracer) samplePool(pool *fabric.Pool) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			st := pool.Stats()
			t.mu.Lock()
			t.poolStats[0] += float64(st.QueuedLeases)
			t.poolStats[1] += float64(st.RunningLeases)
			t.poolN++
			t.mu.Unlock()
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// replay re-runs the analyzer's gates and tail fit over every batch
// prefix of an analyzed series, timing each as stats.iid, stats.qgate
// (where the campaign enabled the quantile gate) and evt.fit. The online
// analyzer makes the same calls inside core.observe; replaying them
// apart splits that time by layer.
func (t *tracer) replay(times []float64, snaps []core.Snapshot, opts core.Options) {
	opts = core.NewAnalyzer(opts).Options() // the engine's defaults
	s := t.root(replayRoot)
	defer s.end()
	for _, snap := range snaps {
		xs := times[:snap.Runs]
		if len(xs) >= 8 {
			start := time.Now()
			_, _ = stats.CheckIID(xs, opts.Alpha) // timed only; a rejection is a verdict
			s.leaf("stats.iid", start)
		}
		if opts.QuantileGate {
			start := time.Now()
			_, _ = stats.CheckQuantileGate(xs, stats.QuantileGateOptions{Alpha: opts.QuantileGateAlpha})
			s.leaf("stats.qgate", start)
		}
		if len(xs) >= 5*opts.BlockSize {
			start := time.Now()
			if maxima, _, err := evt.BlockMaxima(xs, opts.BlockSize); err == nil {
				_, _ = evt.FitGumbel(maxima, opts.FitMethod)
			}
			s.leaf("evt.fit", start)
		}
	}
}

// metrics assembles the per-layer metrics in perLayer order from the
// spans and counters. overhead is traced wall / untraced wall - 1.
func (t *tracer) metrics(overhead float64) []metric {
	spans := t.rec.snapshot()
	secs := spanTotals(spans)

	t.mu.Lock()
	sim := t.sim
	for _, b := range t.boards {
		if bs, ok := b.(boardStatser); ok {
			sim.add(bs.BoardStats())
		}
	}
	v := make(map[string]float64, len(perLayer))
	for k, x := range t.layer {
		v[k] = x
	}
	pool, poolN := t.poolStats, t.poolN
	t.mu.Unlock()

	for _, m := range perLayer {
		if name, ok := strings.CutSuffix(m.name, "_s"); ok {
			v[m.name] = secs[name]
		}
	}
	busy := secs["platform.run"]
	v["platform.runs"] = sim.runs
	v["platform.busy_s"] = busy
	v["platform.ns_per_instr"] = ratio(busy*1e9, sim.instructions)
	v["platform.replay_ratio"] = ratio(sim.replay, sim.replay+sim.interpret)
	for i, name := range []string{"il1", "dl1", "itlb", "dtlb"} {
		v["platform."+name+"_miss_ratio"] = ratio(sim.misses[i], sim.accesses[i])
	}
	v["platform.ipc"] = ratio(sim.instructions, sim.cycles)
	v["matrix.hit_ratio"] = ratio(v["matrix.hits"], v["matrix.lookups"])
	v["fabric.queued_leases_mean"] = ratio(pool[0], poolN)
	v["fabric.running_leases_mean"] = ratio(pool[1], poolN)
	v["trace.unattributed_ratio"] = unattributed(spans)
	v["trace.overhead_ratio"] = overhead

	out := make([]metric, len(perLayer))
	for i, m := range perLayer {
		out[i] = metric{name: m.name, value: v[m.name], unit: m.unit}
	}
	return out
}
