package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/evt"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// ErrNotConverged reports that a campaign exhausted its run budget
// before its stop rule was satisfied.
var ErrNotConverged = errors.New("core: campaign did not converge within its run budget")

// Observation is one measurement fed to the online analyzer, in run
// order.
type Observation struct {
	Cycles float64
	Path   string
	// Outcome is empty for a clean measurement. A non-empty outcome
	// (set by the fault-injection layer) quarantines the observation:
	// it is tallied in snapshots but never enters the i.i.d. gate or
	// the tail fit — unless Mitigated is set.
	Outcome string
	// Mitigated marks an outcome-carrying observation that a fault-
	// mitigation layer recovered (ECC correction, scrub, lockstep vote):
	// it is tallied under its outcome like a quarantined run but stays
	// in the analyzed series, because its cycle count — recovery
	// overhead included — is a legitimate measurement of the protected
	// platform.
	Mitigated bool
}

// Snapshot is the incremental analysis state after one batch of a
// streaming campaign: how many runs were observed, the current i.i.d.
// gate outcome, the pooled tail fit and the pWCET estimate it implies.
// Stop rules and progress callbacks both consume snapshots.
type Snapshot struct {
	// Batch is the 0-based batch index; Runs the clean measurements
	// observed so far (what the gate and the fit see). TotalRuns also
	// counts the quarantined runs: Runs + Quarantined == TotalRuns.
	Batch     int
	Runs      int
	TotalRuns int
	// Quarantined counts the fault-injected runs excluded from the
	// analysis so far; Outcomes tallies every outcome-carrying run by
	// class (nil when none), including mitigated runs that stayed in
	// the analyzed series — so Outcomes totals may exceed Quarantined.
	Quarantined int
	Outcomes    map[string]int
	// BlockSize is the block-maxima block length of the fit; Discarded
	// the trailing clean observations outside the last complete block.
	BlockSize int
	Discarded int
	// Gate is the i.i.d. gate on the pooled series collected so far
	// (meaningful only when GateChecked; early batches may be too small
	// to test).
	Gate        stats.IIDReport
	GateChecked bool
	// QGate is the opt-in nine-decile identical-distribution gate on
	// the pooled series halves (Options.QuantileGate; meaningful only
	// when QGateChecked).
	QGate        stats.QuantileGateReport
	QGateChecked bool
	// Fit is the pooled block-maxima Gumbel over everything collected so
	// far (valid only when Fitted: at least five blocks and a
	// non-degenerate sample).
	Fit    evt.Gumbel
	Fitted bool
	// Delta is the CRPS distance between this fit and the previous one —
	// the paper's convergence statistic (NaN until two fits exist).
	Delta float64
	// RefProb is the exceedance probability tracked across batches;
	// PWCET is the pooled estimate at RefProb (0 until Fitted) and
	// PWCETRelDelta its relative change since the previous snapshot (NaN
	// until two estimates exist).
	RefProb       float64
	PWCET         float64
	PWCETRelDelta float64
	// Elapsed is the wall-clock time since the first batch.
	Elapsed time.Duration
	// Done records the stop-rule verdict for this snapshot.
	Done bool
}

// GatePass is the combined identical-distribution verdict: false iff
// any checked gate (the i.i.d. gate, and the quantile gate when
// enabled) has failed on this snapshot. Unchecked gates count as
// passing, so early small batches are not penalized.
func (s *Snapshot) GatePass() bool {
	if s.GateChecked && !s.Gate.Pass {
		return false
	}
	if s.QGateChecked && !s.QGate.Pass {
		return false
	}
	return true
}

// PWCETAt queries the snapshot's pooled tail at per-run exceedance
// probability q.
func (s *Snapshot) PWCETAt(q float64) (float64, error) {
	if !s.Fitted {
		return 0, fmt.Errorf("%w: no tail fit yet (%d runs)", ErrInsufficient, s.Runs)
	}
	return PerRunTail{Block: s.Fit, B: s.BlockSize}.QuantileSF(q)
}

// Curve samples the snapshot's current pWCET curve over [start, end]
// with n points. Only the projected exceedance probability is
// available incrementally; Observed is left NaN.
func (s *Snapshot) Curve(start, end float64, n int) ([]CurvePoint, error) {
	if !s.Fitted {
		return nil, fmt.Errorf("%w: no tail fit yet (%d runs)", ErrInsufficient, s.Runs)
	}
	if n < 2 || !(end > start) {
		return nil, fmt.Errorf("core: bad curve range [%g,%g] n=%d", start, end, n)
	}
	tail := PerRunTail{Block: s.Fit, B: s.BlockSize}
	out := make([]CurvePoint, n)
	step := (end - start) / float64(n-1)
	for i := range out {
		x := start + float64(i)*step
		out[i] = CurvePoint{Time: x, Projected: tail.SF(x), Observed: math.NaN()}
	}
	return out, nil
}

// StopRule decides after each batch whether a streaming campaign may
// stop. Rules may keep state across calls; use a fresh rule per
// campaign. Done is called exactly once per batch, in batch order.
type StopRule interface {
	Name() string
	Done(s *Snapshot) bool
}

// FixedRuns stops after n executed runs — the paper's fixed-size
// protocol (3,000 runs) expressed as a stop rule. Quarantined runs
// count: the budget is measurement effort, not clean-sample yield (on a
// fault-free campaign the two are the same).
func FixedRuns(n int) StopRule { return fixedRunsRule{n: n} }

type fixedRunsRule struct{ n int }

func (r fixedRunsRule) Name() string          { return fmt.Sprintf("fixed-runs(%d)", r.n) }
func (r fixedRunsRule) Done(s *Snapshot) bool { return s.TotalRuns >= r.n }

// PWCETDelta stops once the pWCET estimate at exceedance probability q
// has changed by at most relTol (relative) for streak consecutive
// batches — convergence of the quantity the analysis actually reports.
// A snapshot whose i.i.d. gate fails resets the streak: a fit over a
// non-i.i.d. prefix is not evidence of convergence, and collecting
// further runs can recover the gate. Non-positive or zero arguments
// select the defaults q=1e-12, relTol=0.01, streak=2.
func PWCETDelta(q, relTol float64, streak int) StopRule {
	if q <= 0 {
		q = 1e-12
	}
	if relTol <= 0 {
		relTol = 0.01
	}
	if streak < 1 {
		streak = 2
	}
	return &pwcetDeltaRule{q: q, relTol: relTol, streak: streak}
}

type pwcetDeltaRule struct {
	q, relTol float64
	streak    int
	prev      float64
	passes    int
}

func (r *pwcetDeltaRule) Name() string {
	return fmt.Sprintf("pwcet-delta(q=%.0e, tol=%g, streak=%d)", r.q, r.relTol, r.streak)
}

func (r *pwcetDeltaRule) Done(s *Snapshot) bool {
	if !s.GatePass() {
		r.prev, r.passes = 0, 0
		return false
	}
	cur, err := s.PWCETAt(r.q)
	if err != nil || !(cur > 0) || math.IsInf(cur, 0) || math.IsNaN(cur) {
		r.prev, r.passes = 0, 0
		return false
	}
	if r.prev > 0 && math.Abs(cur-r.prev)/r.prev <= r.relTol {
		r.passes++
	} else if r.prev > 0 {
		r.passes = 0
	}
	r.prev = cur
	return r.passes >= r.streak
}

// CRPSConverged stops once the CRPS distance between consecutive tail
// fits stays below threshold for streak consecutive batches — the
// criterion the MBPTA collection process prescribes (see
// evt.CRPSDistance). Like PWCETDelta, a snapshot whose i.i.d.
// gate fails resets the streak. Zero arguments select the defaults
// threshold=1e-3, streak=2.
func CRPSConverged(threshold float64, streak int) StopRule {
	if threshold <= 0 {
		threshold = 1e-3
	}
	if streak < 1 {
		streak = 2
	}
	return &crpsRule{threshold: threshold, streak: streak}
}

type crpsRule struct {
	threshold float64
	streak    int
	passes    int
}

func (r *crpsRule) Name() string {
	return fmt.Sprintf("crps(threshold=%g, streak=%d)", r.threshold, r.streak)
}

func (r *crpsRule) Done(s *Snapshot) bool {
	if !s.GatePass() {
		r.passes = 0
		return false
	}
	if math.IsNaN(s.Delta) {
		return false
	}
	if s.Delta < r.threshold {
		r.passes++
	} else {
		r.passes = 0
	}
	return r.passes >= r.streak
}

// MaxWallClock stops once the campaign has been measuring for at least
// d — a budget guard for interactive or service use, typically combined
// with a convergence rule via AnyRule.
func MaxWallClock(d time.Duration) StopRule { return wallClockRule{d: d} }

type wallClockRule struct{ d time.Duration }

func (r wallClockRule) Name() string          { return fmt.Sprintf("max-wall-clock(%s)", r.d) }
func (r wallClockRule) Done(s *Snapshot) bool { return s.Elapsed >= r.d }

// AnyRule stops as soon as any of its rules does.
func AnyRule(rules ...StopRule) StopRule { return anyRule(rules) }

type anyRule []StopRule

func (r anyRule) Name() string {
	name := "any("
	for i, sub := range r {
		if i > 0 {
			name += ", "
		}
		name += sub.Name()
	}
	return name + ")"
}

func (r anyRule) Done(s *Snapshot) bool {
	done := false
	for _, sub := range r {
		// Evaluate every rule so stateful ones observe each batch.
		if sub.Done(s) {
			done = true
		}
	}
	return done
}

// OnlineAnalyzer is the incremental half of the streaming campaign
// engine: it accumulates observations batch by batch, re-runs the
// i.i.d. gate, refits the pooled Gumbel tail, and evaluates a stop
// rule. Once the campaign stops, Finalize runs the full per-path
// analysis on everything collected.
//
// The pooled fit mirrors the paper's convergence analysis (experiment
// E5): convergence is judged on the whole series, while the final
// result is per-path.
type OnlineAnalyzer struct {
	opts    Options
	rule    StopRule
	refProb float64

	times    []float64
	halves   ksHalves
	byPath   map[string][]float64
	total    int
	outcomes map[string]int
	prevFit  *evt.Gumbel
	prevPW   float64
	snaps    []Snapshot
	started  time.Time
	done     bool
	tele     *telemetry.Registry
}

// NewOnlineAnalyzer returns an online analyzer with opts completed by
// the paper's defaults. A nil rule never stops early (the engine's run
// budget governs).
func NewOnlineAnalyzer(opts Options, rule StopRule) *OnlineAnalyzer {
	return &OnlineAnalyzer{
		opts:    opts.withDefaults(),
		rule:    rule,
		refProb: 1e-12,
		byPath:  make(map[string][]float64),
	}
}

// SetRefProb changes the exceedance probability tracked in snapshots
// (default 1e-12). Call before the first batch.
func (o *OnlineAnalyzer) SetRefProb(q float64) {
	if q > 0 && q < 1 {
		o.refProb = q
	}
}

// SetTelemetry publishes each snapshot to reg: gauges for the gate
// p-values, discarded block-maxima count, fit parameters and pWCET
// trajectory, plus one "analysis" event per batch. A nil reg (the
// default) disables publication.
func (o *OnlineAnalyzer) SetTelemetry(reg *telemetry.Registry) { o.tele = reg }

// publish mirrors a snapshot into the telemetry registry. Wall-clock
// fields (Elapsed) are deliberately not exported so the analysis
// instruments stay deterministic for a fixed seed.
func (o *OnlineAnalyzer) publish(snap *Snapshot) {
	reg := o.tele
	if reg == nil {
		return
	}
	reg.Counter("analysis_batches_total").Inc()
	reg.Gauge("analysis_runs").Set(float64(snap.Runs))
	reg.Gauge("analysis_total_runs").Set(float64(snap.TotalRuns))
	reg.Gauge("analysis_quarantined").Set(float64(snap.Quarantined))
	reg.Gauge("analysis_block_discarded").Set(float64(snap.Discarded))
	fields := []telemetry.Field{
		telemetry.Num("batch", float64(snap.Batch)),
		telemetry.Num("runs", float64(snap.Runs)),
		telemetry.Num("quarantined", float64(snap.Quarantined)),
		telemetry.Num("discarded", float64(snap.Discarded)),
	}
	if snap.GateChecked {
		pass := 0.0
		if snap.Gate.Pass {
			pass = 1
		}
		reg.Gauge("analysis_gate_ljungbox_p").Set(snap.Gate.Independence.PValue)
		reg.Gauge("analysis_gate_ks_p").Set(snap.Gate.IdentDist.PValue)
		reg.Gauge("analysis_gate_pass").Set(pass)
		fields = append(fields,
			telemetry.Num("lb_p", snap.Gate.Independence.PValue),
			telemetry.Num("ks_p", snap.Gate.IdentDist.PValue),
			telemetry.Num("gate_pass", pass))
	}
	if snap.QGateChecked {
		pass := 0.0
		if snap.QGate.Pass {
			pass = 1
		}
		reg.Gauge("analysis_qgate_pass").Set(pass)
		reg.Gauge("analysis_qgate_leaks").Set(float64(snap.QGate.Leaks))
		reg.Gauge("analysis_qgate_leak_p").Set(snap.QGate.LeakProbability)
		reg.Gauge("analysis_qgate_effect").Set(snap.QGate.EffectCycles)
		fields = append(fields,
			telemetry.Num("qgate_pass", pass),
			telemetry.Num("qgate_leaks", float64(snap.QGate.Leaks)),
			telemetry.Num("qgate_leak_p", snap.QGate.LeakProbability))
	}
	if snap.Fitted {
		reg.Gauge("analysis_fit_mu").Set(snap.Fit.Mu)
		reg.Gauge("analysis_fit_beta").Set(snap.Fit.Beta)
		reg.Gauge("analysis_pwcet").Set(snap.PWCET)
		fields = append(fields,
			telemetry.Num("mu", snap.Fit.Mu),
			telemetry.Num("beta", snap.Fit.Beta),
			telemetry.Num("pwcet", snap.PWCET))
		if !math.IsNaN(snap.Delta) {
			reg.Gauge("analysis_crps_delta").Set(snap.Delta)
			fields = append(fields, telemetry.Num("crps_delta", snap.Delta))
		}
		if !math.IsNaN(snap.PWCETRelDelta) {
			reg.Gauge("analysis_pwcet_rel_delta").Set(snap.PWCETRelDelta)
			fields = append(fields, telemetry.Num("pwcet_rel_delta", snap.PWCETRelDelta))
		}
	}
	if snap.Done {
		fields = append(fields, telemetry.Num("done", 1))
	}
	reg.Emit("analysis", -1, fields...)
}

// ObserveBatch folds one batch of observations (in run order) into the
// analysis and returns the resulting snapshot, including the stop-rule
// verdict.
func (o *OnlineAnalyzer) ObserveBatch(obs []Observation) (Snapshot, error) {
	if o.started.IsZero() {
		o.started = time.Now()
	}
	for _, ob := range obs {
		o.total++
		if ob.Outcome != "" {
			// Tally the outcome; quarantine unless a mitigation layer
			// recovered the run (then its overhead-laden timing is a
			// legitimate measurement and stays in the series).
			if o.outcomes == nil {
				o.outcomes = make(map[string]int)
			}
			o.outcomes[ob.Outcome]++
			if !ob.Mitigated {
				continue
			}
		}
		o.times = append(o.times, ob.Cycles)
		o.byPath[ob.Path] = append(o.byPath[ob.Path], ob.Cycles)
	}
	snap := Snapshot{
		Batch:         len(o.snaps),
		Runs:          len(o.times),
		TotalRuns:     o.total,
		Quarantined:   o.total - len(o.times),
		BlockSize:     o.opts.BlockSize,
		RefProb:       o.refProb,
		Delta:         math.NaN(),
		PWCETRelDelta: math.NaN(),
		Elapsed:       time.Since(o.started),
	}
	if len(o.outcomes) > 0 {
		snap.Outcomes = make(map[string]int, len(o.outcomes))
		for k, v := range o.outcomes {
			snap.Outcomes[k] = v
		}
	}
	// The discarded count is meaningful from the very first batch — it
	// is the clean observations a block-maxima fit over the current
	// series would leave out — not only once a fit exists, so Progress
	// consumers can watch it mid-stream.
	if len(o.times) >= o.opts.BlockSize {
		snap.Discarded = len(o.times) % o.opts.BlockSize
	} else {
		snap.Discarded = len(o.times)
	}
	if len(o.times) >= 8 {
		lo, hi := o.halves.extend(o.times)
		if gate, err := stats.CheckIIDSorted(o.times, lo, hi, o.opts.Alpha); err == nil {
			snap.Gate, snap.GateChecked = gate, true
		}
	}
	if o.opts.QuantileGate {
		if qg, err := stats.CheckQuantileGate(o.times, stats.QuantileGateOptions{Alpha: o.opts.QuantileGateAlpha}); err == nil {
			snap.QGate, snap.QGateChecked = qg, true
		}
	}
	if len(o.times) >= 5*o.opts.BlockSize {
		maxima, discarded, err := evt.BlockMaxima(o.times, o.opts.BlockSize)
		if err != nil {
			return snap, err
		}
		snap.Discarded = discarded
		// A degenerate (e.g. constant) sample cannot be fitted yet; keep
		// collecting rather than failing the campaign.
		if fit, err := evt.FitGumbel(maxima, o.opts.FitMethod); err == nil {
			snap.Fit, snap.Fitted = fit, true
			if o.prevFit != nil {
				if d, err := evt.GumbelCRPS(*o.prevFit, fit); err == nil {
					snap.Delta = d
				}
			}
			o.prevFit = &fit
			if pw, err := snap.PWCETAt(o.refProb); err == nil {
				snap.PWCET = pw
				if o.prevPW > 0 {
					snap.PWCETRelDelta = math.Abs(pw-o.prevPW) / o.prevPW
				}
				o.prevPW = pw
			}
		}
	}
	if o.rule != nil {
		snap.Done = o.rule.Done(&snap)
		o.done = o.done || snap.Done
	}
	o.publish(&snap)
	o.snaps = append(o.snaps, snap)
	return snap, nil
}

// Runs returns the number of clean observations folded in so far.
func (o *OnlineAnalyzer) Runs() int { return len(o.times) }

// TotalRuns returns every observation seen, including quarantined ones.
func (o *OnlineAnalyzer) TotalRuns() int { return o.total }

// Done reports whether the stop rule has fired.
func (o *OnlineAnalyzer) Done() bool { return o.done }

// Snapshots returns a copy of the per-batch snapshot trace.
func (o *OnlineAnalyzer) Snapshots() []Snapshot {
	return append([]Snapshot(nil), o.snaps...)
}

// Finalize runs the full per-path MBPTA pipeline (i.i.d. gate,
// per-path tail fits, diagnostics) on everything collected. The i.i.d.
// gate failing surfaces as ErrIIDRejected unless the analyzer options
// allow it.
func (o *OnlineAnalyzer) Finalize() (*Result, error) {
	return NewAnalyzer(o.opts).AnalyzeByPath(o.byPath)
}

// ksHalves keeps the two halves the i.i.d. gate's KS test compares —
// times[:n/2] and times[n/2:n] — sorted across batches, so a gate
// costs a sort of the new runs and linear merges instead of two full
// sorts. Invariant, once built (n > 0): lo and hi hold exactly the
// values of those two halves of the first n clean times, each sorted as
// sort.Float64s sorts. "Exactly" is up to swapping equal values (-0
// for +0, one NaN for another), which KS cannot tell apart: its D uses
// comparisons only. A restored analyzer starts with n == 0 and
// rebuilds the halves from its series at its first gate.
type ksHalves struct {
	n              int
	lo, hi         []float64
	spare, scratch []float64 // merge destination and sort buffer, reused
}

// extend brings the halves up to times, which must extend the series
// the halves were last built from, and returns them.
func (k *ksHalves) extend(times []float64) (lo, hi []float64) {
	n := len(times)
	switch {
	case k.n == 0:
		k.lo = sortInto(k.lo[:0], times[:n/2])
		k.hi = sortInto(k.hi[:0], times[n/2:])
	case n > k.n:
		old := k.n
		// Fold the new runs into the second half ...
		k.scratch = sortInto(k.scratch[:0], times[old:])
		k.hi, k.spare = stats.MergeSorted(k.spare[:0], k.hi, k.scratch), k.hi
		// ... then move the runs the midpoint passed over, which all
		// sit in the second half now, into the first.
		k.scratch = sortInto(k.scratch[:0], times[old/2:n/2])
		k.hi = removeSorted(k.hi, k.scratch)
		k.lo, k.spare = stats.MergeSorted(k.spare[:0], k.lo, k.scratch), k.lo
	}
	k.n = n
	return k.lo, k.hi
}

// sortInto overwrites dst with a sorted copy of xs.
func sortInto(dst, xs []float64) []float64 {
	dst = append(dst[:0], xs...)
	sort.Float64s(dst)
	return dst
}

// removeSorted deletes the multiset rem from xs in place; both are
// sorted as sort.Float64s sorts and every value of rem occurs in xs.
func removeSorted(xs, rem []float64) []float64 {
	out, j := xs[:0], 0
	for _, x := range xs {
		if j < len(rem) && (x == rem[j] || (x != x && rem[j] != rem[j])) {
			j++
			continue
		}
		out = append(out, x)
	}
	return out
}
