// Package core implements the MBPTA analysis pipeline the paper applies
// (the role played by the enhanced commercial timing-analysis tool):
//
//  1. the i.i.d. gate — Ljung-Box independence and two-sample
//     Kolmogorov-Smirnov identical-distribution tests at the 5%
//     significance level; MBPTA is only applicable if both pass;
//  2. block-maxima extraction and a Gumbel tail fit (probability
//     weighted moments by default), with a GEV shape diagnostic that
//     rejects heavy tails;
//  3. rescaling of the per-block tail to per-run exceedance
//     probabilities, yielding the pWCET curve of Figure 2;
//  4. per-path analysis: the application's runs are grouped by executed
//     path, each path is analyzed separately, and pWCET queries take
//     the maximum across paths;
//  5. the convergence criterion: the campaign is deemed large enough
//     once consecutive re-fits of the tail are CRPS-close (the paper's
//     3,000 runs "satisfied the convergence criteria").
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/evt"
	"repro/internal/stats"
)

// Errors reported by the analyzer.
var (
	ErrIIDRejected  = errors.New("core: execution times failed the i.i.d. gate; MBPTA not applicable")
	ErrHeavyTail    = errors.New("core: fitted tail shape is heavy (xi > threshold); MBPTA soundness not established")
	ErrInsufficient = errors.New("core: not enough observations")
)

// Options configures the analyzer. The zero value is completed with the
// paper's defaults by NewAnalyzer.
type Options struct {
	// Alpha is the significance level of the i.i.d. tests (paper: 0.05).
	Alpha float64
	// BlockSize is the block-maxima block length (default 50: the
	// paper's 3,000 runs yield 60 maxima).
	BlockSize int
	// FitMethod selects the Gumbel estimator (default PWM).
	FitMethod evt.FitMethod
	// AllowIIDFailure makes Analyze record a failed i.i.d. gate in the
	// result instead of failing (the default is to fail) — useful for
	// demonstrating *why* the deterministic platform is not
	// MBPTA-analyzable.
	AllowIIDFailure bool
	// TailXiMax is the largest acceptable GEV shape parameter; fits
	// above it are rejected as heavy-tailed (default 0.05). Set
	// negative-infinity semantics with NaN to disable.
	TailXiMax float64
	// MinPathRuns is the minimum number of observations for a path to
	// be analyzed on its own; smaller paths are pooled (default: five
	// blocks, the fit minimum — setting it lower makes AnalyzeByPath
	// fail on paths that clear pooling but cannot be fitted).
	MinPathRuns int
	// Method selects the tail estimator: block maxima + Gumbel (the
	// paper's method, default) or peaks-over-threshold + GPD.
	Method TailMethod
	// PoTQuantile is the threshold quantile of the PoT method
	// (default 0.9).
	PoTQuantile float64
	// QuantileGate additionally runs the nine-decile identical-
	// distribution gate (stats.CheckQuantileGate) on each path: the
	// series halves are compared decile by decile, catching
	// upper-quantile drift the whole-distribution KS test misses.
	// Opt-in; a failure is reported like an i.i.d. gate failure
	// (ErrIIDRejected unless AllowIIDFailure).
	QuantileGate bool
	// QuantileGateAlpha is the quantile gate's family-wise
	// false-positive budget (default 0.01).
	QuantileGateAlpha float64
}

// TailMethod names a tail-estimation approach.
type TailMethod string

// Tail estimation methods.
const (
	MethodBlockMaxima TailMethod = "block-maxima"
	MethodPoT         TailMethod = "pot"
)

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	if o.BlockSize == 0 {
		o.BlockSize = 50
	}
	if o.FitMethod == "" {
		o.FitMethod = evt.MethodPWM
	}
	if o.TailXiMax == 0 {
		o.TailXiMax = 0.05
	}
	if o.MinPathRuns == 0 {
		o.MinPathRuns = 5 * o.BlockSize
	}
	if o.Method == "" {
		o.Method = MethodBlockMaxima
	}
	if o.PoTQuantile == 0 {
		o.PoTQuantile = 0.9
	}
	if o.QuantileGateAlpha == 0 {
		o.QuantileGateAlpha = 0.01
	}
	return o
}

// NewAnalyzer returns an analyzer with opts completed by defaults.
func NewAnalyzer(opts Options) *Analyzer {
	return &Analyzer{opts: opts.withDefaults()}
}

// Analyzer runs the MBPTA pipeline.
type Analyzer struct {
	opts Options
}

// Options returns the effective options.
func (a *Analyzer) Options() Options { return a.opts }

// PerRunTail converts a fitted per-block-maximum Gumbel into a per-run
// exceedance model: if F is the CDF of the maximum of B runs, the
// per-run survival function is 1 - F(x)^(1/B).
type PerRunTail struct {
	Block evt.Gumbel
	B     int
}

// SF returns the probability that a single run exceeds x.
func (t PerRunTail) SF(x float64) float64 {
	// log F(x) = -exp(-(x-mu)/beta); per-run SF = -expm1(logF / B).
	logF := -math.Exp(-(x - t.Block.Mu) / t.Block.Beta)
	return -math.Expm1(logF / float64(t.B))
}

// QuantileSF returns the execution-time bound exceeded by one run with
// probability q: x such that F_block(x) = (1-q)^B.
func (t PerRunTail) QuantileSF(q float64) (float64, error) {
	if q <= 0 || q >= 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("core: exceedance probability %v outside (0,1)", q)
	}
	// log p_block = B * log(1-q); for tiny q use log1p.
	logP := float64(t.B) * math.Log1p(-q)
	// Gumbel quantile at p: mu - beta ln(-ln p) with ln p = logP.
	return t.Block.Mu - t.Block.Beta*math.Log(-logP), nil
}

// String describes the model.
func (t PerRunTail) String() string {
	return fmt.Sprintf("PerRun{%s, B=%d}", t.Block, t.B)
}

var _ evt.TailModel = PerRunTail{}

// PathResult is the analysis of one executed path.
type PathResult struct {
	Path    string
	N       int
	Summary stats.Summary
	IID     stats.IIDReport
	// QGate is the nine-decile gate report (Options.QuantileGate only;
	// nil when the gate is disabled or the path is too small for it).
	QGate  *stats.QuantileGateReport
	Method TailMethod
	// Fit is the per-block-maximum Gumbel (MethodBlockMaxima only).
	Fit evt.Gumbel
	// PoT is the threshold-exceedance model (MethodPoT only).
	PoT evt.ExceedanceModel
	// Tail answers per-run exceedance queries for either method.
	Tail   evt.TailModel
	GEVXi  float64 // shape diagnostic from a GEV fit of the maxima
	Maxima int     // number of block maxima used (MethodBlockMaxima)
	// Discarded counts the trailing observations dropped by the partial
	// final block (N mod BlockSize), so reported sample sizes are exact:
	// Maxima*BlockSize + Discarded == N.
	Discarded int
	Pooled    bool // true if this is the pooled small-paths group
	// GoF is an Anderson-Darling goodness-of-fit diagnostic of the
	// block maxima against the fitted Gumbel (MethodBlockMaxima only).
	// With estimated parameters the case-0 p-value is approximate; it
	// is reported as a diagnostic, not enforced as a gate.
	GoF stats.TestResult
}

// SmallPath records a path with too few runs to fit: only its
// high-watermark is retained, as a conservative floor for pWCET
// queries. Its presence flags the campaign as incomplete for per-path
// analysis.
type SmallPath struct {
	Path string
	N    int
	HWM  float64
}

// Result is a complete MBPTA analysis.
type Result struct {
	Paths     []PathResult
	BlockSize int
	// SmallPaths lists executed paths whose run counts were too small
	// to fit (even pooled). Their HWMs floor every pWCET query, and
	// Incomplete() reports true: a certification-grade campaign should
	// collect more runs of these paths.
	SmallPaths []SmallPath
	// ECDF over all observations (all paths), for plotting observed
	// exceedance against the projected curve.
	Observed *stats.ECDF
}

// Incomplete reports whether some paths were observed too rarely to be
// analyzed, so pWCET queries rely on an HWM floor for them.
func (r *Result) Incomplete() bool { return len(r.SmallPaths) > 0 }

// PWCET returns the pWCET estimate at per-run exceedance probability q:
// the maximum across paths, as the paper prescribes.
func (r *Result) PWCET(q float64) (float64, error) {
	if len(r.Paths) == 0 {
		return 0, ErrInsufficient
	}
	best := math.Inf(-1)
	for _, p := range r.Paths {
		x, err := p.Tail.QuantileSF(q)
		if err != nil {
			return 0, err
		}
		if x > best {
			best = x
		}
	}
	for _, sp := range r.SmallPaths {
		if sp.HWM > best {
			best = sp.HWM
		}
	}
	return best, nil
}

// ExceedanceAt returns the projected probability that one run exceeds
// x (the upper envelope across paths).
func (r *Result) ExceedanceAt(x float64) float64 {
	worst := 0.0
	for _, p := range r.Paths {
		if sf := p.Tail.SF(x); sf > worst {
			worst = sf
		}
	}
	return worst
}

// IIDPass reports whether every analyzed path passed the i.i.d. gate
// (and, when enabled, the quantile gate).
func (r *Result) IIDPass() bool {
	for _, p := range r.Paths {
		if !p.IID.Pass {
			return false
		}
		if p.QGate != nil && !p.QGate.Pass {
			return false
		}
	}
	return len(r.Paths) > 0
}

// CurvePoint is one point of the pWCET curve (Figure 2): an execution
// time and the probabilities associated with it.
type CurvePoint struct {
	Time      float64
	Projected float64 // fitted per-run exceedance probability
	Observed  float64 // empirical exceedance probability (0 beyond HWM)
}

// Curve samples the pWCET curve over [start, end] with n points,
// reporting projected and observed exceedance probabilities.
func (r *Result) Curve(start, end float64, n int) ([]CurvePoint, error) {
	if n < 2 || !(end > start) {
		return nil, fmt.Errorf("core: bad curve range [%g,%g] n=%d", start, end, n)
	}
	out := make([]CurvePoint, n)
	step := (end - start) / float64(n-1)
	for i := range out {
		x := start + float64(i)*step
		out[i] = CurvePoint{
			Time:      x,
			Projected: r.ExceedanceAt(x),
			Observed:  r.Observed.ExceedanceAt(x),
		}
	}
	return out, nil
}

// Analyze runs the pipeline on a single-path execution-time series (in
// collection order).
func (a *Analyzer) Analyze(times []float64) (*Result, error) {
	return a.AnalyzeByPath(map[string][]float64{"": times})
}

// AnalyzeByPath runs the pipeline per executed path. Paths with fewer
// than MinPathRuns observations are pooled into one group named
// "(pooled)". Series must be in collection order.
func (a *Analyzer) AnalyzeByPath(byPath map[string][]float64) (*Result, error) {
	if len(byPath) == 0 {
		return nil, ErrInsufficient
	}
	// Iterate paths in name order: the pooled series below is a
	// concatenation, and block maxima are order-sensitive, so map
	// iteration order must not leak into the fit (determinism).
	names := make([]string, 0, len(byPath))
	for path := range byPath {
		names = append(names, path)
	}
	sort.Strings(names)
	var pooled []float64
	groups := make(map[string][]float64)
	var all []float64
	for _, path := range names {
		ts := byPath[path]
		all = append(all, ts...)
		if len(ts) < a.opts.MinPathRuns {
			pooled = append(pooled, ts...)
		} else {
			groups[path] = ts
		}
	}
	var small []SmallPath
	if len(pooled) > 0 {
		if len(groups) == 0 || len(pooled) >= a.opts.MinPathRuns {
			// Pool the small paths into one analyzable group (when
			// everything was small the pool is the only path and the
			// per-path fit below enforces its own minimum size).
			groups["(pooled)"] = pooled
		} else {
			// A handful of stragglers: too few to fit even pooled.
			// Splicing them into another path's series would corrupt
			// its ordering (and its distribution), so retain them as
			// HWM floors and mark the analysis incomplete.
			for path, ts := range byPath {
				if len(ts) >= a.opts.MinPathRuns {
					continue
				}
				hwm, err := stats.Max(ts)
				if err != nil {
					return nil, err
				}
				small = append(small, SmallPath{Path: path, N: len(ts), HWM: hwm})
			}
			sort.Slice(small, func(i, j int) bool { return small[i].Path < small[j].Path })
		}
	}

	res := &Result{BlockSize: a.opts.BlockSize, SmallPaths: small}
	var err error
	if res.Observed, err = stats.NewECDF(all); err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(groups))
	for p := range groups {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		pr, err := a.analyzeOne(p, groups[p])
		if err != nil {
			return nil, fmt.Errorf("path %q: %w", p, err)
		}
		res.Paths = append(res.Paths, pr)
	}
	return res, nil
}

// analyzeOne runs the gate + fit on one series.
func (a *Analyzer) analyzeOne(path string, times []float64) (PathResult, error) {
	pr := PathResult{Path: path, N: len(times), Pooled: path == "(pooled)"}
	if len(times) < 5*a.opts.BlockSize {
		return pr, fmt.Errorf("%w: %d runs < 5 blocks of %d",
			ErrInsufficient, len(times), a.opts.BlockSize)
	}
	var err error
	if pr.Summary, err = stats.Summarize(times); err != nil {
		return pr, err
	}
	if pr.IID, err = stats.CheckIID(times, a.opts.Alpha); err != nil {
		return pr, fmt.Errorf("i.i.d. gate: %w", err)
	}
	if !pr.IID.Pass && !a.opts.AllowIIDFailure {
		return pr, fmt.Errorf("%w:\n%s", ErrIIDRejected, pr.IID)
	}
	if a.opts.QuantileGate {
		switch qg, err := stats.CheckQuantileGate(times, stats.QuantileGateOptions{Alpha: a.opts.QuantileGateAlpha}); {
		case errors.Is(err, stats.ErrTooFew):
			// Path cleared MinPathRuns but is below the gate's floor
			// (tiny block sizes): record nothing rather than fail.
		case err != nil:
			return pr, fmt.Errorf("quantile gate: %w", err)
		default:
			pr.QGate = &qg
			if !qg.Pass && !a.opts.AllowIIDFailure {
				return pr, fmt.Errorf("%w:\n%s", ErrIIDRejected, qg)
			}
		}
	}
	pr.Method = a.opts.Method
	maxima, discarded, err := evt.BlockMaxima(times, a.opts.BlockSize)
	if err != nil {
		return pr, err
	}
	pr.Maxima = len(maxima)
	pr.Discarded = discarded
	switch a.opts.Method {
	case MethodBlockMaxima:
		if pr.Fit, err = evt.FitGumbel(maxima, a.opts.FitMethod); err != nil {
			return pr, err
		}
		pr.Tail = PerRunTail{Block: pr.Fit, B: a.opts.BlockSize}
		if gof, gofErr := stats.AndersonDarling(maxima, pr.Fit.CDF, a.opts.Alpha); gofErr == nil {
			pr.GoF = gof
		}
	case MethodPoT:
		if pr.PoT, err = evt.FitPoT(times, a.opts.PoTQuantile); err != nil {
			return pr, err
		}
		// MBPTA soundness also requires a non-heavy PoT shape.
		if !math.IsNaN(a.opts.TailXiMax) && pr.PoT.Tail.Xi > a.opts.TailXiMax+0.2 {
			return pr, fmt.Errorf("%w: GPD xi=%.3f", ErrHeavyTail, pr.PoT.Tail.Xi)
		}
		pr.Tail = pr.PoT
	default:
		return pr, fmt.Errorf("core: unknown tail method %q", a.opts.Method)
	}
	// Tail-shape diagnostic: a Fréchet-type (xi >> 0) fit means the
	// exponential-tail assumption behind the Gumbel projection is
	// unsafe. The PWM shape estimator has asymptotic variance
	// ~0.5633/n at xi=0 (Hosking et al. 1985), so the acceptance
	// threshold is widened by 1.96 standard errors — otherwise genuine
	// Gumbel data would be rejected ~20% of the time on 60 maxima.
	if gev, gevErr := evt.FitGEV(maxima); gevErr == nil {
		pr.GEVXi = gev.Xi
		se := math.Sqrt(0.5633 / float64(len(maxima)))
		if !math.IsNaN(a.opts.TailXiMax) && gev.Xi > a.opts.TailXiMax+1.96*se {
			return pr, fmt.Errorf("%w: xi=%.3f > %.3f (+1.96se)",
				ErrHeavyTail, gev.Xi, a.opts.TailXiMax+1.96*se)
		}
	}
	return pr, nil
}

// ConvergencePoint records one step of the incremental-campaign
// convergence trace (experiment E5).
type ConvergencePoint struct {
	Runs     int
	Fit      evt.Gumbel
	Distance float64 // CRPS distance to the previous fit (0 for first)
	Done     bool
}

// ConvergenceTrace replays the MBPTA collection protocol over a recorded
// series: the series is fed batch by batch through an OnlineAnalyzer
// without a stop rule, and its pooled refits and the CRPS distances
// between consecutive refits form the trace. The criterion (distance
// below 1e-3 for two consecutive refits) keeps its own streak here,
// which, unlike CRPSConverged, ignores the i.i.d. gate: the trace shows
// what the paper's criterion alone decides. It returns the trace and the
// run count at which the campaign would have been allowed to stop (0 if
// never).
func (a *Analyzer) ConvergenceTrace(times []float64, batch int) ([]ConvergencePoint, int, error) {
	if batch < a.opts.BlockSize {
		return nil, 0, fmt.Errorf("core: batch %d < block size %d", batch, a.opts.BlockSize)
	}
	const threshold, streak = 1e-3, 2
	opts := a.opts
	opts.QuantileGate = false // the trace reads only the fits
	online := NewOnlineAnalyzer(opts, nil)
	obs := make([]Observation, batch)
	var trace []ConvergencePoint
	stopAt, passes := 0, 0
	for n := batch; n <= len(times); n += batch {
		for i, x := range times[n-batch : n] {
			obs[i] = Observation{Cycles: x}
		}
		snap, err := online.ObserveBatch(obs)
		if err != nil {
			return nil, 0, err
		}
		if !snap.Fitted {
			if n >= 5*opts.BlockSize {
				return nil, 0, fmt.Errorf("core: tail fit failed at %d runs", n)
			}
			continue
		}
		pt := ConvergencePoint{Runs: n, Fit: snap.Fit}
		if !math.IsNaN(snap.Delta) {
			pt.Distance = snap.Delta
			if snap.Delta < threshold {
				passes++
			} else {
				passes = 0
			}
		}
		pt.Done = passes >= streak
		trace = append(trace, pt)
		if pt.Done && stopAt == 0 {
			stopAt = n
		}
	}
	return trace, stopAt, nil
}
