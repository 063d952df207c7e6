// Quantile-resolved two-sample comparison: the nine-decile
// distribution gate and timing-leak oracle.
//
// The i.i.d. gate's two-sample KS test compares whole distributions,
// so an effect confined to the upper deciles — exactly where pWCET
// claims live, and exactly what a timing side channel looks like —
// can pass undetected, and its p-value is routinely misread as a leak
// probability. This file implements the two-layer design of the
// timing-oracle spec instead:
//
//   - Layer 1 (frequentist, bounded false positives): each decile
//     q10..q90 of the two samples is estimated by the Harrell-Davis
//     estimator with a Maritz-Jarrett standard error; the per-decile
//     difference is tested at level alpha/9 (Bonferroni), so the
//     family-wise false-positive rate across the nine deciles is at
//     most the configured alpha. The verdict says which deciles leak,
//     not just that something differs.
//   - Layer 2 (Bayesian, quantified leak): a Savage-Dickey Bayes
//     factor per decile converts the observed difference into a
//     posterior leak probability and an effect size in cycles —
//     the number a "how exploitable is this channel?" question
//     actually needs.
//
// Both layers are deterministic: Harrell-Davis weights are incomplete
// beta differences (no bootstrap resampling), so the same two samples
// always produce the same report, bit for bit, regardless of
// GOMAXPROCS or map iteration order.
//
// Collection-order correlation (the simulator's run series can carry
// AR(1) structure under some configurations) inflates the variance of
// quantile estimates; unless AssumeIID is set, standard errors are
// scaled by the effective-sample-size factor sqrt((1+rho)/(1-rho))
// with rho the lag-1 autocorrelation clamped to [0, 0.99] — a
// conservative correction that keeps the null calibrated without
// costing power on independent inputs.
package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
)

// quantileGateMinN is the default minimum per-sample size: below it the
// Maritz-Jarrett standard error is too noisy for the gate's
// false-positive budget to mean anything.
const quantileGateMinN = 16

// QuantileEstimate is a Harrell-Davis estimate of one quantile with its
// Maritz-Jarrett standard error and a two-sided normal confidence
// interval (Lo <= Point <= Hi always holds).
type QuantileEstimate struct {
	Q     float64 // quantile level in (0, 1)
	Point float64 // Harrell-Davis point estimate
	SE    float64 // Maritz-Jarrett standard error
	Lo    float64 // lower confidence bound
	Hi    float64 // upper confidence bound
}

// EstimateQuantile computes the Harrell-Davis estimate of quantile q of
// xs with a Maritz-Jarrett standard error and a two-sided normal CI at
// the given confidence level (e.g. 0.95). The estimator is a smooth
// weighted average of all order statistics — no resampling — so it is
// deterministic and considerably more efficient than the single order
// statistic at moderate n. Errors: ErrEmpty for no data, ErrDomain for
// q outside (0,1), confidence outside (0,1), or non-finite values.
func EstimateQuantile(xs []float64, q, confidence float64) (QuantileEstimate, error) {
	if len(xs) == 0 {
		return QuantileEstimate{}, ErrEmpty
	}
	if math.IsNaN(q) || q <= 0 || q >= 1 || math.IsNaN(confidence) || confidence <= 0 || confidence >= 1 {
		return QuantileEstimate{}, ErrDomain
	}
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return QuantileEstimate{}, ErrDomain
		}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	point, se, err := hdEstimate(sorted, q)
	if err != nil {
		return QuantileEstimate{}, err
	}
	z, err := NormalQuantile((1 + confidence) / 2)
	if err != nil {
		return QuantileEstimate{}, err
	}
	return QuantileEstimate{Q: q, Point: point, SE: se, Lo: point - z*se, Hi: point + z*se}, nil
}

// hdEstimate computes the Harrell-Davis point estimate and
// Maritz-Jarrett standard error of quantile q from an already-sorted
// sample. Weights are w_i = I_{i/n}(a,b) - I_{(i-1)/n}(a,b) with
// a = (n+1)q, b = (n+1)(1-q); the SE is sqrt(c2 - c1^2) with
// c1 = sum w_i x_(i), c2 = sum w_i x_(i)^2.
func hdEstimate(sorted []float64, q float64) (point, se float64, err error) {
	n := len(sorted)
	a := float64(n+1) * q
	b := float64(n+1) * (1 - q)
	// Accumulate around the sample median: c2 - c1^2 cancels
	// catastrophically when the mean dwarfs the spread (cycle counts in
	// the millions with sub-percent jitter), and centering also makes
	// the estimate shift-equivariant to rounding level.
	mu := sorted[n/2]
	// Spreads near the float64 ceiling would overflow the squared term;
	// pre-scale those (and only those, so ordinary data stays
	// bit-identical) and undo the scaling at the end.
	scale := 1.0
	if s := math.Max(math.Abs(sorted[0]-mu), math.Abs(sorted[n-1]-mu)); s >= 1e150 {
		scale = s
	}
	var c1, c2 float64
	prev := 0.0
	for i := 1; i <= n; i++ {
		cum := 1.0
		if i < n {
			cum, err = RegularizedIncompleteBeta(float64(i)/float64(n), a, b)
			if err != nil {
				return 0, 0, err
			}
		}
		w := cum - prev
		prev = cum
		x := (sorted[i-1] - mu) / scale
		c1 += w * x
		c2 += w * x * x
	}
	v := c2 - c1*c1
	if v < 0 { // rounding in the weight sum
		v = 0
	}
	return mu + scale*c1, scale * math.Sqrt(v), nil
}

// QuantileGateOptions configures CompareQuantiles / CheckQuantileGate.
// The zero value selects the defaults documented per field.
type QuantileGateOptions struct {
	// Alpha is the family-wise false-positive budget across all tested
	// deciles (default 0.01): under identical distributions the gate
	// fails with probability at most Alpha.
	Alpha float64
	// Deciles lists the quantile levels to compare (default q10..q90).
	Deciles []float64
	// PriorEffect is the Bayesian layer's H1 prior scale tau, in input
	// units (cycles): the effect size a real leak is expected to have.
	// Zero selects half the pooled q10-q90 spread — "a leak as wide as
	// the distribution body" — which is scale-free and conservative.
	PriorEffect float64
	// AssumeIID skips the AR(1) effective-sample-size correction of
	// the standard errors. Leave false unless the samples are known
	// independent in collection order.
	AssumeIID bool
	// MinN is the minimum per-sample size (default 16); smaller inputs
	// return ErrTooFew.
	MinN int
}

func (o QuantileGateOptions) withDefaults() QuantileGateOptions {
	if o.Alpha == 0 {
		o.Alpha = 0.01
	}
	if len(o.Deciles) == 0 {
		o.Deciles = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	if o.MinN == 0 {
		o.MinN = quantileGateMinN
	}
	return o
}

// DecileResult is the verdict for one quantile level.
type DecileResult struct {
	Q float64 // quantile level

	A, B QuantileEstimate // per-sample estimates (CIs at level 1-alpha/k)

	Diff   float64 // B.Point - A.Point, in input units (cycles)
	SE     float64 // combined standard error of Diff (ESS-corrected)
	Lo, Hi float64 // 1-alpha/k confidence interval on Diff
	Z      float64 // Diff / SE
	P      float64 // two-sided normal p-value
	Leak   bool    // frequentist rejection at the Bonferroni level alpha/k

	BF10      float64 // Savage-Dickey Bayes factor, H1 (leak) over H0
	Posterior float64 // posterior leak probability at even prior odds
}

// QuantileGateReport is the two-layer verdict over all tested deciles.
type QuantileGateReport struct {
	NA, NB      int     // per-sample sizes
	Alpha       float64 // family-wise false-positive budget
	PriorEffect float64 // resolved Bayesian prior scale tau (cycles)
	RhoA, RhoB  float64 // lag-1 autocorrelations used for the ESS correction

	Deciles []DecileResult

	// Layer 1 aggregate: Pass is the gate verdict — true iff no decile
	// rejects at the Bonferroni level, so P(fail | identical
	// distributions) <= Alpha.
	Leaks   int
	Pass    bool
	MaxAbsZ float64

	// Layer 2 aggregate: LeakProbability is the maximum per-decile
	// posterior — a conservative envelope answering "how likely is it
	// that at least the most suspicious decile leaks?". EffectCycles
	// is the difference at the most significant decile (EffectDecile).
	LeakProbability float64
	EffectCycles    float64
	EffectDecile    float64
}

// String renders a one-line summary in the IIDReport style.
func (r QuantileGateReport) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	var leaking []string
	for _, d := range r.Deciles {
		if d.Leak {
			leaking = append(leaking, fmt.Sprintf("q%02.0f", d.Q*100))
		}
	}
	at := ""
	if len(leaking) > 0 {
		at = " at " + strings.Join(leaking, ",")
	}
	return fmt.Sprintf("quantile gate %s: %d/%d deciles differ%s (max |z| %.2f, P(leak) %.3f, effect %+.0f cycles @ q%02.0f)",
		verdict, r.Leaks, len(r.Deciles), at, r.MaxAbsZ, r.LeakProbability, r.EffectCycles, r.EffectDecile*100)
}

// Fingerprint returns a short hex digest over every numeric field of
// the report (exact float bit patterns), for golden tests that must
// catch any change in gate behavior.
func (r QuantileGateReport) Fingerprint() string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(x float64) { word(math.Float64bits(x)) }
	word(uint64(r.NA))
	word(uint64(r.NB))
	f(r.Alpha)
	f(r.PriorEffect)
	f(r.RhoA)
	f(r.RhoB)
	for _, d := range r.Deciles {
		f(d.Q)
		f(d.A.Point)
		f(d.A.SE)
		f(d.B.Point)
		f(d.B.SE)
		f(d.Diff)
		f(d.SE)
		f(d.Z)
		f(d.P)
		if d.Leak {
			word(1)
		} else {
			word(0)
		}
		f(d.Posterior)
	}
	word(uint64(r.Leaks))
	f(r.LeakProbability)
	f(r.EffectCycles)
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// CompareQuantiles runs the two-layer quantile comparison of samples a
// and b (in collection order — order matters only for the AR(1)
// correction). Errors: ErrTooFew below MinN per side, ErrDomain for
// non-finite values or invalid options.
func CompareQuantiles(a, b []float64, opts QuantileGateOptions) (QuantileGateReport, error) {
	o := opts.withDefaults()
	if math.IsNaN(o.Alpha) || o.Alpha <= 0 || o.Alpha >= 1 {
		return QuantileGateReport{}, ErrDomain
	}
	if len(a) < o.MinN || len(b) < o.MinN {
		return QuantileGateReport{}, ErrTooFew
	}
	for _, xs := range [][]float64{a, b} {
		for _, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return QuantileGateReport{}, ErrDomain
			}
		}
	}
	for _, q := range o.Deciles {
		if math.IsNaN(q) || q <= 0 || q >= 1 {
			return QuantileGateReport{}, ErrDomain
		}
	}
	k := len(o.Deciles)
	perTest := o.Alpha / float64(k)
	zCrit, err := NormalQuantile(1 - perTest/2)
	if err != nil {
		return QuantileGateReport{}, err
	}

	rep := QuantileGateReport{NA: len(a), NB: len(b), Alpha: o.Alpha, Pass: true}
	essA, essB := 1.0, 1.0
	if !o.AssumeIID {
		rep.RhoA = lag1Rho(a)
		rep.RhoB = lag1Rho(b)
		essA = math.Sqrt((1 + rep.RhoA) / (1 - rep.RhoA))
		essB = math.Sqrt((1 + rep.RhoB) / (1 - rep.RhoB))
	}

	sortedA := append([]float64(nil), a...)
	sortedB := append([]float64(nil), b...)
	sort.Float64s(sortedA)
	sort.Float64s(sortedB)

	tau := o.PriorEffect
	if tau == 0 {
		tau = pooledBodySpread(sortedA, sortedB)
	}
	rep.PriorEffect = tau

	rep.Deciles = make([]DecileResult, 0, k)
	bestZ := -1.0
	for _, q := range o.Deciles {
		pa, seA, err := hdEstimate(sortedA, q)
		if err != nil {
			return QuantileGateReport{}, err
		}
		pb, seB, err := hdEstimate(sortedB, q)
		if err != nil {
			return QuantileGateReport{}, err
		}
		seA *= essA
		seB *= essB
		d := DecileResult{
			Q:    q,
			A:    QuantileEstimate{Q: q, Point: pa, SE: seA, Lo: pa - zCrit*seA, Hi: pa + zCrit*seA},
			B:    QuantileEstimate{Q: q, Point: pb, SE: seB, Lo: pb - zCrit*seB, Hi: pb + zCrit*seB},
			Diff: pb - pa,
		}
		d.SE = math.Hypot(seA, seB)
		d.Lo = d.Diff - zCrit*d.SE
		d.Hi = d.Diff + zCrit*d.SE
		var logBF float64
		switch {
		case d.SE > 0:
			d.Z = d.Diff / d.SE
			d.P = clampProb(2 * NormalCDF(-math.Abs(d.Z)))
			logBF = savageDickeyLogBF(d.Diff, d.SE, tau)
		case d.Diff != 0:
			// Two constant samples at different values: certain leak.
			d.Z = math.Inf(sign(d.Diff))
			d.P = 0
			logBF = math.Inf(1)
		default:
			// Two identical constants: certain non-leak.
			d.Z, d.P = 0, 1
			logBF = math.Inf(-1)
		}
		d.Leak = Reject(d.P, perTest)
		d.BF10 = math.Exp(logBF)
		d.Posterior = 1 / (1 + math.Exp(-logBF))
		rep.Deciles = append(rep.Deciles, d)

		if d.Leak {
			rep.Leaks++
			rep.Pass = false
		}
		az := math.Abs(d.Z)
		if az > rep.MaxAbsZ {
			rep.MaxAbsZ = az
		}
		if d.Posterior > rep.LeakProbability {
			rep.LeakProbability = d.Posterior
		}
		if az > bestZ {
			bestZ = az
			rep.EffectCycles = d.Diff
			rep.EffectDecile = q
		}
	}
	return rep, nil
}

// CheckQuantileGate splits xs into ordered halves and compares them
// with CompareQuantiles — the sharper, decile-resolved counterpart of
// CheckIID's two-sample KS check. A series whose first and second
// halves differ only above q80 fails here while passing the KS test.
func CheckQuantileGate(xs []float64, opts QuantileGateOptions) (QuantileGateReport, error) {
	o := opts.withDefaults()
	if len(xs) < 2*o.MinN {
		return QuantileGateReport{}, ErrTooFew
	}
	half := len(xs) / 2
	return CompareQuantiles(xs[:half], xs[half:], o)
}

// savageDickeyLogBF computes log BF10 for H1: diff ~ N(0, tau^2)
// against H0: diff = 0, given the observed difference and its standard
// error, via the Savage-Dickey density ratio
// N(diff; 0, tau^2+se^2) / N(diff; 0, se^2). Log space keeps large |z|
// finite until the final exponentiation.
func savageDickeyLogBF(diff, se, tau float64) float64 {
	if tau <= 0 {
		// Degenerate prior: H1 indistinguishable from H0.
		return 0
	}
	// Ratio form of 0.5 log(se^2/(se^2+tau^2)) + diff^2/2 (1/se^2 -
	// 1/(se^2+tau^2)): with r = (tau/se)^2 this is
	// -log1p(r)/2 + z^2/2 * r/(1+r), which survives denormal se and
	// enormous tau where the variance form over/underflows.
	z := diff / se
	if math.IsInf(z, 0) {
		return math.Inf(1)
	}
	t := tau / se
	if t > 1e150 { // r/(1+r) -> 1, log1p(r)/2 -> log(t)
		return 0.5*z*z - math.Log(t)
	}
	r := t * t
	return -0.5*math.Log1p(r) + 0.5*z*z*r/(1+r)
}

// pooledBodySpread returns half the pooled q10-q90 spread, the default
// Bayesian prior scale. Falls back to 1.0 for degenerate (constant)
// pools so the Bayes factor stays defined. The pool is the merge of the
// two sorted halves, exactly what sorting their concatenation gives:
// both inputs are finite (CompareQuantiles rejects the rest), and
// equal finite values differ at most in the sign of zero, which the
// Harrell-Davis sums cannot see.
func pooledBodySpread(sortedA, sortedB []float64) float64 {
	pool := MergeSorted(make([]float64, 0, len(sortedA)+len(sortedB)), sortedA, sortedB)
	lo, _, err := hdEstimate(pool, 0.1)
	if err != nil {
		return 1
	}
	hi, _, err := hdEstimate(pool, 0.9)
	if err != nil {
		return 1
	}
	if s := (hi - lo) / 2; s > 0 {
		return s
	}
	return 1
}

// lag1Rho estimates the lag-1 autocorrelation of xs in collection
// order, clamped to [0, 0.99]: negative correlation would shrink the
// standard errors, and the clamp keeps the ESS factor finite.
func lag1Rho(xs []float64) float64 {
	if len(xs) < 8 {
		return 0
	}
	ac, err := Autocorrelation(xs, 1)
	if err != nil || len(ac) == 0 || math.IsNaN(ac[0]) {
		return 0
	}
	switch rho := ac[0]; {
	case rho < 0:
		return 0
	case rho > 0.99:
		return 0.99
	default:
		return rho
	}
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}
