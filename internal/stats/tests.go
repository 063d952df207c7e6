package stats

import (
	"fmt"
	"math"
	"sort"
)

// TestResult carries the outcome of a statistical hypothesis test.
type TestResult struct {
	Name      string  // test name for reports
	Statistic float64 // the test statistic value
	PValue    float64 // p-value under the null hypothesis
	Alpha     float64 // significance level used for the verdict
	// Rejected is true if the null hypothesis is rejected at level
	// Alpha, using the convention Reject(PValue, Alpha) — reject iff
	// p <= alpha. Every test in this package applies it uniformly.
	Rejected bool
	DF       int // degrees of freedom, where meaningful
}

// Reject is the package-wide rejection rule: the null hypothesis is
// rejected at significance level alpha iff p <= alpha. The boundary
// case p == alpha rejects, matching the textbook definition under which
// alpha is exactly the rejection probability of a true null (a p-value
// is uniform on [0,1] under the null, so P(p <= alpha) = alpha).
// "Reject at 5% significance" in the reports means this rule with
// alpha = 0.05.
func Reject(p, alpha float64) bool { return p <= alpha }

// String renders the result in the form used by the evaluation tables.
func (t TestResult) String() string {
	verdict := "pass"
	if t.Rejected {
		verdict = "REJECT"
	}
	return fmt.Sprintf("%s: stat=%.4f p=%.4f alpha=%.2f -> %s",
		t.Name, t.Statistic, t.PValue, t.Alpha, verdict)
}

// LjungBox performs the Ljung-Box portmanteau test for independence
// (absence of autocorrelation up to maxLag) at significance level alpha.
// The paper uses it with alpha = 0.05 as the independence half of the
// i.i.d. gate and reports a p-value of 0.83 for TVCA on the randomized
// platform.
//
// Q = n(n+2) * sum_{k=1..h} r_k^2 / (n-k), asymptotically chi-squared
// with h degrees of freedom under the null of independence.
func LjungBox(xs []float64, maxLag int, alpha float64) (TestResult, error) {
	n := len(xs)
	if maxLag < 1 {
		return TestResult{}, ErrDomain
	}
	if n <= maxLag+1 {
		return TestResult{}, ErrTooFew
	}
	r, err := Autocorrelation(xs, maxLag)
	if err != nil {
		return TestResult{}, err
	}
	q := 0.0
	for k := 1; k <= maxLag; k++ {
		q += r[k-1] * r[k-1] / float64(n-k)
	}
	q *= float64(n) * float64(n+2)
	p, err := ChiSquaredSF(q, maxLag)
	if err != nil {
		return TestResult{}, err
	}
	return TestResult{
		Name:      fmt.Sprintf("Ljung-Box(h=%d)", maxLag),
		Statistic: q,
		PValue:    p,
		Alpha:     alpha,
		Rejected:  Reject(p, alpha),
		DF:        maxLag,
	}, nil
}

// DefaultLjungBoxLags returns the customary lag choice min(20, n/4) used
// when the caller has no domain-specific preference.
func DefaultLjungBoxLags(n int) int {
	h := n / 4
	if h > 20 {
		h = 20
	}
	if h < 1 {
		h = 1
	}
	return h
}

// KolmogorovSmirnov2 performs the two-sample Kolmogorov-Smirnov test that
// a and b are drawn from the same distribution, at significance level
// alpha. The paper applies it (alpha = 0.05) to two halves of the
// measurement campaign as the identical-distribution half of the i.i.d.
// gate and reports a p-value of 0.45.
//
// D = sup_x |F_a(x) - F_b(x)|; the p-value uses the Kolmogorov asymptotic
// distribution with the Stephens small-sample correction
// lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D, ne = na*nb/(na+nb).
func KolmogorovSmirnov2(a, b []float64, alpha float64) (TestResult, error) {
	return KolmogorovSmirnov2Sorted(sortedCopy(a), sortedCopy(b), alpha)
}

// KolmogorovSmirnov2Sorted is KolmogorovSmirnov2 on samples already
// sorted ascending, as sort.Float64s sorts them. Callers that keep
// their samples sorted across calls (the online analyzer's series
// halves) skip the two sorts; KolmogorovSmirnov2 sorts and calls it,
// so both share one D and p-value computation. D depends only on
// comparisons, so equal values (such as -0 and +0) may sit in either
// order.
func KolmogorovSmirnov2Sorted(sa, sb []float64, alpha float64) (TestResult, error) {
	if len(sa) == 0 || len(sb) == 0 {
		return TestResult{}, ErrEmpty
	}
	na, nb := len(sa), len(sb)
	var d float64
	i, j := 0, 0
	for i < na && j < nb {
		x := sa[i]
		if sb[j] < x {
			x = sb[j]
		}
		// Advance both past ties with x.
		for i < na && sa[i] <= x {
			i++
		}
		for j < nb && sb[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/float64(na) - float64(j)/float64(nb))
		if diff > d {
			d = diff
		}
	}
	ne := float64(na) * float64(nb) / float64(na+nb)
	sq := math.Sqrt(ne)
	lambda := (sq + 0.12 + 0.11/sq) * d
	p := KolmogorovSF(lambda)
	return TestResult{
		Name:      "Kolmogorov-Smirnov(2-sample)",
		Statistic: d,
		PValue:    p,
		Alpha:     alpha,
		Rejected:  Reject(p, alpha),
	}, nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// MergeSorted appends the merge of a and b, both sorted as
// sort.Float64s sorts (ascending, NaNs first), to dst and returns the
// extended slice, which is sorted the same way. dst must not overlap a
// or b.
func MergeSorted(dst, a, b []float64) []float64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if sortLess(b[j], a[i]) {
			dst = append(dst, b[j])
			j++
		} else {
			dst = append(dst, a[i])
			i++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// sortLess is the order sort.Float64s sorts by: ascending, with NaNs
// before every other value.
func sortLess(x, y float64) bool { return x < y || (x != x && y == y) }

// IIDReport is the combined i.i.d. gate of the MBPTA process: the sample
// passes when neither test rejects at the chosen significance level.
type IIDReport struct {
	Independence TestResult // Ljung-Box on the full series
	IdentDist    TestResult // two-sample KS on the two halves
	Pass         bool
}

// String renders the report in the form of the paper's §III table.
func (r IIDReport) String() string {
	verdict := "i.i.d. gate PASSED (MBPTA enabled)"
	if !r.Pass {
		verdict = "i.i.d. gate FAILED (MBPTA not applicable)"
	}
	return fmt.Sprintf("%s\n%s\n%s", r.Independence, r.IdentDist, verdict)
}

// CheckIID runs the paper's i.i.d. gate on an execution-time series:
// Ljung-Box on the ordered series and two-sample KS between the first and
// second halves, both at level alpha (the paper uses 0.05).
func CheckIID(xs []float64, alpha float64) (IIDReport, error) {
	if len(xs) < 8 {
		return IIDReport{}, ErrTooFew
	}
	half := len(xs) / 2
	return CheckIIDSorted(xs, sortedCopy(xs[:half]), sortedCopy(xs[half:]), alpha)
}

// CheckIIDSorted is CheckIID with the two halves supplied already
// sorted: lo must hold xs[:len(xs)/2] and hi xs[len(xs)/2:], each
// sorted as sort.Float64s sorts (ErrDomain if their lengths disagree).
// The report is bit-identical to CheckIID's; an analyzer that extends
// its series batch by batch keeps the halves sorted instead of
// re-sorting them at every gate.
func CheckIIDSorted(xs, lo, hi []float64, alpha float64) (IIDReport, error) {
	if len(xs) < 8 {
		return IIDReport{}, ErrTooFew
	}
	half := len(xs) / 2
	if len(lo) != half || len(hi) != len(xs)-half {
		return IIDReport{}, ErrDomain
	}
	lb, err := LjungBox(xs, DefaultLjungBoxLags(len(xs)), alpha)
	if err != nil {
		return IIDReport{}, fmt.Errorf("independence test: %w", err)
	}
	ks, err := KolmogorovSmirnov2Sorted(lo, hi, alpha)
	if err != nil {
		return IIDReport{}, fmt.Errorf("identical-distribution test: %w", err)
	}
	return IIDReport{
		Independence: lb,
		IdentDist:    ks,
		Pass:         !lb.Rejected && !ks.Rejected,
	}, nil
}

// AndersonDarling performs the one-sample Anderson-Darling test of xs
// against a fully specified continuous CDF. It is more tail-sensitive
// than KS and is provided as an extension diagnostic for checking the
// fitted Gumbel against the block maxima.
//
// A^2 = -n - (1/n) sum_{i=1..n} (2i-1) [ln F(x_(i)) + ln(1-F(x_(n+1-i)))].
// The p-value uses the asymptotic case-0 approximation.
func AndersonDarling(xs []float64, cdf func(float64) float64, alpha float64) (TestResult, error) {
	n := len(xs)
	if n < 5 {
		return TestResult{}, ErrTooFew
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for i := 0; i < n; i++ {
		fi := clampProb(cdf(s[i]))
		fni := clampProb(cdf(s[n-1-i]))
		sum += float64(2*i+1) * (math.Log(fi) + math.Log(1-fni))
	}
	a2 := -float64(n) - sum/float64(n)
	p := adPValue(a2)
	return TestResult{
		Name:      "Anderson-Darling",
		Statistic: a2,
		PValue:    p,
		Alpha:     alpha,
		Rejected:  Reject(p, alpha),
	}, nil
}

func clampProb(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// adPValue approximates the asymptotic p-value for the case-0 (fully
// specified distribution) Anderson-Darling statistic using Marsaglia &
// Marsaglia's adinf approximation (JSS 2004), accurate to ~4 decimal
// places over the practically relevant range.
func adPValue(a2 float64) float64 {
	if a2 <= 0 {
		return 1
	}
	var cdf float64
	if a2 < 2 {
		cdf = math.Exp(-1.2337141/a2) / math.Sqrt(a2) *
			(2.00012 + (0.247105-(0.0649821-(0.0347962-(0.011672-0.00168691*a2)*a2)*a2)*a2)*a2)
	} else {
		cdf = math.Exp(-math.Exp(1.0776 - (2.30695-(0.43424-(0.082433-(0.008056-0.0003146*a2)*a2)*a2)*a2)*a2))
	}
	p := 1 - cdf
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// RunsTest performs the Wald-Wolfowitz runs test for randomness around
// the sample median — an additional, cheaper independence diagnostic used
// alongside Ljung-Box.
func RunsTest(xs []float64, alpha float64) (TestResult, error) {
	if len(xs) < 10 {
		return TestResult{}, ErrTooFew
	}
	med, err := Quantile(xs, 0.5)
	if err != nil {
		return TestResult{}, err
	}
	// Classify each observation; drop exact median ties.
	var signs []bool
	for _, x := range xs {
		if x == med {
			continue
		}
		signs = append(signs, x > med)
	}
	if len(signs) < 10 {
		return TestResult{}, ErrTooFew
	}
	n1, n2, runs := 0, 0, 1
	for i, s := range signs {
		if s {
			n1++
		} else {
			n2++
		}
		if i > 0 && signs[i] != signs[i-1] {
			runs++
		}
	}
	if n1 == 0 || n2 == 0 {
		return TestResult{}, ErrTooFew
	}
	fn1, fn2 := float64(n1), float64(n2)
	mu := 2*fn1*fn2/(fn1+fn2) + 1
	sigma2 := 2 * fn1 * fn2 * (2*fn1*fn2 - fn1 - fn2) /
		((fn1 + fn2) * (fn1 + fn2) * (fn1 + fn2 - 1))
	z := (float64(runs) - mu) / math.Sqrt(sigma2)
	p := 2 * (1 - NormalCDF(math.Abs(z)))
	return TestResult{
		Name:      "Wald-Wolfowitz runs",
		Statistic: z,
		PValue:    p,
		Alpha:     alpha,
		Rejected:  Reject(p, alpha),
	}, nil
}
