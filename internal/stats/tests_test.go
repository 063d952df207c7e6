package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

func iidSample(seed uint64, n int) []float64 {
	src := rng.NewXoroshiro128(seed)
	xs := make([]float64, n)
	for i := range xs {
		// Sum of three uniforms: smooth, light-tailed, continuous.
		xs[i] = rng.Float64(src) + rng.Float64(src) + rng.Float64(src)
	}
	return xs
}

func ar1Sample(seed uint64, n int, phi float64) []float64 {
	src := rng.NewXoroshiro128(seed)
	xs := make([]float64, n)
	prev := 0.0
	for i := range xs {
		prev = phi*prev + (rng.Float64(src) - 0.5)
		xs[i] = prev
	}
	return xs
}

func TestLjungBoxAcceptsIID(t *testing.T) {
	rejections := 0
	const trials = 40
	for s := uint64(0); s < trials; s++ {
		res, err := LjungBox(iidSample(s+1, 1000), 20, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rejected {
			rejections++
		}
	}
	// At alpha=0.05 expect ~2 rejections in 40; allow up to 6.
	if rejections > 6 {
		t.Errorf("Ljung-Box rejected %d/%d i.i.d. samples", rejections, trials)
	}
}

func TestLjungBoxRejectsAR1(t *testing.T) {
	for s := uint64(1); s <= 10; s++ {
		res, err := LjungBox(ar1Sample(s, 1000, 0.6), 20, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rejected {
			t.Errorf("seed %d: Ljung-Box failed to reject AR(1) phi=0.6 (p=%.4f)", s, res.PValue)
		}
	}
}

func TestLjungBoxStatisticNonNegative(t *testing.T) {
	res, err := LjungBox(iidSample(3, 200), 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic < 0 {
		t.Errorf("Q = %v < 0", res.Statistic)
	}
	if res.DF != 10 {
		t.Errorf("DF = %d, want 10", res.DF)
	}
}

func TestLjungBoxErrors(t *testing.T) {
	if _, err := LjungBox([]float64{1, 2, 3}, 5, 0.05); err != ErrTooFew {
		t.Errorf("short sample err = %v", err)
	}
	if _, err := LjungBox(iidSample(1, 100), 0, 0.05); err != ErrDomain {
		t.Errorf("maxLag=0 err = %v", err)
	}
}

func TestDefaultLjungBoxLags(t *testing.T) {
	cases := []struct{ n, want int }{{3, 1}, {8, 2}, {40, 10}, {100, 20}, {3000, 20}}
	for _, c := range cases {
		if got := DefaultLjungBoxLags(c.n); got != c.want {
			t.Errorf("lags(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestKS2SameDistribution(t *testing.T) {
	rejections := 0
	const trials = 40
	for s := uint64(0); s < trials; s++ {
		a := iidSample(2*s+1, 800)
		b := iidSample(2*s+2, 800)
		res, err := KolmogorovSmirnov2(a, b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rejected {
			rejections++
		}
	}
	if rejections > 6 {
		t.Errorf("KS rejected %d/%d same-distribution pairs", rejections, trials)
	}
}

func TestKS2DifferentDistributions(t *testing.T) {
	for s := uint64(1); s <= 10; s++ {
		a := iidSample(s, 800)
		b := iidSample(s+100, 800)
		for i := range b {
			b[i] += 0.3 // location shift ~ 0.7 sigma
		}
		res, err := KolmogorovSmirnov2(a, b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rejected {
			t.Errorf("seed %d: KS failed to reject shifted sample (p=%.4f)", s, res.PValue)
		}
	}
}

func TestKS2StatisticExact(t *testing.T) {
	// Hand-computable case: a={1,2,3}, b={4,5,6}: D = 1.
	res, err := KolmogorovSmirnov2([]float64{1, 2, 3}, []float64{4, 5, 6}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "D disjoint", res.Statistic, 1, 1e-15)
	// Identical samples: D = 0, p = 1.
	res, _ = KolmogorovSmirnov2([]float64{1, 2, 3}, []float64{1, 2, 3}, 0.05)
	approx(t, "D identical", res.Statistic, 0, 1e-15)
	approx(t, "p identical", res.PValue, 1, 1e-12)
}

func TestKS2WithTies(t *testing.T) {
	// Heavily tied integer samples must not panic or exceed D=1.
	a := []float64{1, 1, 1, 2, 2, 3}
	b := []float64{1, 2, 2, 2, 3, 3}
	res, err := KolmogorovSmirnov2(a, b, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic < 0 || res.Statistic > 1 {
		t.Errorf("D = %v out of [0,1]", res.Statistic)
	}
}

func TestKS2Empty(t *testing.T) {
	if _, err := KolmogorovSmirnov2(nil, []float64{1}, 0.05); err != ErrEmpty {
		t.Error("empty a accepted")
	}
	if _, err := KolmogorovSmirnov2([]float64{1}, nil, 0.05); err != ErrEmpty {
		t.Error("empty b accepted")
	}
}

func TestCheckIIDPassesOnIID(t *testing.T) {
	rep, err := CheckIID(iidSample(42, 3000), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Errorf("i.i.d. gate failed on i.i.d. data:\n%s", rep)
	}
	if rep.Independence.PValue < 0.05 || rep.IdentDist.PValue < 0.05 {
		t.Errorf("p-values %v %v below alpha on iid data",
			rep.Independence.PValue, rep.IdentDist.PValue)
	}
}

func TestCheckIIDFailsOnTrend(t *testing.T) {
	// A drifting series violates both independence and identical
	// distribution — exactly the failure mode of a deterministic
	// platform warming its caches across runs.
	xs := make([]float64, 1000)
	src := rng.NewXoroshiro128(5)
	for i := range xs {
		xs[i] = float64(i)*0.01 + rng.Float64(src)
	}
	rep, err := CheckIID(xs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Error("i.i.d. gate passed on trending data")
	}
}

func TestCheckIIDSortedRejectsMismatchedHalves(t *testing.T) {
	xs := iidSample(3, 20)
	lo, hi := sortedCopy(xs[:10]), sortedCopy(xs[10:])
	for _, c := range []struct{ lo, hi []float64 }{{lo[:9], hi}, {lo, hi[:9]}, {hi, lo[:9]}} {
		if _, err := CheckIIDSorted(xs, c.lo, c.hi, 0.05); err != ErrDomain {
			t.Errorf("halves of %d and %d runs for a 20-run series: err %v, want ErrDomain", len(c.lo), len(c.hi), err)
		}
	}
	if _, err := CheckIIDSorted(xs[:7], nil, nil, 0.05); err != ErrTooFew {
		t.Errorf("7-run series: err %v, want ErrTooFew", err)
	}
}

// TestMergeSortedOrdersLikeSort: merging two sorted slices gives what
// sorting their concatenation gives, NaNs first, ties and infinities
// included.
func TestMergeSortedOrdersLikeSort(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	a := []float64{nan, -inf, -1, 2, 2, 5, inf}
	b := []float64{nan, nan, -3, 2, 4, 4, 9}
	sort.Float64s(a)
	sort.Float64s(b)
	got := MergeSorted([]float64{42}, a, b)
	want := append([]float64{42}, sortedCopy(append(append([]float64(nil), a...), b...))...)
	if len(got) != len(want) {
		t.Fatalf("merged %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("merged %v, want %v", got, want)
		}
	}
}

func TestCheckIIDTooFew(t *testing.T) {
	if _, err := CheckIID([]float64{1, 2, 3}, 0.05); err == nil {
		t.Error("CheckIID on 3 points accepted")
	}
}

func TestTestResultString(t *testing.T) {
	r := TestResult{Name: "X", Statistic: 1, PValue: 0.01, Alpha: 0.05, Rejected: true}
	if s := r.String(); s == "" || !contains(s, "REJECT") {
		t.Errorf("String() = %q", s)
	}
	r.Rejected = false
	if s := r.String(); !contains(s, "pass") {
		t.Errorf("String() = %q", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestAndersonDarlingUniform(t *testing.T) {
	unif := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	wrong := func(x float64) float64 { return unif(x * x) }
	// Over many uniform samples the rejection rate at alpha=0.05 should
	// be near 5%, while the wrong CDF must be rejected essentially always.
	rejectRight, rejectWrong := 0, 0
	const trials = 40
	src := rng.NewXoroshiro128(0)
	for s := uint64(1); s <= trials; s++ {
		src.Seed(s * 104729)
		xs := make([]float64, 500)
		for i := range xs {
			xs[i] = rng.Float64(src)
		}
		res, err := AndersonDarling(xs, unif, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rejected {
			rejectRight++
		}
		res, _ = AndersonDarling(xs, wrong, 0.05)
		if res.Rejected {
			rejectWrong++
		}
	}
	if rejectRight > 7 {
		t.Errorf("AD rejected %d/%d uniform-vs-uniform samples", rejectRight, trials)
	}
	if rejectWrong < trials {
		t.Errorf("AD accepted wrong CDF in %d/%d trials", trials-rejectWrong, trials)
	}
}

func TestAndersonDarlingPValueCriticalPoints(t *testing.T) {
	// Marsaglia adinf must reproduce the classical case-0 critical
	// values: A2=1.933 (10%), 2.492 (5%), 3.857 (1%).
	cases := []struct{ a2, p float64 }{{1.933, 0.10}, {2.492, 0.05}, {3.857, 0.01}}
	for _, c := range cases {
		if got := adPValue(c.a2); math.Abs(got-c.p) > 0.002 {
			t.Errorf("adPValue(%v) = %.4f, want ~%.2f", c.a2, got, c.p)
		}
	}
	if adPValue(0) != 1 {
		t.Error("adPValue(0) != 1")
	}
	if adPValue(50) > 1e-6 {
		t.Error("adPValue(50) not ~0")
	}
}

func TestAndersonDarlingTooFew(t *testing.T) {
	if _, err := AndersonDarling([]float64{1, 2}, func(float64) float64 { return 0.5 }, 0.05); err != ErrTooFew {
		t.Error("AD on 2 points accepted")
	}
}

func TestRunsTestIID(t *testing.T) {
	rejections := 0
	const trials = 30
	for s := uint64(1); s <= trials; s++ {
		res, err := RunsTest(iidSample(s, 500), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rejected {
			rejections++
		}
	}
	if rejections > 5 {
		t.Errorf("runs test rejected %d/%d iid samples", rejections, trials)
	}
}

func TestRunsTestAlternating(t *testing.T) {
	// Perfectly alternating series has far too many runs.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	res, err := RunsTest(xs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected {
		t.Errorf("runs test accepted alternating series (p=%.4f)", res.PValue)
	}
	if res.Statistic < 0 {
		// Alternating gives more runs than expected: z should be large
		// positive... actually more runs -> runs > mu -> z > 0.
		t.Logf("z = %v", res.Statistic)
	}
}

func TestRunsTestBlocky(t *testing.T) {
	// Long blocks (strong positive correlation) give too few runs.
	xs := make([]float64, 200)
	for i := range xs {
		if i < 100 {
			xs[i] = 0
		} else {
			xs[i] = 1
		}
	}
	res, err := RunsTest(xs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected {
		t.Error("runs test accepted two-block series")
	}
	if res.Statistic > 0 {
		t.Errorf("blocky series z = %v, want negative", res.Statistic)
	}
}

func TestRunsTestTooFew(t *testing.T) {
	if _, err := RunsTest([]float64{1, 2, 3}, 0.05); err != ErrTooFew {
		t.Error("runs test on 3 points accepted")
	}
	// All ties with the median: every value identical.
	if _, err := RunsTest(make([]float64, 50), 0.05); err != ErrTooFew {
		t.Error("runs test on constant series accepted")
	}
}

func TestKS2PValueMatchesCriticalValue(t *testing.T) {
	// For equal n=m=1000, the 5% critical D is approximately
	// 1.358*sqrt(2/1000) = 0.0607. A sample pair with D just above it
	// should give p just below 0.05.
	n := 1000.0
	dCrit := 1.358 * math.Sqrt(2/n)
	ne := n * n / (2 * n)
	sq := math.Sqrt(ne)
	lambda := (sq + 0.12 + 0.11/sq) * dCrit
	p := KolmogorovSF(lambda)
	if p > 0.055 || p < 0.040 {
		t.Errorf("p at critical D = %.4f, want ~0.05", p)
	}
}

func TestRejectBoundary(t *testing.T) {
	// The package-wide convention: reject iff p <= alpha. The boundary
	// case p == alpha must reject — alpha is exactly the rejection
	// probability of a true null — and the docs/report phrase "reject
	// at 5% significance" refers to this rule.
	cases := []struct {
		p, alpha float64
		want     bool
	}{
		{0.05, 0.05, true}, // boundary: p == alpha rejects
		{0.0499, 0.05, true},
		{0.0501, 0.05, false},
		{0, 0.05, true},
		{1, 0.05, false},
		{0.01, 0.01, true}, // boundary at other levels too
		{0.10, 0.10, true},
	}
	for _, c := range cases {
		if got := Reject(c.p, c.alpha); got != c.want {
			t.Errorf("Reject(%v, %v) = %v, want %v", c.p, c.alpha, got, c.want)
		}
	}
}

func TestRejectionBoundaryAppliedUniformly(t *testing.T) {
	// Every TestResult producer must agree with Reject(p, alpha),
	// including at the exact boundary p == alpha: re-run each test with
	// alpha set to its own p-value and require rejection.
	xs := iidSample(7, 400)
	half := len(xs) / 2

	type run struct {
		name string
		mk   func(alpha float64) (TestResult, error)
	}
	runs := []run{
		{"Ljung-Box", func(a float64) (TestResult, error) {
			return LjungBox(xs, DefaultLjungBoxLags(len(xs)), a)
		}},
		{"KS-2", func(a float64) (TestResult, error) {
			return KolmogorovSmirnov2(xs[:half], xs[half:], a)
		}},
		{"runs test", func(a float64) (TestResult, error) {
			return RunsTest(xs, a)
		}},
		{"turning-point", func(a float64) (TestResult, error) {
			return TurningPointTest(xs, a)
		}},
		{"Mann-Kendall", func(a float64) (TestResult, error) {
			return MannKendall(xs, a)
		}},
	}
	for _, r := range runs {
		base, err := r.mk(0.05)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if base.Rejected != Reject(base.PValue, 0.05) {
			t.Errorf("%s: Rejected=%v disagrees with Reject(%v, 0.05)",
				r.name, base.Rejected, base.PValue)
		}
		if base.PValue <= 0 || base.PValue >= 1 {
			continue // boundary re-run is only meaningful for interior p
		}
		at, err := r.mk(base.PValue)
		if err != nil {
			t.Fatalf("%s at boundary: %v", r.name, err)
		}
		if !at.Rejected {
			t.Errorf("%s: p == alpha == %v must reject", r.name, base.PValue)
		}
	}
}
