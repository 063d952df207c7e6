package stats

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

func TestRegularizedIncompleteBeta(t *testing.T) {
	cases := []struct {
		x, a, b, want float64
	}{
		{0, 2, 3, 0},
		{1, 2, 3, 1},
		{0.5, 1, 1, 0.5},   // Beta(1,1) is uniform
		{0.25, 1, 1, 0.25}, // ditto
		{0.5, 3, 3, 0.5},   // symmetric at the midpoint
		// I_x(1, b) = 1 - (1-x)^b.
		{0.3, 1, 4, 1 - math.Pow(0.7, 4)},
		// I_x(a, 1) = x^a.
		{0.3, 4, 1, math.Pow(0.3, 4)},
		// I_x(2, 2) = x^2 (3 - 2x).
		{0.7, 2, 2, 0.7 * 0.7 * (3 - 2*0.7)},
	}
	for _, c := range cases {
		got, err := RegularizedIncompleteBeta(c.x, c.a, c.b)
		if err != nil {
			t.Fatalf("I_%g(%g,%g): %v", c.x, c.a, c.b, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("I_%g(%g,%g) = %.15f, want %.15f", c.x, c.a, c.b, got, c.want)
		}
	}
	// Symmetry I_x(a,b) = 1 - I_{1-x}(b,a) away from the tail switch.
	p, _ := RegularizedIncompleteBeta(0.37, 5.5, 2.25)
	q, _ := RegularizedIncompleteBeta(0.63, 2.25, 5.5)
	if math.Abs(p+q-1) > 1e-12 {
		t.Errorf("symmetry violated: %.15f + %.15f != 1", p, q)
	}
	for _, bad := range []struct{ x, a, b float64 }{
		{-0.1, 1, 1}, {1.1, 1, 1}, {0.5, 0, 1}, {0.5, 1, -2}, {math.NaN(), 1, 1}, {0.5, math.NaN(), 1},
	} {
		if _, err := RegularizedIncompleteBeta(bad.x, bad.a, bad.b); !errors.Is(err, ErrDomain) {
			t.Errorf("I_%g(%g,%g): want ErrDomain, got %v", bad.x, bad.a, bad.b, err)
		}
	}
}

func TestEstimateQuantileBasics(t *testing.T) {
	if _, err := EstimateQuantile(nil, 0.5, 0.95); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: want ErrEmpty, got %v", err)
	}
	for _, bad := range []struct{ q, conf float64 }{
		{0, 0.95}, {1, 0.95}, {math.NaN(), 0.95}, {0.5, 0}, {0.5, 1}, {0.5, math.NaN()},
	} {
		if _, err := EstimateQuantile([]float64{1, 2, 3}, bad.q, bad.conf); !errors.Is(err, ErrDomain) {
			t.Errorf("q=%g conf=%g: want ErrDomain, got %v", bad.q, bad.conf, err)
		}
	}
	if _, err := EstimateQuantile([]float64{1, math.NaN(), 3}, 0.5, 0.95); !errors.Is(err, ErrDomain) {
		t.Errorf("NaN input: want ErrDomain, got %v", err)
	}
	if _, err := EstimateQuantile([]float64{1, math.Inf(1)}, 0.5, 0.95); !errors.Is(err, ErrDomain) {
		t.Errorf("Inf input: want ErrDomain, got %v", err)
	}

	// Single observation: the estimate is the observation, SE 0.
	e, err := EstimateQuantile([]float64{7}, 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if e.Point != 7 || e.SE != 0 || e.Lo != 7 || e.Hi != 7 {
		t.Errorf("n=1: got %+v", e)
	}

	// Median of a symmetric sample is the center; CI stays ordered.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	e, err = EstimateQuantile(xs, 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Point-5) > 1e-9 {
		t.Errorf("median of 1..9 = %.6f, want 5", e.Point)
	}
	if !(e.Lo <= e.Point && e.Point <= e.Hi) {
		t.Errorf("CI unordered: %+v", e)
	}
	if e.SE <= 0 {
		t.Errorf("SE = %g, want > 0", e.SE)
	}
}

// On a large uniform sample the Harrell-Davis estimate must track the
// true quantile closely at every decile.
func TestEstimateQuantileUniformAccuracy(t *testing.T) {
	src := rng.NewXoroshiro128(99)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = rng.Float64(src)
	}
	for q := 0.1; q < 0.95; q += 0.1 {
		e, err := EstimateQuantile(xs, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(e.Point-q) > 0.03 {
			t.Errorf("q%.0f: estimate %.4f too far from %.2f", q*100, e.Point, q)
		}
		if !(e.Lo <= e.Point && e.Point <= e.Hi) {
			t.Errorf("q%.0f: CI unordered: %+v", q*100, e)
		}
	}
}

func TestCompareQuantilesIdentical(t *testing.T) {
	src := rng.NewXoroshiro128(7)
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = rng.Float64(src)
	}
	for i := range b {
		b[i] = rng.Float64(src)
	}
	rep, err := CompareQuantiles(a, b, QuantileGateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Leaks != 0 {
		t.Errorf("identical distributions: %s", rep)
	}
	if rep.LeakProbability > 0.5 {
		t.Errorf("identical distributions: posterior leak probability %.3f > 0.5", rep.LeakProbability)
	}
	if len(rep.Deciles) != 9 {
		t.Fatalf("want 9 deciles, got %d", len(rep.Deciles))
	}
	for _, d := range rep.Deciles {
		if !(d.Lo <= d.Diff && d.Diff <= d.Hi) {
			t.Errorf("q%.0f: diff CI unordered: %+v", d.Q*100, d)
		}
		if !(d.A.Lo <= d.A.Point && d.A.Point <= d.A.Hi) {
			t.Errorf("q%.0f: sample-A CI unordered", d.Q*100)
		}
	}
}

func TestCompareQuantilesShift(t *testing.T) {
	src := rng.NewXoroshiro128(8)
	a := make([]float64, 600)
	b := make([]float64, 600)
	const shift = 500.0
	for i := range a {
		a[i] = 10000 + 100*rng.Float64(src)
	}
	for i := range b {
		b[i] = 10000 + 100*rng.Float64(src) + shift
	}
	rep, err := CompareQuantiles(a, b, QuantileGateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.Leaks != 9 {
		t.Errorf("gross shift: %s", rep)
	}
	if math.Abs(rep.EffectCycles-shift) > 50 {
		t.Errorf("effect size %.0f, want ~%.0f", rep.EffectCycles, shift)
	}
	if rep.LeakProbability < 0.99 {
		t.Errorf("leak probability %.3f, want ~1", rep.LeakProbability)
	}
}

// An effect confined above q80 must leak only at the upper deciles.
func TestCompareQuantilesUpperTailOnly(t *testing.T) {
	src := rng.NewXoroshiro128(9)
	n := 2000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.Float64(src)
	}
	for i := range b {
		v := rng.Float64(src)
		if v > 0.85 {
			v += 0.08
		}
		b[i] = v
	}
	rep, err := CompareQuantiles(a, b, QuantileGateOptions{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("upper-tail effect not detected: %s", rep)
	}
	for _, d := range rep.Deciles {
		if d.Q <= 0.7 && d.Leak {
			t.Errorf("q%.0f flagged despite the effect living above q85", d.Q*100)
		}
		if d.Q >= 0.9 && !d.Leak {
			t.Errorf("q%.0f not flagged despite a +0.08 shift above q85", d.Q*100)
		}
	}
	if rep.EffectDecile < 0.8 {
		t.Errorf("most significant decile %.1f, want >= 0.8", rep.EffectDecile)
	}
}

func TestCompareQuantilesConstantSamples(t *testing.T) {
	a := make([]float64, 50)
	b := make([]float64, 50)
	for i := range a {
		a[i] = 100
		b[i] = 100
	}
	rep, err := CompareQuantiles(a, b, QuantileGateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.LeakProbability > 0.01 {
		t.Errorf("identical constants: %s", rep)
	}

	for i := range b {
		b[i] = 120
	}
	rep, err = CompareQuantiles(a, b, QuantileGateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.Leaks != 9 {
		t.Errorf("distinct constants: %s", rep)
	}
	if rep.LeakProbability < 0.99 {
		t.Errorf("distinct constants: leak probability %.3f, want ~1", rep.LeakProbability)
	}
	if math.Abs(rep.EffectCycles-20) > 1e-6 {
		t.Errorf("distinct constants: effect %.9f, want 20", rep.EffectCycles)
	}
}

func TestCompareQuantilesErrors(t *testing.T) {
	ok := make([]float64, 40)
	for i := range ok {
		ok[i] = float64(i)
	}
	if _, err := CompareQuantiles(ok[:5], ok, QuantileGateOptions{}); !errors.Is(err, ErrTooFew) {
		t.Errorf("tiny sample: want ErrTooFew, got %v", err)
	}
	bad := append([]float64(nil), ok...)
	bad[3] = math.NaN()
	if _, err := CompareQuantiles(bad, ok, QuantileGateOptions{}); !errors.Is(err, ErrDomain) {
		t.Errorf("NaN: want ErrDomain, got %v", err)
	}
	if _, err := CompareQuantiles(ok, ok, QuantileGateOptions{Alpha: 1.5}); !errors.Is(err, ErrDomain) {
		t.Errorf("alpha out of range: want ErrDomain, got %v", err)
	}
	if _, err := CompareQuantiles(ok, ok, QuantileGateOptions{Deciles: []float64{0.5, 2}}); !errors.Is(err, ErrDomain) {
		t.Errorf("decile out of range: want ErrDomain, got %v", err)
	}
	if _, err := CheckQuantileGate(ok[:20], QuantileGateOptions{}); !errors.Is(err, ErrTooFew) {
		t.Errorf("short series: want ErrTooFew, got %v", err)
	}
}

func TestCheckQuantileGateHalves(t *testing.T) {
	src := rng.NewXoroshiro128(12)
	xs := make([]float64, 800)
	for i := range xs {
		xs[i] = rng.Float64(src)
	}
	rep, err := CheckQuantileGate(xs, QuantileGateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Errorf("stationary series failed the gate: %s", rep)
	}
	if rep.NA != 400 || rep.NB != 400 {
		t.Errorf("halves %d/%d, want 400/400", rep.NA, rep.NB)
	}

	// Second half shifted: every decile differs.
	for i := 400; i < 800; i++ {
		xs[i] += 1
	}
	rep, err = CheckQuantileGate(xs, QuantileGateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Errorf("shifted second half passed the gate: %s", rep)
	}
}

func TestQuantileGateFingerprint(t *testing.T) {
	src := rng.NewXoroshiro128(13)
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = rng.Float64(src)
		b[i] = rng.Float64(src)
	}
	r1, err := CompareQuantiles(a, b, QuantileGateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CompareQuantiles(a, b, QuantileGateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint() != r2.Fingerprint() {
		t.Error("same inputs produced different fingerprints")
	}
	b[0] += 1e-9
	r3, err := CompareQuantiles(a, b, QuantileGateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint() == r3.Fingerprint() {
		t.Error("perturbed input produced an identical fingerprint")
	}
	if s := r1.String(); s == "" {
		t.Error("empty String()")
	}
}

// TestPooledBodySpreadMergeMatchesSortedPool pins the merged prior pool
// to the one built by appending both halves and sorting, bit for bit,
// on heavy ties, signed zeros and wide spreads.
func TestPooledBodySpreadMergeMatchesSortedPool(t *testing.T) {
	sortedPool := func(a, b []float64) float64 {
		pool := append(append([]float64(nil), a...), b...)
		sort.Float64s(pool)
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
	src := rng.NewXoroshiro128(9)
	negZero := math.Copysign(0, -1)
	draws := map[string]func() float64{
		"smooth":      func() float64 { return 1e5 + 1e3*rng.Float64(src) },
		"ties":        func() float64 { return float64(int(4 * rng.Float64(src))) },
		"signed-zero": func() float64 { return []float64{negZero, 0, 1}[int(3*rng.Float64(src))] },
		"wide":        func() float64 { return (rng.Float64(src) - 0.5) * 1e300 },
	}
	for name, draw := range draws {
		for _, n := range []int{1, 2, 17, 160} {
			a, b := make([]float64, n), make([]float64, n+n%3)
			for i := range a {
				a[i] = draw()
			}
			for i := range b {
				b[i] = draw()
			}
			sort.Float64s(a)
			sort.Float64s(b)
			got, want := pooledBodySpread(a, b), sortedPool(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s n=%d: merged pool spread %v, sorted pool %v", name, n, got, want)
			}
		}
	}
}
