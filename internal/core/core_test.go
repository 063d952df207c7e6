package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/evt"
	"repro/internal/rng"
)

// gumbelSeries draws an i.i.d. series whose per-run distribution is a
// known Gumbel, so the analyzer's per-run projection can be checked
// against ground truth.
func gumbelSeries(seed uint64, n int, g evt.Gumbel) []float64 {
	src := rng.NewXoroshiro128(seed)
	return g.Sample(src, n)
}

func TestOptionsDefaults(t *testing.T) {
	a := NewAnalyzer(Options{})
	o := a.Options()
	if o.Alpha != 0.05 || o.BlockSize != 50 || o.FitMethod != evt.MethodPWM {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.TailXiMax != 0.05 || o.MinPathRuns != 250 {
		t.Errorf("defaults wrong: %+v", o)
	}
	// MinPathRuns tracks a custom block size.
	if got := NewAnalyzer(Options{BlockSize: 20}).Options().MinPathRuns; got != 100 {
		t.Errorf("MinPathRuns with block 20 = %d, want 100", got)
	}
}

func TestAnalyzeRecoversKnownTail(t *testing.T) {
	truth := evt.Gumbel{Mu: 10000, Beta: 120}
	times := gumbelSeries(5, 3000, truth)
	res, err := NewAnalyzer(Options{}).Analyze(times)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 1 {
		t.Fatalf("%d paths", len(res.Paths))
	}
	p := res.Paths[0]
	if !p.IID.Pass {
		t.Errorf("i.i.d. gate failed on i.i.d. input:\n%s", p.IID)
	}
	if p.Maxima != 60 {
		t.Errorf("maxima = %d, want 60", p.Maxima)
	}
	// The per-run tail at q=1e-3 should be near the true quantile.
	want, _ := truth.QuantileSF(1e-3)
	got, err := res.PWCET(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("pWCET(1e-3) = %.0f, truth %.0f", got, want)
	}
	// Deep extrapolation stays finite and ordered.
	q6, _ := res.PWCET(1e-6)
	q12, _ := res.PWCET(1e-12)
	q15, _ := res.PWCET(1e-15)
	if !(got < q6 && q6 < q12 && q12 < q15) {
		t.Errorf("pWCET not increasing: %v %v %v %v", got, q6, q12, q15)
	}
	if math.IsInf(q15, 0) || math.IsNaN(q15) {
		t.Errorf("pWCET(1e-15) = %v", q15)
	}
}

func TestPWCETUpperBoundsObservations(t *testing.T) {
	// Figure 2's property: the projected curve tightly upper-bounds the
	// observed tail. The pWCET at 1/N should be >= ~the observed max,
	// and the projection at the observed max should not be vanishing.
	times := gumbelSeries(9, 3000, evt.Gumbel{Mu: 5000, Beta: 80})
	res, err := NewAnalyzer(Options{}).Analyze(times)
	if err != nil {
		t.Fatal(err)
	}
	hwm := 0.0
	for _, v := range times {
		if v > hwm {
			hwm = v
		}
	}
	q, _ := res.PWCET(1.0 / 3000)
	if q < hwm*0.98 {
		t.Errorf("pWCET(1/N) = %.0f far below HWM %.0f", q, hwm)
	}
	if sf := res.ExceedanceAt(hwm); sf < 1e-5 {
		t.Errorf("projected exceedance at HWM = %g; tail does not cover observations", sf)
	}
}

func TestAnalyzeRejectsAutocorrelated(t *testing.T) {
	// A strongly autocorrelated series must fail the gate.
	src := rng.NewXoroshiro128(3)
	times := make([]float64, 2000)
	prev := 0.0
	for i := range times {
		prev = 0.9*prev + rng.Float64(src)
		times[i] = 1000 + 100*prev
	}
	_, err := NewAnalyzer(Options{}).Analyze(times)
	if !errors.Is(err, ErrIIDRejected) {
		t.Errorf("err = %v, want ErrIIDRejected", err)
	}
	// With AllowIIDFailure the result is returned with the gate marked.
	res, err := NewAnalyzer(Options{AllowIIDFailure: true}).Analyze(times)
	if err != nil {
		t.Fatalf("AllowIIDFailure: %v", err)
	}
	if res.IIDPass() {
		t.Error("gate marked as passed on autocorrelated input")
	}
}

func TestAnalyzeRejectsHeavyTail(t *testing.T) {
	// Fréchet-distributed times (xi=0.4) must trip the shape check.
	src := rng.NewXoroshiro128(8)
	gev := evt.GEV{Xi: 0.4, Mu: 1000, Sigma: 50}
	times := make([]float64, 3000)
	for i := range times {
		u := rng.Float64(src)
		for u == 0 {
			u = rng.Float64(src)
		}
		x, err := gev.Quantile(u)
		if err != nil {
			t.Fatal(err)
		}
		times[i] = x
	}
	_, err := NewAnalyzer(Options{}).Analyze(times)
	if !errors.Is(err, ErrHeavyTail) {
		t.Errorf("err = %v, want ErrHeavyTail", err)
	}
	// Disabling the check with NaN accepts the fit.
	if _, err := NewAnalyzer(Options{TailXiMax: math.NaN()}).Analyze(times); err != nil {
		t.Errorf("disabled check still failed: %v", err)
	}
}

func TestAnalyzeInsufficientData(t *testing.T) {
	times := gumbelSeries(1, 100, evt.Gumbel{Mu: 10, Beta: 1})
	_, err := NewAnalyzer(Options{}).Analyze(times) // 100 < 5*50
	if !errors.Is(err, ErrInsufficient) {
		t.Errorf("err = %v, want ErrInsufficient", err)
	}
	if _, err := NewAnalyzer(Options{}).AnalyzeByPath(nil); !errors.Is(err, ErrInsufficient) {
		t.Errorf("empty map err = %v", err)
	}
}

func TestPerRunTailConsistency(t *testing.T) {
	tail := PerRunTail{Block: evt.Gumbel{Mu: 1000, Beta: 20}, B: 50}
	for _, q := range []float64{1e-15, 1e-9, 1e-6, 1e-3, 0.01} {
		x, err := tail.QuantileSF(q)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(tail.SF(x)-q) / q
		if rel > 1e-6 {
			t.Errorf("q=%g: SF(QSF(q)) rel err %g", q, rel)
		}
	}
	if _, err := tail.QuantileSF(0); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := tail.QuantileSF(1); err == nil {
		t.Error("q=1 accepted")
	}
}

func TestPerRunTailMatchesBlockScaling(t *testing.T) {
	// For small q, per-run SF at x should be ~ SF_block(x)/B.
	tail := PerRunTail{Block: evt.Gumbel{Mu: 1000, Beta: 20}, B: 50}
	x, _ := tail.Block.QuantileSF(1e-6)
	perRun := tail.SF(x)
	want := 1e-6 / 50
	if math.Abs(perRun-want)/want > 0.01 {
		t.Errorf("per-run SF = %g, want ~%g", perRun, want)
	}
}

func TestAnalyzeByPathTakesMaxAcrossPaths(t *testing.T) {
	fast := gumbelSeries(11, 2000, evt.Gumbel{Mu: 1000, Beta: 10})
	slow := gumbelSeries(12, 2000, evt.Gumbel{Mu: 2000, Beta: 30})
	res, err := NewAnalyzer(Options{}).AnalyzeByPath(map[string][]float64{
		"fast": fast, "slow": slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("%d paths", len(res.Paths))
	}
	q, err := res.PWCET(1e-9)
	if err != nil {
		t.Fatal(err)
	}
	slowOnly, _ := NewAnalyzer(Options{}).Analyze(slow)
	qs, _ := slowOnly.PWCET(1e-9)
	if math.Abs(q-qs)/qs > 0.01 {
		t.Errorf("cross-path pWCET %.0f != slow-path pWCET %.0f", q, qs)
	}
}

func TestAnalyzeByPathPoolsSmallPaths(t *testing.T) {
	big := gumbelSeries(13, 2000, evt.Gumbel{Mu: 1000, Beta: 10})
	tinyA := gumbelSeries(14, 150, evt.Gumbel{Mu: 1100, Beta: 10})
	tinyB := gumbelSeries(15, 149, evt.Gumbel{Mu: 1100, Beta: 10})
	res, err := NewAnalyzer(Options{MinPathRuns: 250}).AnalyzeByPath(map[string][]float64{
		"big": big, "a": tinyA, "b": tinyB,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawPooled bool
	for _, p := range res.Paths {
		if p.Pooled {
			sawPooled = true
			if p.N != 299 {
				t.Errorf("pooled N = %d, want 299", p.N)
			}
		}
	}
	if !sawPooled {
		t.Error("no pooled path produced")
	}
}

func TestAnalyzeByPathSmallPathHWMFloor(t *testing.T) {
	// A handful of runs below MinPathRuns that do not reach the
	// threshold even pooled become HWM floors: their extremes still
	// dominate pWCET queries, and the result is flagged incomplete.
	big := gumbelSeries(16, 2000, evt.Gumbel{Mu: 1000, Beta: 10})
	straggler := []float64{5000, 5100, 5200} // extreme observations
	res, err := NewAnalyzer(Options{}).AnalyzeByPath(map[string][]float64{
		"big": big, "rare": straggler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 1 {
		t.Fatalf("%d fitted paths, want 1", len(res.Paths))
	}
	if !res.Incomplete() || len(res.SmallPaths) != 1 {
		t.Fatalf("small paths = %+v", res.SmallPaths)
	}
	if res.SmallPaths[0].HWM != 5200 || res.SmallPaths[0].N != 3 {
		t.Errorf("small path %+v", res.SmallPaths[0])
	}
	// The rare path's HWM must floor shallow pWCET queries (the fitted
	// big-path tail at 1e-3 is far below 5200).
	q, err := res.PWCET(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if q < 5200 {
		t.Errorf("pWCET(1e-3) = %.0f, want >= 5200 (HWM floor)", q)
	}
}

func TestResultCompleteWithoutSmallPaths(t *testing.T) {
	times := gumbelSeries(17, 1000, evt.Gumbel{Mu: 1000, Beta: 10})
	res, err := NewAnalyzer(Options{}).Analyze(times)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete() {
		t.Error("single-path analysis flagged incomplete")
	}
}

func TestCurve(t *testing.T) {
	times := gumbelSeries(21, 3000, evt.Gumbel{Mu: 1000, Beta: 15})
	res, err := NewAnalyzer(Options{}).Analyze(times)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := res.Curve(900, 1400, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 50 {
		t.Fatalf("%d points", len(pts))
	}
	// Projected exceedance decreases along the curve and upper-bounds
	// the observed tail at high times.
	for i := 1; i < len(pts); i++ {
		if pts[i].Projected > pts[i-1].Projected+1e-12 {
			t.Fatalf("projected not monotone at %d", i)
		}
	}
	for _, pt := range pts {
		if pt.Time > res.Paths[0].Summary.P99 && pt.Observed > 0 {
			if pt.Projected < pt.Observed*0.3 {
				t.Errorf("projection %g far below observed %g at t=%g",
					pt.Projected, pt.Observed, pt.Time)
			}
		}
	}
	if _, err := res.Curve(10, 10, 5); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := res.Curve(0, 10, 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestConvergenceTrace(t *testing.T) {
	times := gumbelSeries(31, 5000, evt.Gumbel{Mu: 3000, Beta: 40})
	a := NewAnalyzer(Options{})
	trace, stopAt, err := a.ConvergenceTrace(times, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	if stopAt == 0 {
		t.Fatal("campaign never converged on stationary data")
	}
	if stopAt > 5000 {
		t.Errorf("stopAt = %d", stopAt)
	}
	// The trace's final fit models the per-block maximum: the max of
	// B=50 draws of Gumbel(mu, beta) is Gumbel(mu + beta ln B, beta).
	last := trace[len(trace)-1]
	wantMu := 3000 + 40*math.Log(50)
	if math.Abs(last.Fit.Mu-wantMu) > wantMu*0.02 {
		t.Errorf("final fit mu = %v, want ~%v", last.Fit.Mu, wantMu)
	}
	if math.Abs(last.Fit.Beta-40) > 10 {
		t.Errorf("final fit beta = %v, want ~40", last.Fit.Beta)
	}
	if _, _, err := a.ConvergenceTrace(times, 10); err == nil {
		t.Error("batch < block size accepted")
	}
}

// shiftedSeries is a stationary Gumbel prefix of shiftAt runs followed
// by 1000 runs whose location jumps by 600 cycles.
func shiftedSeries(shiftAt int) []float64 {
	times := gumbelSeries(31, shiftAt, evt.Gumbel{Mu: 3000, Beta: 40})
	return append(times, gumbelSeries(32, 1000, evt.Gumbel{Mu: 3600, Beta: 40})...)
}

// TestConvergenceTraceStableFits: the trace's own criterion needs two
// consecutive CRPS-close refits. A stationary prefix converges, and no
// point is marked done before such a pair.
func TestConvergenceTraceStableFits(t *testing.T) {
	const shiftAt = 2500
	trace, stopAt, err := NewAnalyzer(Options{}).ConvergenceTrace(shiftedSeries(shiftAt), 250)
	if err != nil {
		t.Fatal(err)
	}
	if stopAt == 0 || stopAt >= shiftAt {
		t.Fatalf("stopAt = %d, want convergence on the stationary prefix (< %d)", stopAt, shiftAt)
	}
	for i, pt := range trace {
		if !pt.Done {
			continue
		}
		if i < 2 || !(pt.Distance < 1e-3 && trace[i-1].Distance < 1e-3) {
			t.Errorf("runs %d: done without two consecutive close refits", pt.Runs)
		}
	}
}

// TestConvergenceTraceResetsStreakOnJump: a jump in the series resets
// the streak; the first refit after a level shift is far from its
// predecessor and not done.
func TestConvergenceTraceResetsStreakOnJump(t *testing.T) {
	const shiftAt = 2500
	trace, _, err := NewAnalyzer(Options{}).ConvergenceTrace(shiftedSeries(shiftAt), 250)
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, pt := range trace {
		if pt.Runs != shiftAt+250 {
			continue
		}
		seen = true
		if pt.Done || pt.Distance < 1e-3 {
			t.Errorf("first refit after the shift: distance %v, done %v; want a reset streak", pt.Distance, pt.Done)
		}
	}
	if !seen {
		t.Fatalf("no trace point at runs %d", shiftAt+250)
	}
}

func TestResultEmptyPWCET(t *testing.T) {
	r := &Result{}
	if _, err := r.PWCET(1e-6); !errors.Is(err, ErrInsufficient) {
		t.Error("empty result PWCET succeeded")
	}
}

func TestPerRunTailString(t *testing.T) {
	s := PerRunTail{Block: evt.Gumbel{Mu: 1, Beta: 2}, B: 50}.String()
	if s == "" {
		t.Error("empty String")
	}
}

func TestGoFDiagnosticOnGumbelData(t *testing.T) {
	times := gumbelSeries(71, 3000, evt.Gumbel{Mu: 1000, Beta: 25})
	res, err := NewAnalyzer(Options{}).Analyze(times)
	if err != nil {
		t.Fatal(err)
	}
	gof := res.Paths[0].GoF
	if gof.Name == "" {
		t.Fatal("no goodness-of-fit diagnostic recorded")
	}
	// Genuine Gumbel maxima against their own fit: the diagnostic
	// should not scream (p not minuscule). With estimated parameters
	// the case-0 p-value is conservative toward acceptance.
	if gof.PValue < 0.01 {
		t.Errorf("GoF p = %.4f on well-specified data", gof.PValue)
	}
}
