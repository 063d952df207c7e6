package evt

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestSampleMatchesDistribution(t *testing.T) {
	g := Gumbel{Mu: 100, Beta: 10}
	src := rng.NewXoroshiro128(21)
	xs := g.Sample(src, 50000)
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if math.Abs(mean-g.Mean()) > 0.5 {
		t.Errorf("sample mean %.2f, want ~%.2f", mean, g.Mean())
	}
	// Empirical fraction above the 0.9 quantile should be ~0.1.
	q90, _ := g.Quantile(0.9)
	above := 0
	for _, x := range xs {
		if x > q90 {
			above++
		}
	}
	frac := float64(above) / float64(len(xs))
	if math.Abs(frac-0.1) > 0.01 {
		t.Errorf("fraction above q90 = %.4f", frac)
	}
}

func TestCRPSDistanceZeroForIdentical(t *testing.T) {
	g := Gumbel{Mu: 10, Beta: 2}
	d, err := CRPSDistance(g, g, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("self-distance = %g", d)
	}
}

func TestCRPSDistancePositiveAndSymmetric(t *testing.T) {
	a := Gumbel{Mu: 10, Beta: 2}
	b := Gumbel{Mu: 12, Beta: 2}
	d1, err := CRPSDistance(a, b, -10, 60)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := CRPSDistance(b, a, -10, 60)
	if d1 <= 0 {
		t.Errorf("distance = %g, want > 0", d1)
	}
	approx(t, "symmetry", d1, d2, 1e-12)
}

func TestCRPSDistanceBadRange(t *testing.T) {
	g := Gumbel{Mu: 0, Beta: 1}
	if _, err := CRPSDistance(g, g, 5, 5); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := CRPSDistance(g, g, math.NaN(), 1); err == nil {
		t.Error("NaN range accepted")
	}
}

func TestGumbelCRPSScalesWithSeparation(t *testing.T) {
	base := Gumbel{Mu: 1000, Beta: 20}
	near := Gumbel{Mu: 1001, Beta: 20}
	far := Gumbel{Mu: 1100, Beta: 20}
	dNear, err := GumbelCRPS(base, near)
	if err != nil {
		t.Fatal(err)
	}
	dFar, _ := GumbelCRPS(base, far)
	if dNear >= dFar {
		t.Errorf("near distance %g >= far distance %g", dNear, dFar)
	}
}

func TestGumbelCRPSInvalid(t *testing.T) {
	if _, err := GumbelCRPS(Gumbel{0, -1}, Gumbel{0, 1}); err == nil {
		t.Error("invalid Gumbel accepted")
	}
}

func TestConvergenceOnRealCampaign(t *testing.T) {
	// Simulated campaign: batches of 100 Gumbel samples; consecutive
	// refits should stay CRPS-close (< 1e-3 twice in a row, the MBPTA
	// criterion) well before 5,000 total runs and the final fit should
	// be close to truth.
	truth := Gumbel{Mu: 3000, Beta: 30}
	src := rng.NewXoroshiro128(2)
	var all, history []float64
	var prev *Gumbel
	converged := false
	batches, streak := 0, 0
	for batches = 0; batches < 50; batches++ {
		all = append(all, truth.Sample(src, 100)...)
		fit, err := FitGumbel(all, MethodPWM)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			d, err := GumbelCRPS(*prev, fit)
			if err != nil {
				t.Fatal(err)
			}
			history = append(history, d)
			if d < 1e-3 {
				streak++
			} else {
				streak = 0
			}
		}
		prev = &fit
		if streak >= 2 {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("no convergence in %d batches (history %v)", batches, history)
	}
	fit, _ := FitGumbel(all, MethodPWM)
	if math.Abs(fit.Mu-truth.Mu) > 10 || math.Abs(fit.Beta-truth.Beta) > 5 {
		t.Errorf("converged fit %v far from truth %v", fit, truth)
	}
}
