package evt

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Sample draws n Gumbel variates from src by inversion. Used by tests
// and by the synthetic-workload examples.
func (g Gumbel) Sample(src rng.Source, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		u := rng.Float64(src)
		// Guard against u == 0 (log of zero).
		for u == 0 {
			u = rng.Float64(src)
		}
		out[i] = g.Mu - g.Beta*math.Log(-math.Log(u))
	}
	return out
}

// CRPSDistance computes a continuous-rank-probability-style distance
// between two fitted tail models: the integral of |F1(x) - F2(x)| dx
// over a range covering both distributions, normalized by the location
// scale so the result is a dimensionless relative discrepancy. The
// ECRTS-2012 MBPTA process declares convergence when this distance
// between the fits of consecutive iterations falls below a small
// threshold (0.001); core.CRPSConverged and
// core.Analyzer.ConvergenceTrace implement that criterion.
func CRPSDistance(a, b TailModel, lo, hi float64) (float64, error) {
	if !(hi > lo) || math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, fmt.Errorf("%w: integration range [%g,%g]", ErrBadParam, lo, hi)
	}
	const steps = 2048
	h := (hi - lo) / steps
	sum := 0.0
	for i := 0; i <= steps; i++ {
		x := lo + float64(i)*h
		w := 1.0
		if i == 0 || i == steps {
			w = 0.5
		}
		sum += w * math.Abs(a.SF(x)-b.SF(x))
	}
	scale := math.Abs(lo) + math.Abs(hi)
	if scale == 0 {
		scale = 1
	}
	return sum * h / scale * 2, nil
}

// GumbelCRPS computes the normalized CRPS distance between two Gumbel
// fits over their joint effective support (quantiles 1e-4 .. 1-1e-9).
func GumbelCRPS(a, b Gumbel) (float64, error) {
	if !a.Valid() || !b.Valid() {
		return 0, fmt.Errorf("%w: invalid Gumbel parameters", ErrBadParam)
	}
	aLo, _ := a.Quantile(1e-4)
	bLo, _ := b.Quantile(1e-4)
	aHi, _ := a.QuantileSF(1e-9)
	bHi, _ := b.QuantileSF(1e-9)
	lo, hi := math.Min(aLo, bLo), math.Max(aHi, bHi)
	return CRPSDistance(a, b, lo, hi)
}
