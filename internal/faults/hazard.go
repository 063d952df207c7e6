package faults

import (
	"fmt"
	"math"
)

// HazardKind selects the shape of the time-varying upset-rate profile.
type HazardKind string

// Hazard profiles. The zero value (or "constant") reproduces the
// original fixed Poisson rate bit-for-bit.
const (
	HazardConstant HazardKind = "constant"
	HazardWeibull  HazardKind = "weibull"
	HazardOrbit    HazardKind = "orbit"
)

// Hazard generalizes the constant per-run Poisson rate to a
// time-varying profile: run i's expected upset count is
// Rate * Weight(i), where Weight is the discretized hazard function,
// normalized to mean 1 over its window so rate-equivalent configs see
// the same total upset flux regardless of shape. The weight is a pure
// function of the run index — the per-run Poisson draw still comes from
// the run seed through the injector's PRNG stream, so campaigns stay
// reproducible and resumable.
//
// The zero value is the constant profile: Weight(i) == 1 exactly, and
// the injector's draw sequence is bit-identical to a config without a
// hazard.
type Hazard struct {
	// Kind selects the profile: "" or "constant" (fixed rate),
	// "weibull" (wear-out: the classic bathtub edge, rate grows as a
	// power of mission time), "orbit" (periodic orbit-phase modulation,
	// e.g. South Atlantic Anomaly passes).
	Kind HazardKind `json:"kind,omitempty"`

	// Shape is the Weibull shape parameter beta (default 2): beta > 1
	// models wear-out, beta < 1 infant mortality, beta == 1 degenerates
	// to the constant profile.
	Shape float64 `json:"shape,omitempty"`
	// MissionRuns is the Weibull normalization window in runs (default
	// 3000, the paper's campaign size): the mean weight over runs
	// [0, MissionRuns) is 1. Runs past the window see the end-of-window
	// rate.
	MissionRuns int `json:"mission_runs,omitempty"`

	// Period is the orbit profile's period in runs (default 500).
	Period int `json:"period,omitempty"`
	// Amplitude is the orbit profile's modulation depth in [0, 1)
	// (default 0.9): the rate swings between Rate*(1-A) and Rate*(1+A).
	Amplitude float64 `json:"amplitude,omitempty"`
}

// Hazard defaults.
const (
	defaultWeibullShape   = 2.0
	defaultMissionRuns    = 3000
	defaultOrbitPeriod    = 500
	defaultOrbitAmplitude = 0.9
)

// normalize applies defaults and validates; the returned hazard is what
// the injector stores.
func (h Hazard) normalize() (Hazard, error) {
	switch h.Kind {
	case "", HazardConstant:
		h.Kind = HazardConstant
	case HazardWeibull:
		if h.Shape == 0 {
			h.Shape = defaultWeibullShape
		}
		if !(h.Shape > 0) || math.IsInf(h.Shape, 0) {
			return h, fmt.Errorf("faults: weibull shape %g must be finite and > 0", h.Shape)
		}
		if h.MissionRuns == 0 {
			h.MissionRuns = defaultMissionRuns
		}
		if h.MissionRuns < 1 {
			return h, fmt.Errorf("faults: weibull mission window %d runs < 1", h.MissionRuns)
		}
	case HazardOrbit:
		if h.Period == 0 {
			h.Period = defaultOrbitPeriod
		}
		if h.Period < 2 {
			return h, fmt.Errorf("faults: orbit period %d runs < 2", h.Period)
		}
		if h.Amplitude == 0 {
			h.Amplitude = defaultOrbitAmplitude
		}
		if h.Amplitude < 0 || h.Amplitude >= 1 || math.IsNaN(h.Amplitude) {
			return h, fmt.Errorf("faults: orbit amplitude %g must be in [0, 1)", h.Amplitude)
		}
	default:
		return h, fmt.Errorf("faults: unknown hazard kind %q (have constant, weibull, orbit)", h.Kind)
	}
	return h, nil
}

// Validate checks the configuration (spec-level use, e.g. matrix
// expansion) without applying defaults.
func (h Hazard) Validate() error {
	_, err := h.normalize()
	return err
}

// Weight is the hazard function evaluated at run index i (midpoint
// rule), normalized to mean 1 over the profile's window. Constant
// returns exactly 1 so the scaled rate is bit-identical to the base
// rate.
func (h Hazard) Weight(run int) float64 {
	if run < 0 {
		run = 0
	}
	switch h.Kind {
	case HazardWeibull:
		// Weibull hazard h(t) = beta * t^(beta-1) on t in (0, 1],
		// mission time normalized so the mean over the window is 1.
		// Runs past the window hold the end-of-window value — the
		// mission is over, and an unclamped power overflows to +Inf for
		// steep shapes.
		t := (float64(run) + 0.5) / float64(h.MissionRuns)
		if t > 1 {
			t = 1
		}
		return h.Shape * math.Pow(t, h.Shape-1)
	case HazardOrbit:
		// Sinusoidal orbit-phase modulation with mean 1 per period.
		phase := 2 * math.Pi * (float64(run) + 0.5) / float64(h.Period)
		return 1 + h.Amplitude*math.Sin(phase)
	default:
		return 1
	}
}

// RateAt returns the expected upset count of run i: the base rate
// scaled by the hazard weight. The constant profile returns base
// unchanged (exact, not merely close), preserving bit-identity with
// hazard-free configs.
func (h Hazard) RateAt(base float64, run int) float64 {
	if h.Kind == HazardConstant || h.Kind == "" {
		return base
	}
	return base * h.Weight(run)
}

// label is the hazard's compact axis identifier.
func (h Hazard) label() string {
	if h.Kind == "" {
		return string(HazardConstant)
	}
	return string(h.Kind)
}

// String returns the hazard's kind label ("constant", "weibull",
// "orbit").
func (h Hazard) String() string { return h.label() }

// ParseHazard resolves a hazard kind name (as given on -hazard flags)
// to a Hazard with that kind's defaults. Empty and "constant" both
// yield the zero-value constant profile.
func ParseHazard(s string) (Hazard, error) {
	switch HazardKind(s) {
	case "", HazardConstant:
		return Hazard{}, nil
	case HazardWeibull:
		return Hazard{Kind: HazardWeibull}, nil
	case HazardOrbit:
		return Hazard{Kind: HazardOrbit}, nil
	}
	return Hazard{}, fmt.Errorf("faults: unknown hazard %q (have constant, weibull, orbit)", s)
}
