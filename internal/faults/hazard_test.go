package faults

import (
	"math"
	"testing"

	"repro/internal/platform"
)

func TestHazardConstantIsExact(t *testing.T) {
	// Bit-identity hinges on the constant profile returning the base
	// rate unchanged — not rate*1.0, which could differ in the last ulp.
	for _, h := range []Hazard{{}, {Kind: HazardConstant}} {
		hn, err := h.normalize()
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []float64{0, 0.25, 1.7, 1e-9} {
			for _, run := range []int{0, 1, 999, 1 << 20} {
				if got := hn.RateAt(base, run); got != base {
					t.Fatalf("constant RateAt(%g, %d) = %g", base, run, got)
				}
			}
		}
	}
}

func TestHazardWeightsMeanOne(t *testing.T) {
	// Both time-varying profiles are normalized to mean 1 over their
	// window, so the expected total upset count matches the constant
	// profile's — the hazard reshapes when upsets land, not how many.
	cases := []struct {
		name string
		h    Hazard
		n    int
	}{
		{"weibull", Hazard{Kind: HazardWeibull}, defaultMissionRuns},
		{"weibull-steep", Hazard{Kind: HazardWeibull, Shape: 4}, defaultMissionRuns},
		{"orbit", Hazard{Kind: HazardOrbit}, defaultOrbitPeriod},
	}
	for _, tc := range cases {
		h, err := tc.h.normalize()
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i := 0; i < tc.n; i++ {
			w := h.Weight(i)
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("%s: weight(%d) = %g", tc.name, i, w)
			}
			sum += w
		}
		if mean := sum / float64(tc.n); math.Abs(mean-1) > 0.01 {
			t.Errorf("%s: mean weight %.4f, want ~1", tc.name, mean)
		}
	}
}

func TestHazardWeibullWearOutMonotone(t *testing.T) {
	h, err := Hazard{Kind: HazardWeibull}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	// Shape 2 is increasing wear-out: late mission runs see higher rates.
	prev := -1.0
	for i := 0; i < h.MissionRuns; i += 100 {
		w := h.Weight(i)
		if w <= prev {
			t.Fatalf("weight not increasing at run %d: %g <= %g", i, w, prev)
		}
		prev = w
	}
}

func TestHazardOrbitPeriodic(t *testing.T) {
	h, err := Hazard{Kind: HazardOrbit, Period: 100, Amplitude: 0.5}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a, b := h.Weight(i), h.Weight(i+100); math.Abs(a-b) > 1e-12 {
			t.Fatalf("weight(%d)=%g vs weight(%d)=%g", i, a, i+100, b)
		}
	}
	// The swing stays inside [1-A, 1+A].
	for i := 0; i < 100; i++ {
		if w := h.Weight(i); w < 0.5-1e-12 || w > 1.5+1e-12 {
			t.Fatalf("weight(%d) = %g outside [0.5, 1.5]", i, w)
		}
	}
}

func TestHazardCampaignDeterministic(t *testing.T) {
	mk := func() *Summary {
		in, err := New(Config{Rate: 1, Hazard: Hazard{Kind: HazardWeibull, MissionRuns: 30}})
		if err != nil {
			t.Fatal(err)
		}
		s := Summarize(streamWith(t, in.NewBoard(platform.RAND()), 30).Results)
		return &s
	}
	a, b := mk(), mk()
	if a.Injected != b.Injected || a.Clean != b.Clean {
		t.Fatalf("hazard campaign not reproducible: %+v vs %+v", a, b)
	}
	if a.Injected == 0 {
		t.Fatal("weibull hazard injected nothing at rate 1")
	}
}

func TestHazardLabels(t *testing.T) {
	for s, kind := range map[string]HazardKind{
		"constant": HazardConstant, "weibull": HazardWeibull, "orbit": HazardOrbit,
	} {
		h, err := ParseHazard(s)
		if err != nil {
			t.Fatal(err)
		}
		want := s
		if kind == HazardConstant {
			// The zero value labels itself constant.
			h = Hazard{}
		}
		if h.String() != want {
			t.Errorf("String() = %q, want %q", h.String(), want)
		}
	}
}
