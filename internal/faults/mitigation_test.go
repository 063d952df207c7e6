package faults

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/rng"
)

func TestMitigationValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Rate: 1, Mitigation: Mitigation{Kind: "tmr"}},
		{Rate: 1, Mitigation: Mitigation{Kind: MitigationLockstep, Replicas: 1}},
		{Rate: 1, Hazard: Hazard{Kind: "solar-flare"}},
		{Rate: 1, Hazard: Hazard{Kind: HazardWeibull, Shape: -1}},
		{Rate: 1, Hazard: Hazard{Kind: HazardOrbit, Amplitude: 1.5}},
		{Rate: 1, Targets: []Target{TargetIL1, TargetIL1}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	// Defaults land on every enabled kind.
	in, err := New(Config{Rate: 1, Mitigation: Mitigation{Kind: MitigationLockstep}})
	if err != nil {
		t.Fatal(err)
	}
	m := in.cfg.Mitigation
	if m.Replicas != defaultReplicas || m.VoteCost != defaultVoteCost {
		t.Errorf("lockstep defaults not applied: %+v", m)
	}
}

func TestDuplicateTargetsRejected(t *testing.T) {
	_, err := New(Config{Rate: 1, Targets: []Target{TargetDL1, TargetIntReg, TargetDL1}})
	if err == nil || !strings.Contains(err.Error(), "duplicate target") {
		t.Fatalf("duplicate targets accepted (err %v)", err)
	}
}

func TestMitigatedOutcomePredicate(t *testing.T) {
	for _, o := range MitigatedOutcomes() {
		if !platform.MitigatedOutcome(o) {
			t.Errorf("platform.MitigatedOutcome(%q) = false", o)
		}
		if (platform.RunResult{Outcome: o}).Quarantined() {
			t.Errorf("mitigated outcome %q quarantines", o)
		}
	}
	for _, o := range append(Outcomes(), "") {
		if platform.MitigatedOutcome(o) {
			t.Errorf("platform.MitigatedOutcome(%q) = true", o)
		}
	}
}

// TestMitigatedCampaignGoldens pins the full outcome taxonomy of one
// 60-run rate-2 campaign (base seed 11) per mitigation kind. The exact
// counts are part of the determinism contract: a drift here means the
// fault schedule, the mitigation semantics, or the classification
// changed.
func TestMitigatedCampaignGoldens(t *testing.T) {
	const runs = 60
	cases := []struct {
		kind        MitigationKind
		clean       int
		mitigated   map[string]int
		quarantined map[string]int
	}{
		{MitigationScrub, 26,
			map[string]int{OutcomeScrubbed: 19},
			map[string]int{OutcomeMasked: 25, OutcomeTimingPerturbed: 5, OutcomeWrongOutput: 4}},
		{MitigationECC, 26,
			map[string]int{OutcomeCorrected: 19},
			map[string]int{OutcomeMasked: 30, OutcomeWrongOutput: 4}},
		{MitigationLockstep, 60,
			map[string]int{OutcomeVoted: 53},
			map[string]int{}},
	}
	for _, tc := range cases {
		t.Run(string(tc.kind), func(t *testing.T) {
			in, err := New(Config{Rate: 2, Mitigation: Mitigation{Kind: tc.kind}})
			if err != nil {
				t.Fatal(err)
			}
			s := Summarize(streamWith(t, in.NewBoard(platform.RAND()), runs).Results)
			if s.Total != runs || s.Injected != 110 {
				t.Errorf("total %d, injected %d; want %d and 110", s.Total, s.Injected, runs)
			}
			if s.Clean != tc.clean {
				t.Errorf("clean = %d, want %d", s.Clean, tc.clean)
			}
			if !reflect.DeepEqual(s.Mitigated, tc.mitigated) {
				t.Errorf("mitigated = %v, want %v", s.Mitigated, tc.mitigated)
			}
			if !reflect.DeepEqual(s.ByOutcome, tc.quarantined) {
				t.Errorf("quarantined = %v, want %v", s.ByOutcome, tc.quarantined)
			}
		})
	}
}

// TestLockstepNeverQuarantines is lockstep's defining property across a
// whole campaign: majority voting recovers every injected run.
func TestLockstepNeverQuarantines(t *testing.T) {
	in, err := New(Config{Rate: 3, Mitigation: Mitigation{Kind: MitigationLockstep}})
	if err != nil {
		t.Fatal(err)
	}
	c := streamWith(t, in.NewBoard(platform.RAND()), 30)
	for i, r := range c.Results {
		if r.Quarantined() {
			t.Errorf("run %d quarantined with outcome %q under lockstep", i, r.Outcome)
		}
	}
}

// TestECCSingleBitNeverQuarantined is the ECC property test: any fault
// plan made solely of single-bit upsets to distinct cache/TLB cells is
// fully corrected — outcome "corrected", never quarantined, timing the
// clean baseline plus the per-correction latency.
func TestECCSingleBitNeverQuarantined(t *testing.T) {
	p, err := platform.New(platform.DET())
	if err != nil {
		t.Fatal(err)
	}
	w := checkedWorkload{}
	base, err := p.ExecuteRun(context.Background(), w, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(Config{Rate: 1, Mitigation: Mitigation{Kind: MitigationECC}})
	if err != nil {
		t.Fatal(err)
	}
	arrays := []Target{TargetIL1, TargetDL1, TargetITLB, TargetDTLB}
	src := rng.NewSplitMix64(99)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(src, 5)
		plan := make([]Fault, 0, n)
		seen := make(map[[3]int]bool)
		for len(plan) < n {
			ti := rng.Intn(src, len(arrays))
			set, way := rng.Intn(src, 8), rng.Intn(src, 2)
			if seen[[3]int{ti, set, way}] {
				continue // distinct cells only: that is the single-bit premise
			}
			seen[[3]int{ti, set, way}] = true
			plan = append(plan, Fault{
				Step:   uint64(rng.Intn(src, int(base.Instructions))),
				Target: arrays[ti],
				Set:    set, Way: way,
				Bit: rng.Intn(src, 65),
			})
		}
		res, err := in.eccRun(context.Background(), p, w, 0, 1, base, plan)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Outcome != OutcomeCorrected {
			t.Fatalf("trial %d: outcome %q, want %q (plan %+v)", trial, res.Outcome, OutcomeCorrected, plan)
		}
		if res.Quarantined() {
			t.Fatalf("trial %d: corrected run quarantined", trial)
		}
		want := base.Cycles + uint64(len(plan))*in.cfg.Mitigation.ECCLatency
		if res.Cycles != want {
			t.Errorf("trial %d: cycles %d, want base %d + %d corrections", trial, res.Cycles, base.Cycles, len(plan))
		}
	}
}

// TestECCDoubleBitEscalates: two upsets in the same cell defeat SECDED
// and the run falls back to the base taxonomy.
func TestECCDoubleBitEscalates(t *testing.T) {
	p, err := platform.New(platform.DET())
	if err != nil {
		t.Fatal(err)
	}
	w := checkedWorkload{}
	base, err := p.ExecuteRun(context.Background(), w, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(Config{Rate: 1, Mitigation: Mitigation{Kind: MitigationECC}})
	if err != nil {
		t.Fatal(err)
	}
	plan := []Fault{
		{Step: 1, Target: TargetDL1, Set: 3, Way: 0, Bit: 2},
		{Step: 2, Target: TargetDL1, Set: 3, Way: 0, Bit: 7},
	}
	res, err := in.eccRun(context.Background(), p, w, 0, 1, base, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == OutcomeCorrected {
		t.Fatalf("double-bit upset reported corrected")
	}
	if res.Faults != len(plan) {
		t.Errorf("faults = %d, want %d", res.Faults, len(plan))
	}
}

func TestScrubOverheadDeterministic(t *testing.T) {
	m := Mitigation{Kind: MitigationScrub, ScrubInterval: 100, ScrubCost: 10}
	if got := scrubOverhead(m, 1000); got != 100 {
		t.Errorf("scrubOverhead = %d, want 100", got)
	}
	// Clean (zero-draw) runs pay the scrub traffic too — the scrubber
	// walks the arrays whether or not an upset landed.
	in, err := New(Config{Rate: 1, Mitigation: m})
	if err != nil {
		t.Fatal(err)
	}
	res := in.cleanOverhead(platform.RunResult{Cycles: 500, Instructions: 1000})
	if res.Cycles != 600 {
		t.Errorf("clean scrubbed run cycles = %d, want 600", res.Cycles)
	}
	if res.Outcome != "" {
		t.Errorf("clean run outcome %q", res.Outcome)
	}
}

func TestLockstepCleanOverhead(t *testing.T) {
	in, err := New(Config{Rate: 1, Mitigation: Mitigation{Kind: MitigationLockstep, Replicas: 3, VoteCost: 50}})
	if err != nil {
		t.Fatal(err)
	}
	res := in.cleanOverhead(platform.RunResult{Cycles: 200})
	if res.Cycles != 3*200+50 {
		t.Errorf("clean lockstep run cycles = %d, want %d", res.Cycles, 3*200+50)
	}
}

// maxSource always returns the largest 64-bit value, so rng.Float64
// yields ~1.0 and Knuth's product never decays — the pathological draw
// that actually reaches the per-run fault cap.
type maxSource struct{}

func (maxSource) Uint64() uint64 { return math.MaxUint64 }
func (maxSource) Seed(uint64)    {}

// TestClampSurfaced: a draw that hits the per-run fault cap is
// reported, counted, and rendered — not silently truncated.
func TestClampSurfaced(t *testing.T) {
	k, clamped := poisson(maxSource{}, 10, maxFaultsPerRun)
	if !clamped || k != maxFaultsPerRun {
		t.Fatalf("pathological draw: k=%d clamped=%v, want %d and true", k, clamped, maxFaultsPerRun)
	}
	// Ordinary rates never clamp.
	if _, clamped := poisson(rng.NewSplitMix64(5), 3, maxFaultsPerRun); clamped {
		t.Error("rate-3 draw clamped")
	}
	s := Summary{Total: 4, Clean: 4, ClampedRuns: 2}
	if !strings.Contains(s.String(), "2 runs clamped at the fault cap") {
		t.Errorf("summary does not surface the clamp: %q", s.String())
	}
	in, err := New(Config{Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := in.ClampedRuns(1, 200); n != 0 {
		t.Errorf("rate-1 campaign reports %d clamped runs", n)
	}
}

func TestParseMitigationAndHazard(t *testing.T) {
	if _, err := ParseMitigation("rad-hard"); err == nil {
		t.Error("unknown mitigation parsed")
	}
	if _, err := ParseHazard("flare"); err == nil {
		t.Error("unknown hazard parsed")
	}
	m, err := ParseMitigation("ecc")
	if err != nil || m.Kind != MitigationECC {
		t.Errorf("ParseMitigation(ecc) = %+v, %v", m, err)
	}
	if m.String() != "ecc" {
		t.Errorf("String() = %q", m.String())
	}
	h, err := ParseHazard("orbit")
	if err != nil || h.Kind != HazardOrbit {
		t.Errorf("ParseHazard(orbit) = %+v, %v", h, err)
	}
	none, err := ParseMitigation("")
	if err != nil || none.Enabled() {
		t.Errorf("empty mitigation = %+v, %v", none, err)
	}
}

func TestSummaryMitigatedString(t *testing.T) {
	results := []platform.RunResult{
		{Cycles: 100},
		{Cycles: 130, Outcome: OutcomeCorrected, Faults: 1},
		{Cycles: 150, Outcome: OutcomeVoted, Faults: 2},
		{Cycles: 400, Outcome: OutcomeHung, Faults: 1},
	}
	s := Summarize(results)
	if s.Clean != 3 || s.MitigatedTotal() != 2 || s.Quarantined() != 1 {
		t.Fatalf("summary %+v", s)
	}
	str := s.String()
	for _, want := range []string{"3 clean", "2 mitigated", "corrected 1", "voted 1", "1 quarantined"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
	if math.Abs(float64(s.Injected)-4) > 0 {
		t.Errorf("injected = %d", s.Injected)
	}
}
