package faults

import (
	"context"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/platform"
)

// MitigationKind selects the fault-mitigation scheme layered on the
// injector.
type MitigationKind string

// Mitigation schemes. The zero value (or "none") disables mitigation:
// injected runs quarantine exactly as before.
const (
	MitigationNone     MitigationKind = "none"
	MitigationScrub    MitigationKind = "scrub"
	MitigationECC      MitigationKind = "ecc"
	MitigationLockstep MitigationKind = "lockstep"
)

// Mitigated run outcomes: runs whose upsets a mitigation layer absorbed.
// Unlike the quarantine taxonomy these outcomes stay in the analyzed
// measurement series — the mitigation's cycle overhead is the point, it
// must flow into the pWCET estimate. platform.MitigatedOutcome
// recognizes exactly this set (enforced by test).
const (
	// OutcomeCorrected marks an ECC run whose single-bit upsets were all
	// corrected in place (per-correction latency charged).
	OutcomeCorrected = "corrected"
	// OutcomeScrubbed marks a scrub run that completed with correct
	// output and whose upsets all landed in scrubbed arrays.
	OutcomeScrubbed = "scrubbed"
	// OutcomeVoted marks a lockstep run recovered by majority vote over
	// N replicas (redundant execution + vote overhead charged).
	OutcomeVoted = "voted"
)

// MitigatedOutcomes lists the mitigated outcome classes in canonical
// report order.
func MitigatedOutcomes() []string {
	return []string{OutcomeCorrected, OutcomeScrubbed, OutcomeVoted}
}

// Mitigation configures the fault-mitigation layer. Cycle accounting is
// deterministic: every overhead is a pure function of the run's
// instruction count, the fault schedule and the clean baseline, so
// mitigated campaigns reproduce bit-for-bit from the base seed.
type Mitigation struct {
	// Kind selects the scheme: "" or "none" (quarantine as before),
	// "scrub" (periodic array scrubbing), "ecc" (SEC-DED on cache/TLB
	// tag+state arrays), "lockstep" (software N-run redundancy with
	// majority voting).
	Kind MitigationKind `json:"kind,omitempty"`

	// ScrubInterval is the scrub period in retired instructions
	// (default 2048): upsets in cache/TLB arrays are reverted — the
	// affected cell invalidated, which is always architecturally safe —
	// at the next scrub boundary. Every run is charged
	// floor(instructions/interval)*ScrubCost cycles of scrub traffic.
	ScrubInterval uint64 `json:"scrub_interval,omitempty"`
	// ScrubCost is the deterministic cycle cost of one scrub pass
	// (default 32).
	ScrubCost uint64 `json:"scrub_cost,omitempty"`

	// ECCLatency is the cycle cost of one single-bit correction
	// (default 8). Double-bit upsets — two scheduled upsets addressing
	// the same cell — exceed SEC-DED and escalate to the existing
	// outcome taxonomy.
	ECCLatency uint64 `json:"ecc_latency,omitempty"`

	// Replicas is the lockstep redundancy degree N >= 2 (default 3).
	// Every run pays N executions; a diverged replica under N == 2
	// costs one extra tie-break re-execution.
	Replicas int `json:"replicas,omitempty"`
	// VoteCost is the cycle cost of the majority vote (default 64).
	VoteCost uint64 `json:"vote_cost,omitempty"`
}

// Mitigation defaults.
const (
	defaultScrubInterval uint64 = 2048
	defaultScrubCost     uint64 = 32
	defaultECCLatency    uint64 = 8
	defaultReplicas             = 3
	defaultVoteCost      uint64 = 64
)

// Enabled reports whether a mitigation scheme is selected.
func (m Mitigation) Enabled() bool {
	return m.Kind != "" && m.Kind != MitigationNone
}

// normalize applies defaults and validates; the returned mitigation is
// what the injector stores.
func (m Mitigation) normalize() (Mitigation, error) {
	switch m.Kind {
	case "", MitigationNone:
		m.Kind = MitigationNone
	case MitigationScrub:
		if m.ScrubInterval == 0 {
			m.ScrubInterval = defaultScrubInterval
		}
		if m.ScrubCost == 0 {
			m.ScrubCost = defaultScrubCost
		}
	case MitigationECC:
		if m.ECCLatency == 0 {
			m.ECCLatency = defaultECCLatency
		}
	case MitigationLockstep:
		if m.Replicas == 0 {
			m.Replicas = defaultReplicas
		}
		if m.Replicas < 2 {
			return m, fmt.Errorf("faults: lockstep needs >= 2 replicas, got %d", m.Replicas)
		}
		if m.VoteCost == 0 {
			m.VoteCost = defaultVoteCost
		}
	default:
		return m, fmt.Errorf("faults: unknown mitigation kind %q (have none, scrub, ecc, lockstep)", m.Kind)
	}
	return m, nil
}

// Validate checks the configuration (spec-level use, e.g. matrix
// expansion) without applying defaults.
func (m Mitigation) Validate() error {
	_, err := m.normalize()
	return err
}

// label is the mitigation's compact axis identifier.
func (m Mitigation) label() string {
	if m.Kind == "" {
		return string(MitigationNone)
	}
	return string(m.Kind)
}

// String returns the mitigation's kind label ("none", "scrub", "ecc",
// "lockstep").
func (m Mitigation) String() string { return m.label() }

// ParseMitigation resolves a mitigation kind name (as given on
// -mitigation flags) to a Mitigation with that kind's defaults. Empty
// and "none" both yield the zero value.
func ParseMitigation(s string) (Mitigation, error) {
	switch MitigationKind(s) {
	case "", MitigationNone:
		return Mitigation{}, nil
	case MitigationScrub:
		return Mitigation{Kind: MitigationScrub}, nil
	case MitigationECC:
		return Mitigation{Kind: MitigationECC}, nil
	case MitigationLockstep:
		return Mitigation{Kind: MitigationLockstep}, nil
	}
	return Mitigation{}, fmt.Errorf("faults: unknown mitigation %q (have none, scrub, ecc, lockstep)", s)
}

// arrayTarget reports whether t is a cache/TLB array — the storage
// scrubbing and ECC protect. Register files have neither.
func arrayTarget(t Target) bool {
	switch t {
	case TargetIL1, TargetDL1, TargetITLB, TargetDTLB:
		return true
	}
	return false
}

// allArrayFaults reports whether every scheduled upset landed in a
// protected array.
func allArrayFaults(plan []Fault) bool {
	for _, f := range plan {
		if !arrayTarget(f.Target) {
			return false
		}
	}
	return true
}

// cleanOverhead charges the mitigation's standing cost to a zero-upset
// run: scrub traffic and lockstep redundancy are paid whether or not an
// upset arrives; ECC is free on clean runs. The outcome stays empty —
// the run is clean, only its cycle count reflects the mitigation.
func (in *Injector) cleanOverhead(res platform.RunResult) platform.RunResult {
	m := in.cfg.Mitigation
	switch m.Kind {
	case MitigationScrub:
		res.Cycles += scrubOverhead(m, res.Instructions)
	case MitigationLockstep:
		res.Cycles = uint64(m.Replicas)*res.Cycles + m.VoteCost
	}
	return res
}

// scrubOverhead is the deterministic scrub-traffic charge: one pass per
// completed interval of retired instructions.
func scrubOverhead(m Mitigation, instructions uint64) uint64 {
	return (instructions / m.ScrubInterval) * m.ScrubCost
}

// scrubber reverts array upsets at periodic scrub boundaries during a
// faulted run: each pending upset's cell is invalidated, which is
// always architecturally safe for transparent caches and TLBs.
type scrubber struct {
	interval uint64
	next     uint64
	pending  []Fault
}

// note records an applied upset for revert at the next boundary.
func (s *scrubber) note(f Fault) {
	if arrayTarget(f.Target) {
		s.pending = append(s.pending, f)
	}
}

// tick fires every scrub boundary crossed by the retired-instruction
// count.
func (s *scrubber) tick(steps uint64, c *cpu.Core) {
	for steps >= s.next {
		s.flush(c)
		s.next += s.interval
	}
}

// flush invalidates the cells of all pending upsets.
func (s *scrubber) flush(c *cpu.Core) {
	for _, f := range s.pending {
		switch f.Target {
		case TargetIL1, TargetDL1:
			cc := c.IL1
			if f.Target == TargetDL1 {
				cc = c.DL1
			}
			cc.Scrub(f.Set, f.Way)
		case TargetITLB, TargetDTLB:
			tt := c.ITLB
			if f.Target == TargetDTLB {
				tt = c.DTLB
			}
			tt.Scrub(f.Set)
		}
	}
	s.pending = s.pending[:0]
}

// scrubRun executes an injected run under periodic scrubbing: upsets
// apply as scheduled, scrub boundaries revert array upsets, and the
// scrub-traffic charge lands on the final cycle count. A run that
// completes with correct output and whose upsets all hit scrubbed
// arrays is fully covered — outcome "scrubbed", kept for analysis.
// Register upsets are outside scrub coverage, so runs involving them
// (and all wrong-output/hung runs) classify by the base taxonomy.
func (in *Injector) scrubRun(ctx context.Context, p *platform.Platform, w platform.Workload, run int, seed uint64, base platform.RunResult, plan []Fault) (platform.RunResult, error) {
	m := in.cfg.Mitigation
	sc := &scrubber{interval: m.ScrubInterval, next: m.ScrubInterval}
	res, err := in.faultedRun(ctx, p, w, run, seed, base, plan, sc)
	if err != nil {
		return res, err
	}
	if (res.Outcome == OutcomeMasked || res.Outcome == OutcomeTimingPerturbed) && allArrayFaults(plan) {
		res.Outcome = OutcomeScrubbed
	}
	res.Cycles += scrubOverhead(m, res.Instructions)
	return res, nil
}

// eccRun executes an injected run under SEC-DED protection of the
// cache/TLB arrays. Single-bit upsets (one scheduled upset per cell)
// never reach the array: each costs ECCLatency cycles. Double-bit
// upsets — two upsets addressing the same cell — and register-file
// upsets are uncorrectable: they inject for real and the run classifies
// by the base taxonomy. A fully corrected run needs no faulted
// re-execution at all: its timing is the clean baseline plus the
// correction latency, outcome "corrected", kept for analysis.
func (in *Injector) eccRun(ctx context.Context, p *platform.Platform, w platform.Workload, run int, seed uint64, base platform.RunResult, plan []Fault) (platform.RunResult, error) {
	type cell struct {
		t        Target
		set, way int
	}
	hits := make(map[cell]int)
	for _, f := range plan {
		if arrayTarget(f.Target) {
			hits[cell{f.Target, f.Set, f.Way}]++
		}
	}
	var escalated []Fault
	corrections := 0
	for _, f := range plan {
		if arrayTarget(f.Target) && hits[cell{f.Target, f.Set, f.Way}] == 1 {
			in.upsets[f.Target].Inc() // the upset occurred; ECC absorbed it
			corrections++
			continue
		}
		escalated = append(escalated, f)
	}
	latency := uint64(corrections) * in.cfg.Mitigation.ECCLatency
	if len(escalated) == 0 {
		res := base
		res.Cycles += latency
		res.Faults = len(plan)
		res.Outcome = OutcomeCorrected
		return res, nil
	}
	res, err := in.faultedRun(ctx, p, w, run, seed, base, escalated, nil)
	if err != nil {
		return res, err
	}
	res.Cycles += latency
	res.Faults += corrections
	return res, nil
}

// lockstepRun executes an injected run under software N-run lockstep:
// only one of the N replicas carries the upsets (the schedule is a
// per-run draw), so the majority vote always recovers the correct
// output — no injected run quarantines. The price is paid in time, not
// correctness: the faulted replica's cycles plus N-1 clean re-executions
// plus the vote, and a diverged replica under N == 2 forces one extra
// tie-break re-execution. That overhead flows straight into the timing
// analysis — which is exactly the performability question.
func (in *Injector) lockstepRun(ctx context.Context, p *platform.Platform, w platform.Workload, run int, seed uint64, base platform.RunResult, plan []Fault) (platform.RunResult, error) {
	res, err := in.faultedRun(ctx, p, w, run, seed, base, plan, nil)
	if err != nil {
		return res, err
	}
	m := in.cfg.Mitigation
	redundant := uint64(m.Replicas-1) * base.Cycles
	if m.Replicas == 2 && (res.Outcome == OutcomeWrongOutput || res.Outcome == OutcomeHung) {
		redundant += base.Cycles // 1-1 split: tie-break re-execution
	}
	res.Cycles += redundant + m.VoteCost
	res.Outcome = OutcomeVoted
	return res, nil
}
