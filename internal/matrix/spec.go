// Package matrix runs declarative scenario matrices: the cross product
// of platform builds, workloads, fault rates, contention levels and
// stop rules, executed as one batch of campaigns and reported as a
// comparative pWCET table. Cells that share simulation-relevant
// configuration (platform, workload, seed, fault and timeout settings)
// share one set of raw measurement runs through a content-addressed run
// cache (see Cache), so re-running a matrix after an analysis-only
// tweak — a different stop rule, quantile set or block size — replays
// recorded runs instead of re-simulating them. The platform protocol
// makes every run a pure function of (workload, run index, seed), so a
// replayed cell is bit-identical to a freshly simulated one; the matrix
// runner asserts this via CampaignReport.Fingerprint.
package matrix

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/pkg/mbpta"
)

// Spec is a declarative scenario matrix: explicit values for each axis,
// expanded to the full cross product minus exclusions. Zero-value axes
// get the single default listed on each field, so a minimal spec only
// names platforms and workloads.
type Spec struct {
	// Name labels the matrix in reports and service listings.
	Name string `json:"name,omitempty"`
	// Platforms lists platform builds by name ("DET", "RAND").
	Platforms []string `json:"platforms"`
	// Workloads lists the programs under analysis as registry specs.
	Workloads []fabric.WorkloadSpec `json:"workloads"`
	// FaultRates lists fault-injection rates in upsets per million
	// cycles; 0 disables injection. Default: [0].
	FaultRates []float64 `json:"fault_rates,omitempty"`
	// Cores lists board sizes: 1 is a single-core platform, n > 1 a
	// co-simulated multicore with n-1 memory-streamer co-runners.
	// Default: [1].
	Cores []int `json:"cores,omitempty"`
	// Mitigations lists the fault-mitigation configurations swept per
	// scenario (see mbpta.Mitigation); the zero value is unmitigated.
	// Default: [unmitigated]. Mitigation rides the fault-injection
	// layer, so non-none mitigations are dropped for fault-rate-0 cells
	// the way fault×multicore combinations are.
	Mitigations []mbpta.Mitigation `json:"mitigations,omitempty"`
	// Hazard selects the time-varying upset-rate profile shared by
	// every fault-injected cell (see mbpta.Hazard; zero value:
	// constant). Simulation-relevant: it reshapes the per-run upset
	// schedule.
	Hazard mbpta.Hazard `json:"hazard,omitempty"`
	// StopRules lists the stopping protocols. Default: the paper's
	// fixed-size protocol ({Kind: "fixed"}).
	StopRules []StopRuleSpec `json:"stop_rules,omitempty"`
	// Leak switches every cell into timing-leak mode: the workload is
	// measured twice, with its "Secret" parameter forced to 0 and to 1,
	// and the two timing distributions are compared with the nine-decile
	// quantile gate — the comparative report then carries each cell's
	// posterior leak probability. Intended for secret-dependent
	// workloads such as "secretdep"; both variants cache independently.
	Leak bool `json:"leak,omitempty"`
	// Exclude removes cells from the cross product (see Exclusion).
	// Cells combining fault injection with multicore contention are
	// excluded automatically: the fault layer requires single-core
	// boards.
	Exclude []Exclusion `json:"exclude,omitempty"`

	// Runs is the per-cell run budget (exact under the fixed rule, cap
	// otherwise). Default: 3000, the paper's campaign size.
	Runs int `json:"runs,omitempty"`
	// Batch is the analysis batch size. Default: 250.
	Batch int `json:"batch,omitempty"`
	// BaseSeed seeds every cell's deterministic seed schedule.
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// RunTimeoutMS bounds each simulated run in wall-clock milliseconds
	// (0: no per-run deadline). Changing it is simulation-relevant: a
	// timeout can abort a run that would otherwise complete.
	RunTimeoutMS int64 `json:"run_timeout_ms,omitempty"`
	// Analysis holds the analysis-only parameters shared by all cells.
	Analysis AnalysisSpec `json:"analysis,omitempty"`
}

// StopRuleSpec names a stopping protocol in serializable form.
type StopRuleSpec struct {
	// Kind selects the rule: "fixed" (run budget, the default),
	// "pwcet-delta" (pWCET(Q) stable within RelTol for Streak batches),
	// or "crps" (CRPS between consecutive fits below Threshold for
	// Streak batches).
	Kind string `json:"kind"`
	// Q is the exceedance probability pwcet-delta tracks (default 1e-12).
	Q float64 `json:"q,omitempty"`
	// RelTol is pwcet-delta's relative tolerance (default 0.01).
	RelTol float64 `json:"rel_tol,omitempty"`
	// Threshold is crps's convergence threshold (default 1e-3).
	Threshold float64 `json:"threshold,omitempty"`
	// Streak is the consecutive-batch requirement (default 2).
	Streak int `json:"streak,omitempty"`
}

// Build instantiates the rule. Rules keep state across batches, so
// every cell builds a fresh one.
func (s StopRuleSpec) Build(runs int) (mbpta.StopRule, error) {
	switch s.Kind {
	case "", "fixed":
		return mbpta.FixedRuns(runs), nil
	case "pwcet-delta":
		return mbpta.PWCETDelta(s.Q, s.RelTol, s.Streak), nil
	case "crps":
		return mbpta.CRPSConverged(s.Threshold, s.Streak), nil
	}
	return nil, fmt.Errorf("matrix: unknown stop rule kind %q (have fixed, pwcet-delta, crps)", s.Kind)
}

func (s StopRuleSpec) label() string {
	if s.Kind == "" {
		return "fixed"
	}
	return s.Kind
}

// AnalysisSpec holds the parameters that shape the analysis but not the
// measurements — by construction none of them enters the simulation
// cache key.
type AnalysisSpec struct {
	// Alpha is the i.i.d. test significance level (default 0.05).
	Alpha float64 `json:"alpha,omitempty"`
	// BlockSize is the block-maxima block length (default 50).
	BlockSize int `json:"block_size,omitempty"`
	// Quantiles lists the per-run exceedance probabilities the
	// comparative report tabulates. Default: [1e-9, 1e-12, 1e-15].
	Quantiles []float64 `json:"quantiles,omitempty"`
}

// quantiles returns the report quantiles with the default applied.
func (a AnalysisSpec) quantiles() []float64 {
	if len(a.Quantiles) == 0 {
		return []float64{1e-9, 1e-12, 1e-15}
	}
	return a.Quantiles
}

// Exclusion removes matching cells from the expansion. Every set field
// must match for a cell to be excluded; zero-valued (unset) fields
// match anything, so {Platform: "DET", StopRule: "crps"} removes all
// DET×crps cells across the other axes.
type Exclusion struct {
	Platform   string   `json:"platform,omitempty"`
	Workload   string   `json:"workload,omitempty"` // workload kind
	FaultRate  *float64 `json:"fault_rate,omitempty"`
	Cores      *int     `json:"cores,omitempty"`
	Mitigation string   `json:"mitigation,omitempty"` // mitigation kind label
	StopRule   string   `json:"stop_rule,omitempty"`  // rule kind
}

func (e Exclusion) matches(c Cell) bool {
	if e.Platform != "" && e.Platform != c.Platform {
		return false
	}
	if e.Workload != "" && e.Workload != c.Workload.Kind {
		return false
	}
	if e.FaultRate != nil && *e.FaultRate != c.FaultRate {
		return false
	}
	if e.Cores != nil && *e.Cores != c.Cores {
		return false
	}
	if e.Mitigation != "" && e.Mitigation != c.Mitigation.String() {
		return false
	}
	if e.StopRule != "" && e.StopRule != c.StopRule.label() {
		return false
	}
	return true
}

// Cell is one fully resolved scenario: a point in the matrix's cross
// product plus the spec-wide execution and analysis parameters. The
// fields split into two classes — simulation-relevant (Platform,
// Workload, FaultRate, Cores, BaseSeed, RunTimeoutMS, Mitigation,
// Hazard), which enter the run-cache key, and analysis-only (StopRule,
// Runs, Batch, Analysis), which do not, so cells differing only in
// analysis parameters share one set of raw runs.
// TestCacheKeySensitivity enforces that every field is classified.
type Cell struct {
	Platform     string              `json:"platform"`
	Workload     fabric.WorkloadSpec `json:"workload"`
	FaultRate    float64             `json:"fault_rate"`
	Cores        int                 `json:"cores"`
	BaseSeed     uint64              `json:"base_seed"`
	RunTimeoutMS int64               `json:"run_timeout_ms,omitempty"`
	// Mitigation and Hazard configure the fault layer of this cell.
	// Simulation-relevant: a mitigation changes measured cycle counts
	// (overheads, recovered runs) and a hazard reshapes the per-run
	// upset schedule, so both enter the run-cache key.
	Mitigation mbpta.Mitigation `json:"mitigation,omitempty"`
	Hazard     mbpta.Hazard     `json:"hazard,omitempty"`

	StopRule StopRuleSpec `json:"stop_rule"`
	Runs     int          `json:"runs"`
	Batch    int          `json:"batch"`
	Analysis AnalysisSpec `json:"analysis"`
	// Leak marks a timing-leak cell (see Spec.Leak). Analysis-only for
	// caching purposes: the two secret variants derive their own
	// simulation keys through their rewritten workload params.
	Leak bool `json:"leak,omitempty"`
}

// withSecret returns the cell with the workload's "Secret" parameter
// forced to the given value — the two campaigns of a leak cell. Params
// are merged over whatever the spec set, canonically re-marshaled (Go
// sorts map keys), so equal variants share cache entries.
func (c Cell) withSecret(secret int) (Cell, error) {
	params := map[string]any{}
	if len(c.Workload.Params) > 0 {
		if err := json.Unmarshal(c.Workload.Params, &params); err != nil {
			return c, fmt.Errorf("matrix: leak cell %s params: %w", c.Label(), err)
		}
	}
	params["Secret"] = secret
	b, err := json.Marshal(params)
	if err != nil {
		return c, fmt.Errorf("matrix: leak cell %s params: %w", c.Label(), err)
	}
	c.Workload.Params = b
	return c, nil
}

// Label is the cell's compact axis identifier, e.g.
// "RAND/crc32/f0.25/c1/fixed". Mitigated cells append the mitigation
// kind (and the hazard kind when non-constant), e.g.
// "RAND/crc32/f0.25/c1/fixed/ecc@weibull"; unmitigated constant-hazard
// cells keep the historical label.
func (c Cell) Label() string {
	return fmt.Sprintf("%s/%s/f%g/c%d/%s%s", c.Platform, c.Workload.Kind, c.FaultRate, c.Cores, c.StopRule.label(), c.faultSuffix())
}

// faultSuffix is the mitigation/hazard tail of Label and groupKey,
// empty for unmitigated constant-hazard cells so historical labels are
// preserved.
func (c Cell) faultSuffix() string {
	hz := ""
	if c.Hazard.Kind != "" && c.Hazard.Kind != mbpta.HazardConstant {
		hz = "@" + string(c.Hazard.Kind)
	}
	if !c.Mitigation.Enabled() && hz == "" {
		return ""
	}
	return "/" + c.Mitigation.String() + hz
}

// groupKey identifies the cell's scenario ignoring the platform axis —
// the comparative report pairs platforms within a group.
func (c Cell) groupKey() string {
	return fmt.Sprintf("%s/f%g/c%d/%s%s", c.Workload.Kind, c.FaultRate, c.Cores, c.StopRule.label(), c.faultSuffix())
}

// MaxCells bounds the cross product a spec may span.
const MaxCells = 4096

// Expand resolves the spec to its cell list: the cross product over
// axes in (platform, workload, fault rate, cores, mitigation, stop
// rule) order, minus exclusions. Fault×multicore combinations are
// dropped automatically (the fault-injection layer requires
// single-core boards), and so are mitigation×fault-rate-0 combinations
// (mitigation rides the fault layer). Expansion is deterministic: the
// same spec always yields the same cells in the same order. A spec
// whose axes span more than MaxCells combinations is refused before
// any cell is built.
func Expand(s Spec) ([]Cell, error) {
	if len(s.Platforms) == 0 {
		return nil, errors.New("matrix: spec lists no platforms")
	}
	if len(s.Workloads) == 0 {
		return nil, errors.New("matrix: spec lists no workloads")
	}
	boardCores := 0 // the smallest board among the platforms
	for _, p := range s.Platforms {
		cfg, err := fabric.NamedPlatform(p)
		if err != nil {
			return nil, err
		}
		if boardCores == 0 || cfg.Cores < boardCores {
			boardCores = cfg.Cores
		}
	}
	span := 1
	for _, n := range []int{len(s.Platforms), len(s.Workloads), len(s.FaultRates), len(s.Cores), len(s.Mitigations), len(s.StopRules)} {
		if span *= max(n, 1); span > MaxCells {
			return nil, fmt.Errorf("matrix: spec spans more than %d cells", MaxCells)
		}
	}
	for _, w := range s.Workloads {
		if w.Kind == "" {
			return nil, errors.New("matrix: workload spec with empty kind")
		}
	}
	faultRates := s.FaultRates
	if len(faultRates) == 0 {
		faultRates = []float64{0}
	}
	cores := s.Cores
	if len(cores) == 0 {
		cores = []int{1}
	}
	for _, n := range cores {
		if n < 1 || n > boardCores {
			return nil, fmt.Errorf("matrix: cores axis value %d not in [1,%d]", n, boardCores)
		}
	}
	mitigations := s.Mitigations
	if len(mitigations) == 0 {
		mitigations = []mbpta.Mitigation{{}}
	}
	for _, m := range mitigations {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("matrix: mitigation axis: %w", err)
		}
	}
	if err := s.Hazard.Validate(); err != nil {
		return nil, fmt.Errorf("matrix: hazard: %w", err)
	}
	rules := s.StopRules
	if len(rules) == 0 {
		rules = []StopRuleSpec{{Kind: "fixed"}}
	}
	runs := s.Runs
	if runs <= 0 {
		runs = 3000
	}
	if runs > platform.MaxCampaignRuns {
		return nil, fmt.Errorf("matrix: runs %d above the %d-run budget limit", runs, platform.MaxCampaignRuns)
	}
	batch := s.Batch
	if batch <= 0 {
		batch = 250
	}

	var cells []Cell
	for _, p := range s.Platforms {
		for _, w := range s.Workloads {
			for _, fr := range faultRates {
				if fr < 0 {
					return nil, fmt.Errorf("matrix: negative fault rate %g", fr)
				}
				for _, n := range cores {
					if fr > 0 && n > 1 {
						continue // fault injection requires single-core boards
					}
					for _, mi := range mitigations {
						if fr == 0 && mi.Enabled() {
							continue // mitigation rides the fault layer
						}
						hz := mbpta.Hazard{}
						if fr > 0 {
							hz = s.Hazard
						}
						for _, r := range rules {
							if _, err := r.Build(runs); err != nil {
								return nil, err
							}
							c := Cell{
								Platform:     p,
								Workload:     w,
								FaultRate:    fr,
								Cores:        n,
								BaseSeed:     s.BaseSeed,
								RunTimeoutMS: s.RunTimeoutMS,
								Mitigation:   mi,
								Hazard:       hz,
								StopRule:     r,
								Runs:         runs,
								Batch:        batch,
								Analysis:     s.Analysis,
								Leak:         s.Leak,
							}
							excluded := false
							for _, e := range s.Exclude {
								if e.matches(c) {
									excluded = true
									break
								}
							}
							if !excluded {
								cells = append(cells, c)
							}
						}
					}
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, errors.New("matrix: spec expands to zero cells")
	}
	return cells, nil
}
