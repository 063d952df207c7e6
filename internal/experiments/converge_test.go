package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/tvca"
)

// convergeFaultParams is a small converge-mode RAND campaign with SEU
// injection under ECC: enough batches for the pWCET-delta rule to fire
// before the budget, and enough upsets that every outcome tally is
// non-trivial.
func convergeFaultParams() Params {
	p := DefaultParams()
	p.Runs = 1500
	p.TVCA = tvca.DefaultConfig()
	p.TVCA.Frames = 4
	p.Converge = true
	p.ConvergeTol = 0.05
	p.FaultRate = 0.5
	p.Mitigation = faults.Mitigation{Kind: faults.MitigationECC}
	return p
}

// seriesHash digests the measured series run by run: cycles, path and
// outcome class.
func seriesHash(c *platform.CampaignResult) string {
	h := sha256.New()
	for i, r := range c.Results {
		fmt.Fprintf(h, "%d|%d|%s|%s\n", i, r.Cycles, r.Path, r.Outcome)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRANDConvergeFaultsPinned pins the converge-mode RAND campaign
// with SEU injection and ECC mitigation: where the stop rule fired, the
// outcome tally and the measured series. The journaled campaign must
// match the plain one, and so must a resume from a torn copy of its
// journal, which restores the analyzer from the last intact checkpoint
// and re-executes the rest. At 0.5 upsets per run no Poisson draw
// reaches the per-run fault cap, so ClampedRuns is pinned at zero.
func TestRANDConvergeFaultsPinned(t *testing.T) {
	const wantHash = "6874d750e8098215f9d4b4ad3c9d2c38e8c239c2093c55a4448e0c220ecf6b8b"
	wantFaults := faults.Summary{
		Total:       1000,
		Clean:       845,
		Injected:    484,
		ByOutcome:   map[string]int{faults.OutcomeMasked: 140, faults.OutcomeTimingPerturbed: 5, faults.OutcomeWrongOutput: 10},
		Mitigated:   map[string]int{faults.OutcomeCorrected: 236},
		ClampedRuns: 0,
	}
	check := func(t *testing.T, p Params) {
		t.Helper()
		e, err := NewEnv(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := e.RAND()
		if err != nil {
			t.Fatal(err)
		}
		if got := seriesHash(c); got != wantHash {
			t.Errorf("series hash %s, want %s", got, wantHash)
		}
		ci := e.RANDConvergence()
		if ci == nil {
			t.Fatal("no convergence summary in converge mode")
		}
		if !ci.Converged || ci.StopRuns != 1000 || ci.MaxRuns != 1500 ||
			ci.Rule != "pwcet-delta(q=1e-12, tol=0.05, streak=2)" || len(ci.Snapshots) != 4 {
			t.Errorf("convergence = {Converged %v StopRuns %d MaxRuns %d Rule %q, %d snapshots}, "+
				"want {true 1000 1500 pwcet-delta(q=1e-12, tol=0.05, streak=2), 4 snapshots}",
				ci.Converged, ci.StopRuns, ci.MaxRuns, ci.Rule, len(ci.Snapshots))
		}
		fs := e.FaultSummary()
		if fs == nil {
			t.Fatal("no fault summary with FaultRate > 0")
		}
		if !reflect.DeepEqual(*fs, wantFaults) {
			t.Errorf("fault summary %+v, want %+v", *fs, wantFaults)
		}
	}

	t.Run("plain", func(t *testing.T) { check(t, convergeFaultParams()) })

	t.Run("journal-resume", func(t *testing.T) {
		p := convergeFaultParams()
		p.Journal = filepath.Join(t.TempDir(), "rand.wal")
		check(t, p)
		// Tear the journal mid-campaign: the resume recovers the intact
		// prefix and finishes the campaign from there.
		st, err := os.Stat(p.Journal)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(p.Journal, st.Size()/2); err != nil {
			t.Fatal(err)
		}
		p.Resume = true
		check(t, p)
	})
}
