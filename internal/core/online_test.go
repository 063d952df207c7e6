package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/evt"
	"repro/internal/stats"
)

// synthSeries draws deterministic pseudo-Gumbel execution times that
// pass the i.i.d. gate (an LCG-driven inversion, as the package tests
// use elsewhere).
func synthSeries(n int, seed uint64) []float64 {
	g := evt.Gumbel{Mu: 100000, Beta: 1500}
	out := make([]float64, n)
	state := seed
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		u := (float64(state>>11) + 0.5) / (1 << 53)
		x, err := g.Quantile(u)
		if err != nil {
			panic(err)
		}
		out[i] = x
	}
	return out
}

func feed(t *testing.T, o *OnlineAnalyzer, times []float64, batch int) []Snapshot {
	t.Helper()
	var snaps []Snapshot
	for at := 0; at < len(times); at += batch {
		end := at + batch
		if end > len(times) {
			end = len(times)
		}
		obs := make([]Observation, 0, end-at)
		for _, v := range times[at:end] {
			obs = append(obs, Observation{Cycles: v})
		}
		s, err := o.ObserveBatch(obs)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
		if s.Done {
			break
		}
	}
	return snaps
}

func TestFixedRunsRule(t *testing.T) {
	r := FixedRuns(100)
	if r.Done(&Snapshot{Runs: 99, TotalRuns: 99}) {
		t.Error("fired early")
	}
	if !r.Done(&Snapshot{Runs: 100, TotalRuns: 100}) || !r.Done(&Snapshot{Runs: 250, TotalRuns: 250}) {
		t.Error("did not fire at/after the budget")
	}
	// The budget is executed runs: quarantined runs count against it.
	if !r.Done(&Snapshot{Runs: 60, TotalRuns: 100, Quarantined: 40}) {
		t.Error("quarantined runs not counted against the budget")
	}
	if r.Name() == "" {
		t.Error("empty name")
	}
}

func TestMaxWallClockRule(t *testing.T) {
	r := MaxWallClock(time.Minute)
	if r.Done(&Snapshot{Elapsed: 30 * time.Second}) {
		t.Error("fired early")
	}
	if !r.Done(&Snapshot{Elapsed: time.Minute}) {
		t.Error("did not fire at the budget")
	}
}

func TestPWCETDeltaRule(t *testing.T) {
	r := PWCETDelta(1e-12, 0.01, 2)
	mk := func(mu float64) *Snapshot {
		return &Snapshot{
			Runs: 500, BlockSize: 50, Fitted: true,
			Fit: evt.Gumbel{Mu: mu, Beta: 100},
		}
	}
	// Unfitted snapshots never fire and reset the streak.
	if r.Done(&Snapshot{Runs: 100}) {
		t.Error("fired without a fit")
	}
	if r.Done(mk(10000)) {
		t.Error("fired on the first fit")
	}
	// A big jump resets; two stable refits in a row fire.
	if r.Done(mk(20000)) {
		t.Error("fired on a 2x jump")
	}
	if r.Done(mk(20010)) {
		t.Error("fired after a single stable refit")
	}
	if !r.Done(mk(20020)) {
		t.Error("did not fire after two stable refits")
	}
}

func TestConvergenceRulesRequirePassingGate(t *testing.T) {
	// A fit over a non-i.i.d. prefix is not evidence of convergence:
	// a failing gate must reset the streak of both convergence rules.
	pass := stats.IIDReport{Pass: true}
	fail := stats.IIDReport{Pass: false}
	mk := func(g stats.IIDReport) *Snapshot {
		return &Snapshot{
			Runs: 500, BlockSize: 50, Fitted: true,
			Fit:  evt.Gumbel{Mu: 10000, Beta: 100},
			Gate: g, GateChecked: true,
		}
	}
	r := PWCETDelta(1e-12, 0.01, 2)
	r.Done(mk(pass))
	r.Done(mk(pass)) // streak 1 (first call has no previous value)
	if r.Done(mk(fail)) {
		t.Error("fired on a gate-failing snapshot")
	}
	if r.Done(mk(pass)) {
		t.Error("fired right after a gate failure (streak not reset)")
	}
	r.Done(mk(pass))
	if !r.Done(mk(pass)) {
		t.Error("did not fire after the streak rebuilt")
	}

	c := CRPSConverged(1e-3, 2)
	s := mk(pass)
	s.Delta = 5e-4
	c.Done(s)
	bad := mk(fail)
	bad.Delta = 5e-4
	if c.Done(bad) {
		t.Error("CRPS rule fired on a gate-failing snapshot")
	}
	if c.Done(s) {
		t.Error("CRPS streak not reset by the gate failure")
	}
	if !c.Done(s) {
		t.Error("CRPS rule did not fire after the streak rebuilt")
	}
}

func TestCRPSConvergedRule(t *testing.T) {
	r := CRPSConverged(1e-3, 2)
	if r.Done(&Snapshot{Delta: math.NaN()}) {
		t.Error("fired on NaN delta")
	}
	if r.Done(&Snapshot{Delta: 5e-4}) {
		t.Error("fired after one pass")
	}
	if r.Done(&Snapshot{Delta: 5e-2}) {
		t.Error("fired after a reset")
	}
	r.Done(&Snapshot{Delta: 5e-4})
	if !r.Done(&Snapshot{Delta: 5e-4}) {
		t.Error("did not fire after two consecutive passes")
	}
}

func TestAnyRuleEvaluatesAllRules(t *testing.T) {
	// AnyRule must keep feeding stateful sub-rules even when another
	// rule fires first.
	crps := CRPSConverged(1e-3, 2)
	r := AnyRule(FixedRuns(1000), crps)
	s := &Snapshot{Runs: 10, Delta: 5e-4}
	if r.Done(s) {
		t.Error("fired early")
	}
	if !r.Done(s) { // second consecutive CRPS pass fires via the sub-rule
		t.Error("stateful sub-rule was starved")
	}
	if !AnyRule(FixedRuns(5)).Done(&Snapshot{Runs: 10, TotalRuns: 10}) {
		t.Error("fixed sub-rule ignored")
	}
}

func TestOnlineAnalyzerMatchesBatchAnalyzer(t *testing.T) {
	// Feeding the full series through ObserveBatch and finalizing must
	// reproduce the one-shot analyzer exactly.
	times := synthSeries(3000, 9)
	online := NewOnlineAnalyzer(Options{}, FixedRuns(3000))
	snaps := feed(t, online, times, 250)
	if !online.Done() {
		t.Fatal("fixed-runs rule did not fire at the budget")
	}
	last := snaps[len(snaps)-1]
	if last.Runs != 3000 || !last.Fitted || !last.GateChecked {
		t.Fatalf("last snapshot incomplete: %+v", last)
	}
	got, err := online.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewAnalyzer(Options{}).Analyze(times)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := got.PWCET(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := want.PWCET(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if gotB != wantB {
		t.Errorf("online pWCET %v != batch pWCET %v", gotB, wantB)
	}
	// The pooled snapshot fit over the full series must equal the
	// single-path fit too.
	if last.Fit != want.Paths[0].Fit {
		t.Errorf("snapshot fit %+v != batch fit %+v", last.Fit, want.Paths[0].Fit)
	}
}

func TestOnlineAnalyzerConvergesEarly(t *testing.T) {
	times := synthSeries(6000, 4)
	online := NewOnlineAnalyzer(Options{}, PWCETDelta(1e-12, 0.02, 2))
	snaps := feed(t, online, times, 250)
	if !online.Done() {
		t.Fatal("pWCET-delta rule never fired on stationary data")
	}
	stop := online.Runs()
	if stop >= 6000 {
		t.Fatalf("no early stop: %d runs", stop)
	}
	// The converged estimate must be close to the full-series one.
	full, err := NewAnalyzer(Options{}).Analyze(times)
	if err != nil {
		t.Fatal(err)
	}
	fullB, err := full.PWCET(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := online.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := res.PWCET(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(gotB-fullB) / fullB; rel > 0.05 {
		t.Errorf("converged pWCET %v is %.1f%% off the full-series %v", gotB, 100*rel, fullB)
	}
	last := snaps[len(snaps)-1]
	if !last.Done || last.Runs != stop {
		t.Errorf("last snapshot %+v does not record the stop", last)
	}
}

// TestOnlineAnalyzerKeepsCollectingOnDegenerateSeries: a constant
// series cannot be fitted; the analyzer reports unfitted snapshots and
// never stops, instead of failing the campaign.
func TestOnlineAnalyzerKeepsCollectingOnDegenerateSeries(t *testing.T) {
	online := NewOnlineAnalyzer(Options{}, CRPSConverged(0, 0))
	times := make([]float64, 1000)
	for i := range times {
		times[i] = 1234
	}
	for _, s := range feed(t, online, times, 250) {
		if s.Fitted || s.Done {
			t.Fatalf("constant series: snapshot at %d runs fitted %v, done %v", s.Runs, s.Fitted, s.Done)
		}
	}
	if online.Runs() != 1000 {
		t.Errorf("%d runs collected, want 1000", online.Runs())
	}
}

func TestSnapshotCurveAndPWCETAt(t *testing.T) {
	s := &Snapshot{Runs: 500, BlockSize: 50, Fitted: true, Fit: evt.Gumbel{Mu: 10000, Beta: 100}}
	b, err := s.PWCETAt(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if b <= 10000 {
		t.Errorf("deep quantile %v", b)
	}
	pts, err := s.Curve(10000, b, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 16 {
		t.Fatalf("%d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Projected > pts[i-1].Projected {
			t.Fatal("projected exceedance not monotone")
		}
	}
	var empty Snapshot
	if _, err := empty.PWCETAt(1e-12); err == nil {
		t.Error("unfitted snapshot answered a quantile query")
	}
	if _, err := empty.Curve(0, 1, 4); err == nil {
		t.Error("unfitted snapshot produced a curve")
	}
}

func TestObserveBatchKeepsMitigatedRuns(t *testing.T) {
	o := NewOnlineAnalyzer(Options{}, FixedRuns(1000))
	times := synthSeries(100, 9)
	obs := make([]Observation, len(times))
	for i, v := range times {
		obs[i] = Observation{Cycles: v}
	}
	// 10 runs recovered by a mitigation layer, 5 quarantined.
	for i := 0; i < 10; i++ {
		obs[i].Outcome, obs[i].Mitigated = "corrected", true
	}
	for i := 10; i < 15; i++ {
		obs[i].Outcome = "wrong-output"
	}
	s, err := o.ObserveBatch(obs)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalRuns != 100 {
		t.Fatalf("TotalRuns = %d", s.TotalRuns)
	}
	// Mitigated runs stay in the analyzed series; only the quarantined
	// five leave it.
	if s.Runs != 95 || s.Quarantined != 5 {
		t.Errorf("Runs = %d, Quarantined = %d; want 95 and 5", s.Runs, s.Quarantined)
	}
	// Both flavors are tallied by outcome class.
	if s.Outcomes["corrected"] != 10 || s.Outcomes["wrong-output"] != 5 {
		t.Errorf("Outcomes = %v", s.Outcomes)
	}
}
