package mbpta

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/evt"
	"repro/internal/stats"
)

// fingerprintFmt is the reference encoder: Fingerprint as first
// defined, one fmt.Fprintf per record. The strconv encoder must hash
// exactly the byte stream it produces.
func fingerprintFmt(r *CampaignReport) string {
	h := sha256.New()
	fmt.Fprintf(h, "campaign|%s|%s|%d|%s|%v|%d\n",
		r.Campaign.Platform, r.Campaign.Workload, len(r.Campaign.Results), r.Rule, r.Converged, r.StopRuns)
	for i, res := range r.Campaign.Results {
		fmt.Fprintf(h, "run|%d|%d|%d|%q|%q|%d\n",
			i, res.Cycles, res.Instructions, res.Path, res.Outcome, res.Faults)
	}
	for _, s := range r.Snapshots {
		fmt.Fprintf(h, "snap|%d|%d|%d|%d|%d|%d|%v|%v|%v|%016x|%016x|%016x|%016x|%016x|%016x\n",
			s.Batch, s.Runs, s.TotalRuns, s.Quarantined, s.BlockSize, s.Discarded,
			s.GateChecked, s.Fitted, s.Done,
			refBits(s.Fit.Mu), refBits(s.Fit.Beta), refBits(s.Delta),
			refBits(s.RefProb), refBits(s.PWCET), refBits(s.PWCETRelDelta))
		if s.GateChecked {
			refHashTest(h, s.Gate.Independence)
			refHashTest(h, s.Gate.IdentDist)
			fmt.Fprintf(h, "gate|%v\n", s.Gate.Pass)
		}
		if s.QGateChecked {
			refHashQGate(h, &s.QGate)
		}
		refHashOutcomes(h, s.Outcomes)
	}
	fmt.Fprintf(h, "faults|%d|%d|%d\n", r.Faults.Total, r.Faults.Clean, r.Faults.Injected)
	refHashOutcomes(h, r.Faults.ByOutcome)
	if len(r.Faults.Mitigated) > 0 {
		fmt.Fprint(h, "mitigated\n")
		refHashOutcomes(h, r.Faults.Mitigated)
	}
	if r.Faults.ClampedRuns > 0 {
		fmt.Fprintf(h, "clamped|%d\n", r.Faults.ClampedRuns)
	}
	if r.Analysis != nil {
		fmt.Fprintf(h, "analysis|%d|%d|%d\n", r.Analysis.BlockSize, len(r.Analysis.Paths), len(r.Analysis.SmallPaths))
		for _, p := range r.Analysis.Paths {
			fmt.Fprintf(h, "path|%q|%d|%s|%016x|%016x|%016x|%d|%d|%v\n",
				p.Path, p.N, p.Method, refBits(p.Fit.Mu), refBits(p.Fit.Beta),
				refBits(p.GEVXi), p.Maxima, p.Discarded, p.Pooled)
			if p.QGate != nil {
				refHashQGate(h, p.QGate)
			}
		}
		for _, sp := range r.Analysis.SmallPaths {
			fmt.Fprintf(h, "small|%q|%d|%016x\n", sp.Path, sp.N, refBits(sp.HWM))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func refBits(x float64) uint64 { return math.Float64bits(x) }

func refHashTest(w io.Writer, t stats.TestResult) {
	fmt.Fprintf(w, "test|%q|%016x|%016x|%016x|%v|%d\n",
		t.Name, refBits(t.Statistic), refBits(t.PValue), refBits(t.Alpha), t.Rejected, t.DF)
}

func refHashQGate(w io.Writer, g *stats.QuantileGateReport) {
	fmt.Fprintf(w, "qgate|%d|%d|%016x|%016x|%016x|%016x|%d|%v|%016x|%016x|%016x|%016x\n",
		g.NA, g.NB, refBits(g.Alpha), refBits(g.PriorEffect), refBits(g.RhoA), refBits(g.RhoB),
		g.Leaks, g.Pass, refBits(g.MaxAbsZ), refBits(g.LeakProbability),
		refBits(g.EffectCycles), refBits(g.EffectDecile))
	for _, d := range g.Deciles {
		fmt.Fprintf(w, "qdecile|%016x|%016x|%016x|%016x|%016x|%016x|%016x|%v|%016x|%016x\n",
			refBits(d.Q), refBits(d.Diff), refBits(d.SE), refBits(d.Lo), refBits(d.Hi),
			refBits(d.Z), refBits(d.P), d.Leak, refBits(d.BF10), refBits(d.Posterior))
	}
}

func refHashOutcomes(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "outcome|%q|%d\n", k, m[k])
	}
}

// syntheticReport builds a report exercising every record kind and
// every value class the encoders must agree on: a quantile gate on a
// snapshot and on a path, faults with mitigation, clamped runs, small
// paths, NaN and infinite floats, negative integers, and path and
// outcome strings that need escaping.
func syntheticReport(runs int) *CampaignReport {
	nan, inf := math.NaN(), math.Inf(1)
	names := []string{"", "p0", `q"uote`, `back\slash`, "tab\tnl\n", "ünïcødé", "bad\xffutf8\xc3", "\x00ctl\x7f"}
	outs := []string{"", "hung", "corrected", `wr"ong`, "bad\xfe"}
	r := &CampaignReport{
		Campaign:  &CampaignResult{Platform: "RAND|plat", Workload: `tvca "4"`},
		Converged: true,
		StopRuns:  runs,
		Rule:      "crps(threshold=0.001, streak=2)",
		Faults: FaultSummary{
			Total: runs, Clean: runs - 3, Injected: -7,
			ByOutcome:   map[string]int{"hung": 2, `wr"ong`: 1},
			Mitigated:   map[string]int{"corrected": 4, "bad\xfe": 1},
			ClampedRuns: 3,
		},
	}
	for i := 0; i < runs; i++ {
		r.Campaign.Results = append(r.Campaign.Results, RunResult{
			Cycles:       math.MaxUint64 - uint64(i)*977,
			Instructions: uint64(i) * 31,
			Path:         names[i%len(names)],
			Outcome:      outs[i%len(outs)],
			Faults:       i%3 - 1,
		})
	}
	qg := stats.QuantileGateReport{
		NA: 10, NB: 11, Alpha: 0.01, PriorEffect: inf, RhoA: math.Copysign(0, -1), RhoB: 0.99,
		Leaks: 2, MaxAbsZ: inf, LeakProbability: nan, EffectCycles: -inf, EffectDecile: 0.9,
		Deciles: []stats.DecileResult{
			{Q: 0.1, Diff: -3, SE: 0, Lo: -inf, Hi: inf, Z: -inf, P: 0, Leak: true, BF10: inf, Posterior: 1},
			{Q: 0.9, Diff: nan, SE: nan, Lo: nan, Hi: nan, Z: nan, P: nan, BF10: 0, Posterior: 5e-324},
		},
	}
	test := stats.TestResult{Name: `Ljung-Box(h=20) "q"`, Statistic: nan, PValue: inf, Alpha: 0.05, Rejected: true, DF: -20}
	for b := 0; b < 4; b++ {
		s := Progress{
			Batch: b, Runs: 10 * b, TotalRuns: 10*b + 1, Quarantined: 1, BlockSize: 50, Discarded: -b,
			GateChecked: b%2 == 1, Fitted: b > 1, Done: b == 3,
			Fit: evt.Gumbel{Mu: 1e5 + float64(b), Beta: -inf}, Delta: nan, RefProb: 1e-12,
			PWCET: inf, PWCETRelDelta: -inf,
			Gate:         IIDReport{Independence: test, IdentDist: test, Pass: b == 1},
			QGate:        qg,
			QGateChecked: b >= 2,
			Outcomes:     map[string]int{"hung": b, "tab\t": 1},
		}
		r.Snapshots = append(r.Snapshots, s)
	}
	r.Analysis = &Result{
		BlockSize: 50,
		Paths: []core.PathResult{
			{Path: `pa"th`, N: 700, Method: MethodBlockMaxima, Fit: evt.Gumbel{Mu: 3, Beta: nan}, GEVXi: -0.0, Maxima: 14, Discarded: 0, QGate: &qg},
			{Path: "bad\xff", N: -1, Method: "pot", GEVXi: inf, Pooled: true},
		},
		SmallPaths: []core.SmallPath{{Path: "\\small\"", N: 3, HWM: -inf}, {Path: "", N: 0, HWM: nan}},
	}
	return r
}

// TestFingerprintMatchesFmtReference pins the strconv encoder to the
// fmt reference on synthetic reports covering every record and value
// class, and on real campaign reports: one with the quantile gate, one
// with mitigated fault injection.
func TestFingerprintMatchesFmtReference(t *testing.T) {
	reports := map[string]*CampaignReport{
		"empty":         {Campaign: &CampaignResult{}},
		"synthetic-1":   syntheticReport(1),
		"synthetic-40":  syntheticReport(40),
		"synthetic-900": syntheticReport(900), // spans several hash chunks
	}
	cfg := DefaultTVCAConfig()
	cfg.Frames = 4
	app, err := NewTVCA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]CampaignOption{
		"qgate":  {WithRuns(300), WithBaseSeed(3), WithQuantileGate(0.01)},
		"faults": {WithRuns(300), WithBaseSeed(5), WithFaultInjection(FaultConfig{Rate: 0.6, Mitigation: Mitigation{Kind: MitigationECC}})},
	} {
		rep, err := Campaign(context.Background(), RANDPlatform(), app, opts...)
		if rep == nil {
			t.Fatalf("%s campaign: %v", name, err)
		}
		reports[name] = rep
	}
	if snaps := reports["qgate"].Snapshots; !snaps[len(snaps)-1].QGateChecked {
		t.Fatal("quantile-gated campaign's last snapshot carries no gate report")
	}
	if len(reports["faults"].Faults.Mitigated) == 0 || len(reports["faults"].Faults.ByOutcome) == 0 {
		t.Fatalf("fault campaign tallies %+v: want quarantined and mitigated runs", reports["faults"].Faults)
	}
	for name, rep := range reports {
		if got, want := rep.Fingerprint(), fingerprintFmt(rep); got != want {
			t.Errorf("%s: Fingerprint %s, fmt reference %s", name, got, want)
		}
	}
}

// BenchmarkCampaignFingerprint measures the digest of a 1000-run TVCA
// campaign report with its per-batch snapshot trace.
func BenchmarkCampaignFingerprint(b *testing.B) {
	cfg := DefaultTVCAConfig()
	cfg.Frames = 4
	app, err := NewTVCA(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := Campaign(context.Background(), RANDPlatform(), app, WithRuns(1000), WithBaseSeed(20170327))
	if rep == nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rep.Fingerprint()
	}
}
