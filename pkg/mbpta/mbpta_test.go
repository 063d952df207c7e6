package mbpta_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/evt"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/mbpta"
)

// smallApp returns a reduced TVCA for fast API tests.
func smallApp(t *testing.T) *mbpta.TVCA {
	t.Helper()
	cfg := mbpta.DefaultTVCAConfig()
	cfg.Frames = 8
	app, err := mbpta.NewTVCA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestEndToEndFlow(t *testing.T) {
	// The README quickstart flow, through the public API only.
	app := smallApp(t)
	rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(600), mbpta.WithBaseSeed(42), mbpta.MeasureOnly())
	if err != nil {
		t.Fatal(err)
	}
	set := rep.TraceSet()
	if len(set.Samples) != 600 {
		t.Fatalf("%d samples", len(set.Samples))
	}
	gate, err := mbpta.CheckIID(set.Times(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !gate.Pass {
		t.Fatalf("gate failed:\n%s", gate)
	}
	res, err := mbpta.NewAnalyzer(mbpta.Options{}).AnalyzeByPath(set.TimesByPath())
	if err != nil {
		t.Fatal(err)
	}
	b6, err := res.PWCET(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	b12, err := res.PWCET(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !(b6 < b12) {
		t.Errorf("pWCET(1e-6)=%v >= pWCET(1e-12)=%v", b6, b12)
	}
}

func TestPlatformConfigsDiffer(t *testing.T) {
	det, rnd := mbpta.DETPlatform(), mbpta.RANDPlatform()
	if det.Name == rnd.Name {
		t.Error("platform names collide")
	}
	if det.IL1.Placement == rnd.IL1.Placement {
		t.Error("placement policies identical")
	}
}

func TestMBTABaseline(t *testing.T) {
	r, err := mbpta.AnalyzeMBTA([]float64{100, 200, 150})
	if err != nil {
		t.Fatal(err)
	}
	if r.HWM != 200 {
		t.Errorf("HWM = %v", r.HWM)
	}
	w, err := r.WCET(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if w != 300 {
		t.Errorf("WCET(+50%%) = %v", w)
	}
}

func TestErrorSentinelsExported(t *testing.T) {
	// An autocorrelated trace must surface ErrIIDRejected through the
	// facade.
	times := make([]float64, 1000)
	v := 0.0
	for i := range times {
		v = 0.95*v + float64(i%7)
		times[i] = 1000 + v
	}
	_, err := mbpta.NewAnalyzer(mbpta.Options{}).Analyze(times)
	if !errors.Is(err, mbpta.ErrIIDRejected) && !errors.Is(err, mbpta.ErrHeavyTail) {
		t.Errorf("err = %v, want a public sentinel", err)
	}
}

func TestTracePersistenceRoundTrip(t *testing.T) {
	set := &mbpta.TraceSet{
		Platform: "RAND", Workload: "demo",
		Samples: []trace.Sample{{Run: 0, Cycles: 10, Path: "p"}},
	}
	var buf bytes.Buffer
	if err := mbpta.WriteTraceCSV(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := mbpta.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples[0] != set.Samples[0] {
		t.Error("CSV round trip lost data")
	}
	buf.Reset()
	if err := trace.WriteJSON(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err = trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Platform != "RAND" || got.Samples[0].Cycles != 10 {
		t.Error("JSON round trip lost data")
	}
}

func TestRenderHelpers(t *testing.T) {
	var buf bytes.Buffer
	err := mbpta.RenderBarChart(&buf, "demo", 20, []mbpta.ReportBar{{Label: "a", Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "demo") {
		t.Error("bar chart missing title")
	}
	buf.Reset()
	err = report.ExceedancePlot(&buf, "curve", 1e-9, 40, 8,
		report.Series{Times: []float64{1, 2}, Probs: []float64{0.5, 0.01}, Name: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "curve") {
		t.Error("plot missing title")
	}
}

func TestCustomWorkloadViaBuilder(t *testing.T) {
	// A minimal custom workload exercised through the exported builder
	// and machine types.
	b := mbpta.NewProgramBuilder("tiny", 0)
	b.Li(1, 40)
	b.Li(2, 2)
	b.Add(3, 1, 2)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mbpta.NewMachine(prog, mbpta.NewMemory())
	if _, err := m.RunBlocks(nil); err != nil {
		t.Fatal(err)
	}
	if m.Reg(3) != 42 {
		t.Errorf("r3 = %d", m.Reg(3))
	}
}

func TestGumbelExported(t *testing.T) {
	g := evt.Gumbel{Mu: 100, Beta: 10}
	x, err := g.QuantileSF(1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if x <= 100 {
		t.Errorf("deep quantile %v", x)
	}
}

func TestCampaignParallelismInvariance(t *testing.T) {
	app := smallApp(t)
	a, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(20), mbpta.WithBaseSeed(3), mbpta.WithParallelism(1), mbpta.MeasureOnly())
	if err != nil {
		t.Fatal(err)
	}
	b, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		mbpta.WithRuns(20), mbpta.WithBaseSeed(3), mbpta.WithParallelism(8), mbpta.MeasureOnly())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Campaign.Results {
		if a.Campaign.Results[i] != b.Campaign.Results[i] {
			t.Fatalf("run %d differs with parallelism", i)
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprints differ with parallelism")
	}
}

func TestExtendedGateWrapper(t *testing.T) {
	times := make([]float64, 600)
	state := uint64(7)
	for i := range times {
		state = state*6364136223846793005 + 1442695040888963407
		times[i] = 1000 + float64(state>>40)/float64(1<<18)
	}
	rep, err := stats.CheckIIDExtended(times, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Errorf("extended gate failed on iid data: %+v", rep)
	}
}

func TestCVDiagnosticsWrapper(t *testing.T) {
	times := make([]float64, 2000)
	state := uint64(3)
	for i := range times {
		state = state*6364136223846793005 + 1442695040888963407
		times[i] = float64(state >> 40)
	}
	pts, err := mbpta.ExponentialityCV(times, 0.5, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("empty ladder")
	}
	if _, err := mbpta.CVVerdict(pts, 0.5); err != nil {
		t.Fatal(err)
	}
}

func TestPerTaskWrappers(t *testing.T) {
	cfg := mbpta.DefaultTVCAConfig()
	cfg.Frames = 4
	cfg.Sensors = 8
	cfg.Taps = 8
	app, err := mbpta.NewTVCA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := mbpta.PerTaskWorstCampaign(mbpta.RANDPlatform(), app, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 1 worst sample per run.
	if len(worst["sensor-acq"]) != 10 {
		t.Errorf("worst campaign has %d sensor samples, want 10", len(worst["sensor-acq"]))
	}
	// The worst sample of a run upper-bounds each of that run's 4
	// sensor jobs.
	p, err := mbpta.NewPlatform(mbpta.RANDPlatform())
	if err != nil {
		t.Fatal(err)
	}
	_, jobs, err := p.RunPerTask(app, 0, platform.DeriveRunSeed(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs["sensor-acq"]) != 4 {
		t.Errorf("run 0 has %d sensor jobs, want 4", len(jobs["sensor-acq"]))
	}
	for i, j := range jobs["sensor-acq"] {
		if float64(j) > worst["sensor-acq"][0] {
			t.Errorf("sensor job %d (%d cycles) exceeds the run's worst sample %v", i, j, worst["sensor-acq"][0])
		}
	}
}

func TestMulticoreWrapper(t *testing.T) {
	cfg := mbpta.DefaultTVCAConfig()
	cfg.Frames = 4
	cfg.Sensors = 8
	cfg.Taps = 8
	app, err := mbpta.NewTVCA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := platform.NewMulticore(mbpta.RANDPlatform(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.ExecuteRun(context.Background(), app, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Error("empty multicore measurement")
	}
}

func TestTailMethodsExported(t *testing.T) {
	times := make([]float64, 3000)
	state := uint64(11)
	for i := range times {
		state = state*6364136223846793005 + 1442695040888963407
		times[i] = 10000 + float64(state>>44)
	}
	for _, m := range []mbpta.TailMethod{mbpta.MethodBlockMaxima, mbpta.MethodPoT} {
		res, err := mbpta.NewAnalyzer(mbpta.Options{Method: m}).Analyze(times)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if _, err := res.PWCET(1e-9); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestBootstrapExported(t *testing.T) {
	times := make([]float64, 2000)
	state := uint64(13)
	for i := range times {
		state = state*6364136223846793005 + 1442695040888963407
		times[i] = 5000 + float64(state>>44)
	}
	an := mbpta.NewAnalyzer(mbpta.Options{})
	ci, err := an.BootstrapPWCET(times, 1e-9, 100, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !(ci.Lo < ci.Hi) {
		t.Errorf("degenerate CI %+v", ci)
	}
}
