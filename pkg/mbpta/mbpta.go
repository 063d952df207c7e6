// Package mbpta is the public API of the MBPTA reproduction: it
// re-exports the analyzer (the paper's measurement-based probabilistic
// timing analysis pipeline), the time-randomized LEON3-class platform
// simulator, the TVCA case-study workload, the classical MBTA baseline
// and the trace/report utilities.
//
// # The v2 campaign engine
//
// Campaign is the entry point: it measures, gates and fits
// incrementally in deterministic batches, and can stop as soon as the
// pWCET estimate converges instead of always paying the paper's fixed
// 3,000 runs:
//
//	app, _ := mbpta.NewTVCA(mbpta.DefaultTVCAConfig())
//	rep, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), app,
//		mbpta.WithRuns(3000),                             // run budget
//		mbpta.WithBaseSeed(42),                           // bit-for-bit reproducible
//		mbpta.WithStopRule(mbpta.PWCETDelta(1e-12, 0.01, 2)),
//		mbpta.WithProgress(func(p mbpta.Progress) { /* per batch */ }))
//	bound, _ := rep.Analysis.PWCET(1e-12)
//
// The full option set:
//
//   - WithRuns: run budget (exact size under FixedRuns, cap otherwise)
//   - WithBaseSeed: seed of the per-run seed derivation
//   - WithParallelism: worker platforms; never changes results
//   - WithBatchSize: runs between stop-rule evaluations
//   - WithStopRule: FixedRuns (paper default), PWCETDelta,
//     CRPSConverged, MaxWallClock, or AnyRule of several
//   - WithProgress: per-batch Snapshot callback
//   - WithAnalyzerOptions: analyzer configuration for refits and the
//     final analysis
//   - WithCoRunners: co-simulate on a multicore board with real
//     co-runner programs contending for the bus and DRAM
//   - WithJournal: crash-safe write-ahead log, resumable via Resume
//   - WithTelemetry: metrics registry + structured event stream
//   - WithFaultInjection, WithRunTimeout, WithRetry, WithSupervision:
//     resilience layers
//   - WithExecutorPool: execute on a shared distributed campaign
//     fabric instead of a private worker pool
//   - MeasureOnly: collect without the final per-path analysis
//
// Campaign's sentinel errors — ErrIIDGateFailed, ErrNotConverged,
// ErrCanceled, ErrDegraded — all work with errors.Is.
//
// # The campaign fabric and the pWCET service
//
// NewFabricPool starts a shared executor pool many concurrent
// campaigns multiplex over (fair lease scheduling, bounded admission,
// optional remote executors); pass it to WithExecutorPool. The merge
// path is bit-identical to local execution: CampaignReport.Fingerprint
// is byte-equal whether a campaign ran single-process, on an
// N-executor fabric, or was journal-resumed.
//
// The pwcetd daemon (cmd/pwcetd) serves campaigns over HTTP;
// ServiceClient is its client, CampaignSpec / CampaignStatus /
// ServiceReport its wire types, and WorkloadSpec + BuiltinWorkloads
// name the workloads a service or remote executor can rebuild.
//
// Everything reachable from here is stable API; the internal packages
// may change layout freely.
package mbpta

import (
	"io"

	"repro/internal/core"
	"repro/internal/evt"
	"repro/internal/isa"
	"repro/internal/mbta"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tvca"
)

// Analysis types (the paper's contribution).
type (
	// Analyzer runs the MBPTA pipeline: i.i.d. gate, block-maxima
	// Gumbel fit, tail diagnostics, per-path pWCET.
	Analyzer = core.Analyzer
	// Options configures the analyzer; the zero value applies the
	// paper's defaults (alpha 0.05, block size 50, PWM fit).
	Options = core.Options
	// Result is a complete analysis with pWCET query methods.
	Result = core.Result
	// PathResult is the per-path portion of a Result.
	PathResult = core.PathResult
	// CurvePoint is one point of the Figure-2 pWCET curve.
	CurvePoint = core.CurvePoint
	// ConvergencePoint is one step of the campaign-size convergence
	// trace.
	ConvergencePoint = core.ConvergencePoint
	// Gumbel is the extreme-value distribution MBPTA fits.
	Gumbel = evt.Gumbel
	// FitMethod selects the Gumbel estimator (PWM, moments, MLE).
	FitMethod = evt.FitMethod
	// IIDReport carries the Ljung-Box + Kolmogorov-Smirnov gate
	// outcome.
	IIDReport = stats.IIDReport
	// TestResult is a single statistical test outcome.
	TestResult = stats.TestResult
	// TailMethod selects block-maxima (paper default) or
	// peaks-over-threshold tail estimation.
	TailMethod = core.TailMethod
	// CI is a bootstrap confidence interval on a pWCET estimate.
	CI = core.CI
	// CVPoint is one point of the MBPTA-CV exponentiality ladder.
	CVPoint = core.CVPoint
	// Summary is the descriptive-statistics block of a PathResult.
	Summary = stats.Summary
	// ECDF is the empirical distribution behind Result.Observed.
	ECDF = stats.ECDF
	// SmallPath records a path observed too rarely to fit (kept as an
	// HWM floor in Result.SmallPaths).
	SmallPath = core.SmallPath
	// TailModel answers per-run exceedance queries (PathResult.Tail).
	TailModel = evt.TailModel
	// PerRunTail is the per-run projection of a block-maxima Gumbel.
	PerRunTail = core.PerRunTail
	// ExceedanceModel is the peaks-over-threshold tail (PathResult.PoT).
	ExceedanceModel = evt.ExceedanceModel
	// GPD is the generalized Pareto tail inside an ExceedanceModel.
	GPD = evt.GPD
	// GEV is the generalized extreme-value fit behind the tail-shape
	// diagnostic.
	GEV = evt.GEV
)

// Tail estimation methods for Options.Method.
const (
	MethodBlockMaxima = core.MethodBlockMaxima
	MethodPoT         = core.MethodPoT
)

// ExponentialityCV computes the MBPTA-CV coefficient-of-variation
// ladder over threshold quantiles [startQ, endQ] — a tail-shape
// diagnostic complementary to the built-in GEV check.
func ExponentialityCV(times []float64, startQ, endQ float64, steps int) ([]CVPoint, error) {
	return core.ExponentialityCV(times, startQ, endQ, steps)
}

// CVVerdict accepts the tail when the final windowFrac of the CV ladder
// is at or below the exponential acceptance band.
func CVVerdict(points []CVPoint, windowFrac float64) (bool, error) {
	return core.CVVerdict(points, windowFrac)
}

// Analyzer errors, for errors.Is.
var (
	ErrIIDRejected  = core.ErrIIDRejected
	ErrHeavyTail    = core.ErrHeavyTail
	ErrInsufficient = core.ErrInsufficient
)

// Fit method names.
const (
	MethodPWM     = evt.MethodPWM
	MethodMoments = evt.MethodMoments
	MethodMLE     = evt.MethodMLE
)

// NewAnalyzer returns an analyzer with opts completed by the paper's
// defaults.
func NewAnalyzer(opts Options) *Analyzer { return core.NewAnalyzer(opts) }

// CheckIID runs the standalone i.i.d. gate (Ljung-Box + two-sample KS)
// on an execution-time series at significance alpha.
// Quantile-gate surface: the nine-decile two-sample comparison and
// timing-leak oracle (see internal/stats).
type (
	// QuantileGateOptions configures the nine-decile gate.
	QuantileGateOptions = stats.QuantileGateOptions
	// QuantileGateReport is the two-layer per-decile verdict.
	QuantileGateReport = stats.QuantileGateReport
	// DecileResult is one decile's comparison result.
	DecileResult = stats.DecileResult
	// QuantileEstimate is a Harrell-Davis quantile estimate with CI.
	QuantileEstimate = stats.QuantileEstimate
)

// CompareQuantiles runs the two-layer decile comparison of two
// run-time samples — the timing-leak oracle primitive.
func CompareQuantiles(a, b []float64, opts QuantileGateOptions) (QuantileGateReport, error) {
	return stats.CompareQuantiles(a, b, opts)
}

// CheckQuantileGate compares the ordered halves of one series — the
// sharper identical-distribution gate.
func CheckQuantileGate(times []float64, opts QuantileGateOptions) (QuantileGateReport, error) {
	return stats.CheckQuantileGate(times, opts)
}

// EstimateQuantile computes a Harrell-Davis quantile estimate with a
// Maritz-Jarrett standard error and confidence interval.
func EstimateQuantile(times []float64, q, confidence float64) (QuantileEstimate, error) {
	return stats.EstimateQuantile(times, q, confidence)
}

func CheckIID(times []float64, alpha float64) (IIDReport, error) {
	return stats.CheckIID(times, alpha)
}

// ExtendedIIDReport adds turning-point randomness and Mann-Kendall
// trend diagnostics to the paper's gate.
type ExtendedIIDReport = stats.ExtendedIIDReport

// CheckIIDExtended applies the full diagnostic battery (Ljung-Box, KS,
// turning-point, Mann-Kendall) at level alpha.
func CheckIIDExtended(times []float64, alpha float64) (ExtendedIIDReport, error) {
	return stats.CheckIIDExtended(times, alpha)
}

// Platform types (the hardware-randomized substrate).
type (
	// PlatformConfig describes a full processor build.
	PlatformConfig = platform.Config
	// Platform is one instantiated board.
	Platform = platform.Platform
	// Workload is a program under analysis.
	Workload = platform.Workload
	// RunResult is one measurement run.
	RunResult = platform.RunResult
	// CampaignResult is an ordered measurement campaign.
	CampaignResult = platform.CampaignResult
	// InterferenceConfig attaches synthetic co-runner bus traffic.
	InterferenceConfig = platform.InterferenceConfig
	// Multicore co-simulates real co-runner programs on the other
	// cores, sharing the bus and DRAM with the measured workload.
	Multicore = platform.Multicore
	// MulticoreResult is one co-simulated measurement.
	MulticoreResult = platform.MulticoreResult
)

// NewMulticore builds a co-simulated multicore platform: the measured
// workload runs on core 0, the co-runners loop on the remaining cores.
func NewMulticore(cfg PlatformConfig, coRunners []Workload) (*Multicore, error) {
	return platform.NewMulticore(cfg, coRunners)
}

// Per-task measurement types.
type (
	// Span names a PC range — one task's body within a program.
	Span = isa.Span
	// TaskAware is a Workload exposing its task spans for per-job
	// execution-time attribution.
	TaskAware = platform.TaskAware
	// JobTimes maps task names to per-job cycle counts of one run.
	JobTimes = platform.JobTimes
	// SchedTask is one periodic task of a fixed-priority set.
	SchedTask = sched.Task
)

// PerTaskWorstCampaign maps each task to its per-run worst job time —
// i.i.d. samples that conservatively cover every activation, the
// per-task MBPTA input. Of the campaign options only WithRuns and
// WithBaseSeed apply — per-task measurement is a serial,
// instrumentation-heavy mode outside the streaming engine. (The jobs
// of one run share warm cache state and are correlated, which is why
// only the per-run worst job enters the analysis.)
func PerTaskWorstCampaign(cfg PlatformConfig, w TaskAware, opts ...CampaignOption) (map[string][]float64, error) {
	c := resolveCampaignConfig(opts)
	return platform.PerTaskWorstCampaign(cfg, w, c.runs, c.seed)
}

// ResponseTimes computes classical fixed-priority response-time
// analysis over tasks whose WCET budgets may be pWCET estimates —
// probabilistic schedulability in the style the MBPTA literature
// composes with the paper's analysis.
func ResponseTimes(tasks []SchedTask, frameCycles uint64) ([]uint64, error) {
	return sched.ResponseTimes(tasks, frameCycles)
}

// TVCATasks returns the case study's periodic task set (periods in
// minor frames, priorities: sensor highest).
func TVCATasks() []SchedTask { return tvca.Tasks() }

// DETPlatform returns the deterministic baseline platform (modulo
// placement, LRU, operand-dependent FPU) — the platform classical MBTA
// measures.
func DETPlatform() PlatformConfig { return platform.DET() }

// RANDPlatform returns the MBPTA-compliant time-randomized platform
// (random-modulo placement, random replacement, worst-case-fixed
// FDIV/FSQRT).
func RANDPlatform() PlatformConfig { return platform.RAND() }

// NewPlatform instantiates a board from cfg.
func NewPlatform(cfg PlatformConfig) (*Platform, error) { return platform.New(cfg) }

// Workload types.
type (
	// TVCAConfig parametrizes the thrust-vector-control case study.
	TVCAConfig = tvca.Config
	// TVCA is the generated case-study application.
	TVCA = tvca.App
	// Machine is the architectural interpreter state (advanced use:
	// custom workloads implement Workload in terms of it).
	Machine = isa.Machine
	// Memory is the byte-addressable data memory of a Machine.
	Memory = isa.Memory
	// Program is an assembled instruction sequence.
	Program = isa.Program
	// ProgramBuilder is the structured assembler for custom workloads.
	ProgramBuilder = isa.Builder
)

// NewProgramBuilder starts a program named name with its text segment
// linked at codeBase (4-byte aligned).
func NewProgramBuilder(name string, codeBase uint64) *ProgramBuilder {
	return isa.NewBuilder(name, codeBase)
}

// NewMemory returns an empty sparse data memory.
func NewMemory() *Memory { return isa.NewMemory() }

// NewMachine binds an assembled program to a memory.
func NewMachine(prog *Program, mem *Memory) *Machine { return isa.NewMachine(prog, mem) }

// DefaultTVCAConfig returns the reference TVCA parameters.
func DefaultTVCAConfig() TVCAConfig { return tvca.DefaultConfig() }

// NewTVCA generates the case-study application.
func NewTVCA(cfg TVCAConfig) (*TVCA, error) { return tvca.New(cfg) }

// Baseline (classical MBTA) types.
type (
	// MBTAResult is a high-watermark analysis.
	MBTAResult = mbta.Result
)

// AnalyzeMBTA computes the classical high-watermark result.
func AnalyzeMBTA(times []float64) (MBTAResult, error) { return mbta.Analyze(times) }

// Persistence and reporting.
type (
	// TraceSet is a persisted measurement campaign.
	TraceSet = trace.Set
	// TraceSample is one persisted run.
	TraceSample = trace.Sample
	// ReportSeries is one line of an exceedance plot.
	ReportSeries = report.Series
	// ReportBar is one bar of a comparison chart.
	ReportBar = report.Bar
)

// RenderBarChart renders labelled horizontal bars (the Figure-3 style
// comparison) to w.
func RenderBarChart(w io.Writer, title string, width int, bars []ReportBar) error {
	return report.BarChart(w, title, width, bars)
}

// RenderExceedancePlot renders one or more exceedance-probability
// series on a log-scale Y axis (the Figure-2 style pWCET plot) to w.
func RenderExceedancePlot(w io.Writer, title string, floor float64, width, height int, series ...ReportSeries) error {
	return report.ExceedancePlot(w, title, floor, width, height, series...)
}

// WriteTraceCSV / ReadTraceCSV persist campaigns as CSV.
func WriteTraceCSV(w io.Writer, s *TraceSet) error { return trace.WriteCSV(w, s) }

// ReadTraceCSV parses the WriteTraceCSV format.
func ReadTraceCSV(r io.Reader) (*TraceSet, error) { return trace.ReadCSV(r) }

// WriteTraceJSON / ReadTraceJSON persist campaigns as JSON.
func WriteTraceJSON(w io.Writer, s *TraceSet) error { return trace.WriteJSON(w, s) }

// ReadTraceJSON parses the WriteTraceJSON format.
func ReadTraceJSON(r io.Reader) (*TraceSet, error) { return trace.ReadJSON(r) }
