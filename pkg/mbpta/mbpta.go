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
//   - WithStopRule: FixedRuns (paper default), PWCETDelta or
//     CRPSConverged
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
	// IIDReport carries the Ljung-Box + Kolmogorov-Smirnov gate
	// outcome.
	IIDReport = stats.IIDReport
	// TailMethod selects block-maxima (paper default) or
	// peaks-over-threshold tail estimation.
	TailMethod = core.TailMethod
	// CVPoint is one point of the MBPTA-CV exponentiality ladder.
	CVPoint = core.CVPoint
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

// NewAnalyzer returns an analyzer with opts completed by the paper's
// defaults.
func NewAnalyzer(opts Options) *Analyzer { return core.NewAnalyzer(opts) }

// CheckIID runs the standalone i.i.d. gate (Ljung-Box + two-sample KS)
// on an execution-time series at significance alpha.
func CheckIID(times []float64, alpha float64) (IIDReport, error) {
	return stats.CheckIID(times, alpha)
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
)

// Per-task measurement types.
type (
	// TaskAware is a Workload exposing its task spans for per-job
	// execution-time attribution.
	TaskAware = platform.TaskAware
	// SchedTask is one periodic task of a fixed-priority set.
	SchedTask = sched.Task
)

// PerTaskWorstCampaign maps each task to its per-run worst job time
// over runs serial runs seeded from seed — i.i.d. samples that
// conservatively cover every activation, the per-task MBPTA input.
// Per-task measurement is an instrumentation-heavy mode outside the
// streaming engine, so it takes no campaign options. (The jobs of one
// run share warm cache state and are correlated, which is why only the
// per-run worst job enters the analysis.)
func PerTaskWorstCampaign(cfg PlatformConfig, w TaskAware, runs int, seed uint64) (map[string][]float64, error) {
	return platform.PerTaskWorstCampaign(cfg, w, runs, seed)
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
	// ReportBar is one bar of a comparison chart.
	ReportBar = report.Bar
)

// RenderBarChart renders labelled horizontal bars (the Figure-3 style
// comparison) to w.
func RenderBarChart(w io.Writer, title string, width int, bars []ReportBar) error {
	return report.BarChart(w, title, width, bars)
}

// WriteTraceCSV persists a campaign as CSV.
func WriteTraceCSV(w io.Writer, s *TraceSet) error { return trace.WriteCSV(w, s) }

// ReadTraceCSV parses the WriteTraceCSV format.
func ReadTraceCSV(r io.Reader) (*TraceSet, error) { return trace.ReadCSV(r) }
