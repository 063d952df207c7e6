package mbpta

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Sentinel errors of the v2 campaign engine, for errors.Is.
var (
	// ErrIIDGateFailed reports that the final analysis rejected the
	// i.i.d. gate (alias of ErrIIDRejected on the v2 surface).
	ErrIIDGateFailed = core.ErrIIDRejected
	// ErrNotConverged reports that the stop rule was still unsatisfied
	// when the run budget ran out; the partial CampaignReport is
	// returned alongside it.
	ErrNotConverged = core.ErrNotConverged
	// ErrCanceled reports that the context canceled the campaign; the
	// returned error also matches errors.Is(err, ctx.Err()).
	ErrCanceled = platform.ErrCanceled
	// ErrRunTimeout reports that a run exceeded WithRunTimeout; it
	// surfaces once the WithRetry attempts are exhausted.
	ErrRunTimeout = platform.ErrRunTimeout
	// ErrDegraded reports that the campaign exhausted its worker-restart
	// budget (see WithSupervision): the partial report over the runs
	// completed before degradation is returned alongside it, and the
	// error wraps every restart cause via errors.Join.
	ErrDegraded = platform.ErrDegraded
)

// IsJournalCorrupt reports whether err is unrecoverable journal
// corruption (damaged header or campaign-identity record); the error
// text names the journal path and the first bad byte offset. Torn
// tails and mid-file corruption never produce it — Resume repairs
// those by truncating to the last valid checkpoint.
func IsJournalCorrupt(err error) bool { return wal.IsCorrupt(err) }

// Streaming-campaign types.
type (
	// StopRule decides after each batch whether the campaign may stop.
	StopRule = core.StopRule
	// Progress is the per-batch snapshot passed to WithProgress
	// callbacks and recorded in CampaignReport.Snapshots: runs done,
	// gate p-values, the current tail fit and the pWCET curve it
	// implies (via its PWCETAt and Curve methods).
	Progress = core.Snapshot
	// FaultConfig tunes the SEU injector (see WithFaultInjection): the
	// expected upsets per run, the hazard profile and mitigation layer,
	// the targeted arrays, and the watchdog factor for hung-run
	// detection.
	FaultConfig = faults.Config
	// FaultSummary tallies a campaign's run outcomes (clean vs
	// quarantined by class, plus mitigated recoveries).
	FaultSummary = faults.Summary
	// Mitigation configures the fault-mitigation layer (scrubbing, ECC,
	// lockstep) of a FaultConfig.
	Mitigation = faults.Mitigation
	// Hazard configures the time-varying upset-rate profile of a
	// FaultConfig.
	Hazard = faults.Hazard
	// Journal persists campaign progress at batch barriers (advanced
	// use: WithJournalSink; WithJournal covers the common case).
	Journal = platform.Journal
)

// Fault-injection run-outcome classes, mitigation schemes and hazard
// profiles re-exported for option construction and summary inspection.
const (
	OutcomeMasked          = faults.OutcomeMasked
	OutcomeTimingPerturbed = faults.OutcomeTimingPerturbed
	OutcomeWrongOutput     = faults.OutcomeWrongOutput
	OutcomeHung            = faults.OutcomeHung

	MitigationNone = faults.MitigationNone
	MitigationECC  = faults.MitigationECC

	HazardConstant = faults.HazardConstant
	HazardWeibull  = faults.HazardWeibull
)

// ParseMitigation resolves a mitigation kind name ("none", "scrub",
// "ecc", "lockstep") to a Mitigation with that kind's defaults.
func ParseMitigation(s string) (Mitigation, error) { return faults.ParseMitigation(s) }

// ParseHazard resolves a hazard kind name ("constant", "weibull",
// "orbit") to a Hazard with that kind's defaults.
func ParseHazard(s string) (Hazard, error) { return faults.ParseHazard(s) }

// FixedRuns stops after n runs — the paper's fixed-size protocol.
func FixedRuns(n int) StopRule { return core.FixedRuns(n) }

// PWCETDelta stops once pWCET(q) has changed by at most relTol for
// streak consecutive batches (zero arguments: q=1e-12, relTol=0.01,
// streak=2).
func PWCETDelta(q, relTol float64, streak int) StopRule {
	return core.PWCETDelta(q, relTol, streak)
}

// CRPSConverged stops on the MBPTA CRPS convergence criterion between
// consecutive tail refits (zero arguments: threshold=1e-3, streak=2).
func CRPSConverged(threshold float64, streak int) StopRule {
	return core.CRPSConverged(threshold, streak)
}

// campaignConfig is the resolved option set of Campaign.
type campaignConfig struct {
	runs        int
	batch       int
	parallel    int
	seed        uint64
	rule        StopRule
	progress    func(Progress)
	analysis    Options
	measureOnly bool
	faults      *FaultConfig
	runTimeout  time.Duration
	retry       platform.RetryPolicy
	supervise   platform.SupervisionPolicy
	journal     string
	journalSink Journal
	cached      func(run int) (RunResult, bool)
	telemetry   *Telemetry
	coRunners   []Workload
	pool        *FabricPool
}

// CampaignOption configures Campaign.
type CampaignOption func(*campaignConfig)

// WithRuns sets the campaign's run budget (default 3,000, the paper's
// protocol). Under a fixed-runs rule this is the exact campaign size;
// under a convergence rule it is the maximum.
func WithRuns(n int) CampaignOption {
	return func(c *campaignConfig) { c.runs = n }
}

// WithBaseSeed sets the base seed of the per-run seed derivation; the
// same seed reproduces the campaign bit-for-bit (default 0).
func WithBaseSeed(seed uint64) CampaignOption {
	return func(c *campaignConfig) { c.seed = seed }
}

// WithParallelism sets the number of worker platforms (default
// GOMAXPROCS). Parallelism never changes results: run i always uses
// seed DeriveRunSeed(base, i) and batches complete as barriers.
func WithParallelism(n int) CampaignOption {
	return func(c *campaignConfig) { c.parallel = n }
}

// WithBatchSize sets how many runs execute between stop-rule
// evaluations and progress callbacks (default 250). Batching never
// changes the measured series, only the stop granularity.
func WithBatchSize(n int) CampaignOption {
	return func(c *campaignConfig) { c.batch = n }
}

// WithStopRule installs the early-stopping rule (default: FixedRuns at
// the WithRuns budget). Rules may be stateful; use a fresh rule per
// campaign.
func WithStopRule(r StopRule) CampaignOption {
	return func(c *campaignConfig) { c.rule = r }
}

// WithProgress installs a callback invoked after every batch with the
// incremental analysis snapshot. The callback runs on the campaign
// goroutine between batches; keep it fast.
func WithProgress(fn func(Progress)) CampaignOption {
	return func(c *campaignConfig) { c.progress = fn }
}

// WithAnalyzerOptions sets the analyzer options used both for the
// incremental refits and the final per-path analysis (zero value:
// paper defaults).
func WithAnalyzerOptions(o Options) CampaignOption {
	return func(c *campaignConfig) { c.analysis = o }
}

// WithQuantileGate enables the nine-decile identical-distribution gate
// alongside the i.i.d. gate: each snapshot (and the final analysis)
// compares the series halves decile by decile with bounded family-wise
// false positives, catching upper-quantile drift the whole-
// distribution KS test misses and reporting a posterior leak
// probability. alpha is the family-wise false-positive budget
// (0 selects the default 0.01). Apply after WithAnalyzerOptions when
// combining the two: WithAnalyzerOptions replaces the whole option
// set.
func WithQuantileGate(alpha float64) CampaignOption {
	return func(c *campaignConfig) {
		c.analysis.QuantileGate = true
		c.analysis.QuantileGateAlpha = alpha
	}
}

// WithFaultInjection attaches the deterministic SEU injector to the
// campaign: each run draws Poisson(cfg.Rate) upsets from its own run
// seed, is classified (masked / timing-perturbed / wrong-output /
// hung), and — when not clean — is quarantined so the i.i.d. gate and
// the tail fit only see fault-free measurements. Rate 0 leaves the
// measured series bit-identical to a campaign without injection. The
// per-outcome tally appears in Progress snapshots and in
// CampaignReport.Faults.
//
// Injection decorates the campaign's boards, so it composes with
// WithExecutorPool: the pool's in-process executors run the decorated
// boards (remote executors never take such a campaign) and the report
// fingerprints as a local one does. cfg.Telemetry's upset counters
// count executions, which on a pool can exceed the delivered runs; the
// report's tally counts delivered runs only.
func WithFaultInjection(cfg FaultConfig) CampaignOption {
	return func(c *campaignConfig) { c.faults = &cfg }
}

// WithRunTimeout bounds each run attempt's wall-clock duration; an
// attempt exceeding it fails with an error matching ErrRunTimeout and
// is retried under WithRetry (default: no per-run deadline).
func WithRunTimeout(d time.Duration) CampaignOption {
	return func(c *campaignConfig) { c.runTimeout = d }
}

// WithRetry re-executes runs failing with a genuine error (worker
// fault, timeout) up to maxAttempts total attempts, sleeping backoff,
// 2*backoff, ... between attempts. Retries reuse the same per-run seed,
// so a retried run yields exactly the result a first-attempt success
// would have. Quarantined fault outcomes are not errors and never
// retry.
func WithRetry(maxAttempts int, backoff time.Duration) CampaignOption {
	return func(c *campaignConfig) {
		c.retry = platform.RetryPolicy{MaxAttempts: maxAttempts, Backoff: backoff}
	}
}

// WithSupervision bounds executor restarts, locally and on the
// in-process executors of a WithExecutorPool pool alike. An executor
// whose run panics or times out past its retry budget is restarted on a
// fresh simulated board with exponential backoff, its lease re-queued
// under the original seeds — a recovered hiccup leaves no trace in the
// measured series. After maxRestarts consecutive restarts with no
// completed run in between the campaign degrades: completed runs are
// flushed to the journal and the partial report is returned with an
// error matching ErrDegraded. maxRestarts 0 selects the default budget
// of 8; negative disables restarts (a panic then aborts the campaign
// like any run error). backoff 0 selects 10ms. A remote executor's
// failure re-leases its lease instead, up to three attempts.
func WithSupervision(maxRestarts int, backoff time.Duration) CampaignOption {
	return func(c *campaignConfig) {
		c.supervise = platform.SupervisionPolicy{MaxRestarts: maxRestarts, Backoff: backoff}
	}
}

// WithJournal makes the campaign crash-safe: every completed run and a
// per-batch checkpoint of the incremental analyzer state are written to
// an append-only, checksummed write-ahead log at path (created or
// truncated), fsynced once per batch. A campaign killed at any instant
// can be continued with Resume, producing results bit-identical to an
// uninterrupted campaign. Without this option the campaign does no
// durability work at all — the run loop is bit-identical and
// allocation-identical to pre-journal behavior.
func WithJournal(path string) CampaignOption {
	return func(c *campaignConfig) { c.journal = path }
}

// WithRunCache installs a memoized run source consulted before any
// simulation: runs for which lookup returns (result, true) are served
// from the cache — skipping the board, fault injection, timeouts and
// retries — while misses execute normally. Because the platform
// protocol makes every result a pure function of (workload, run index,
// seed), a campaign served partly from cache is bit-identical to one
// simulated end to end; this is what lets the scenario-matrix runner
// (internal/matrix) share one set of raw run samples between cells
// that differ only in analysis parameters, and extend — rather than
// restart — a cached prefix when a cell needs more runs. lookup must
// be safe for concurrent calls and must answer consistently for the
// campaign's lifetime.
func WithRunCache(lookup func(run int) (RunResult, bool)) CampaignOption {
	return func(c *campaignConfig) { c.cached = lookup }
}

// WithJournalSink attaches a caller-managed Journal to the campaign:
// the engine calls LogRun for every completed run in order, Barrier
// after each batch and Flush on an interrupted campaign, exactly as
// with WithJournal, but the implementation — and the file lifecycle —
// is the caller's. The matrix run cache uses this to append only the
// runs beyond its cached prefix to a per-key journal. Mutually
// exclusive with WithJournal.
func WithJournalSink(j Journal) CampaignOption {
	return func(c *campaignConfig) { c.journalSink = j }
}

// WithTelemetry attaches a telemetry registry to the campaign: the
// engine harvests simulator and campaign instruments (cache/TLB hit
// rates, IPC, runs/s, fault tallies) at each batch barrier, the
// incremental analyzer publishes gate p-values, block-maxima discards
// and the pWCET trajectory, and the structured event stream
// (campaign_start, run, batch, analysis, campaign_end) flows to every
// sink attached to reg. A nil reg — or omitting the option — disables
// telemetry entirely; the campaign is then bit-identical and
// allocation-identical to one without it.
func WithTelemetry(reg *Telemetry) CampaignOption {
	return func(c *campaignConfig) { c.telemetry = reg }
}

// WithExecutorPool executes the campaign's runs on a shared campaign
// fabric pool (see NewFabricPool and cmd/pwcetd) instead of private
// in-process executors: many concurrent campaigns multiplex over the
// pool's executors with fair scheduling and bounded backpressure. The
// campaign runs the same session engine as a local one, so the report's
// fingerprint equals that of a single-process campaign with the same
// seed and budget, WithSupervision governs the pool's in-process
// executors, and Resume continues a journal on the pool.
// WithFaultInjection campaigns run on the pool's in-process executors
// only; WithCoRunners is rejected. WithParallelism is a pool-side
// concern and is ignored under a pool, as are WithRetry and
// WithSupervision on remote executors.
func WithExecutorPool(pool *FabricPool) CampaignOption {
	return func(c *campaignConfig) { c.pool = pool }
}

// WithCoRunners co-simulates the campaign on a multicore board: the
// measured workload runs on core 0 while each co-runner loops on its
// own core, all contending for the shared bus and DRAM, timestamp-
// ordered by the arbiter. Results stay deterministic — run i uses seed
// DeriveRunSeed(base, i) regardless of parallelism — so multicore
// campaigns compose with journaling, stop rules and progress exactly
// like single-core ones. Incompatible with WithFaultInjection (the SEU
// injector targets single-core boards) and with WithExecutorPool:
// co-runner campaigns on a pool have not been measured yet, so they
// stay on private executors.
func WithCoRunners(coRunners ...Workload) CampaignOption {
	return func(c *campaignConfig) { c.coRunners = coRunners }
}

// MeasureOnly skips the final per-path analysis: the report carries
// the measured campaign and snapshots but a nil Analysis. Use it to
// collect traces for external tooling (or platforms expected to fail
// the i.i.d. gate, such as DET).
func MeasureOnly() CampaignOption {
	return func(c *campaignConfig) { c.measureOnly = true }
}

// CampaignReport is the outcome of a streaming campaign.
type CampaignReport struct {
	// Campaign is the measured series, in run order (exactly the runs
	// executed before the stop rule fired).
	Campaign *CampaignResult
	// Analysis is the final per-path MBPTA analysis (nil under
	// MeasureOnly, or when the final analysis failed).
	Analysis *Result
	// Snapshots is the per-batch incremental analysis trace.
	Snapshots []Progress
	// Converged reports whether the stop rule fired before the run
	// budget ran out; StopRuns is the run count at that point (clean and
	// quarantined runs both count against the budget).
	Converged bool
	StopRuns  int
	// Rule names the stop rule that governed the campaign.
	Rule string
	// Faults tallies run outcomes. Without WithFaultInjection every run
	// is clean and the per-outcome map is empty.
	Faults FaultSummary
}

// TraceSet packages the measured campaign for persistence (WriteTraceCSV
// / WriteTraceJSON) or re-analysis. Quarantined runs are excluded: the
// trace format carries clean measurements only, so re-analyzing an
// exported trace sees exactly what the campaign's own analysis saw.
func (r *CampaignReport) TraceSet() *TraceSet {
	set := &trace.Set{Platform: r.Campaign.Platform, Workload: r.Campaign.Workload}
	for i, res := range r.Campaign.Results {
		if res.Quarantined() {
			continue
		}
		set.Samples = append(set.Samples, trace.Sample{Run: i, Cycles: res.Cycles, Path: res.Path})
	}
	return set
}

// Campaign executes a streaming measurement campaign of w on a platform
// built from cfg and analyzes it incrementally — the v2 entry point of
// this package. Runs execute in deterministic batches (run i always
// uses seed DeriveRunSeed(base, i), so neither parallelism nor batch
// size changes results); after each batch the i.i.d. gate is re-run,
// the pooled Gumbel tail refitted, and the stop rule evaluated, so a
// converging campaign stops early instead of always paying the paper's
// fixed 3,000 runs.
//
//	rep, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), app,
//		mbpta.WithRuns(3000),
//		mbpta.WithBaseSeed(42),
//		mbpta.WithStopRule(mbpta.PWCETDelta(1e-12, 0.01, 2)))
//	bound, _ := rep.Analysis.PWCET(1e-12)
//
// Error contract (all match errors.Is):
//   - ErrCanceled: ctx was canceled mid-campaign. With WithJournal the
//     completed-run prefix is flushed and the partial report returned;
//     otherwise the report is nil.
//   - ErrDegraded: the worker-restart budget ran out (see
//     WithSupervision); the partial report over the runs completed
//     before degradation is returned.
//   - ErrNotConverged: the budget ran out before the rule fired; the
//     full report is still returned so callers may keep the estimate.
//   - ErrIIDGateFailed: the final analysis rejected the i.i.d. gate;
//     the report (with nil Analysis) is returned for diagnosis.
func Campaign(ctx context.Context, cfg PlatformConfig, w Workload, opts ...CampaignOption) (*CampaignReport, error) {
	c := resolveCampaignConfig(opts)
	if err := c.validate(); err != nil {
		return nil, err
	}
	online := core.NewOnlineAnalyzer(c.analysis, c.rule)
	online.SetTelemetry(c.telemetry)
	so := c.streamOptions(cfg)
	if c.journal != "" {
		jw, err := wal.Create(c.journal, c.meta(cfg, w), c.telemetry)
		if err != nil {
			return nil, err
		}
		journal := wal.NewCampaignJournal(jw, online.MarshalState)
		defer journal.Close()
		so.Journal = journal
	}
	return c.execute(ctx, cfg, w, online, so)
}

// Resume continues the journaled campaign at journalPath after a crash
// or cancellation. opts must reproduce the original campaign's
// configuration: the journal's identity record (platform, workload,
// base seed, run budget, batch size) is validated against it and a
// mismatch is an error, because replaying a journal into a different
// campaign would silently break bit-identity. The incremental analyzer
// is restored from the last checkpoint, already-journaled runs are not
// re-executed (a cancellation-flushed partial batch fills the head of
// its batch and only the missing seeds run), and the journal keeps
// extending in place, so a campaign can crash and resume any number of
// times. The resulting report — measured series, snapshot trace,
// convergence verdict, final analysis — is bit-identical to that of an
// uninterrupted campaign, as is the telemetry event stream when
// WithTelemetry is set (already-journaled batches are re-emitted before
// execution continues; simulator-level counters of the crashed process
// are the one exclusion, as they live and die with its boards). With
// WithExecutorPool the campaign resumes on the pool: the local engine
// and the pool run the same session, which seeds its merge watermark
// from the journal prefix, so a journal written locally resumes on a
// pool and vice versa.
//
// A torn tail or corrupted record truncates the journal to its last
// valid checkpoint and resumes from there; only a damaged header or
// identity record fails, with IsJournalCorrupt(err) true and the bad
// byte offset in the message. Resuming a journal whose campaign had
// already finished re-derives the report without executing any runs.
// The error contract is Campaign's.
func Resume(ctx context.Context, cfg PlatformConfig, w Workload, journalPath string, opts ...CampaignOption) (*CampaignReport, error) {
	c := resolveCampaignConfig(opts)
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.journalSink != nil {
		return nil, errors.New("mbpta: WithJournalSink is not supported with Resume; Resume manages the journal itself")
	}
	plan, err := wal.PrepareResume(journalPath, c.telemetry)
	if err != nil {
		return nil, err
	}
	if err := plan.Meta.Validate(c.meta(cfg, w)); err != nil {
		plan.Writer.Close()
		return nil, err
	}
	var online *core.OnlineAnalyzer
	if plan.State != nil {
		online, err = core.RestoreOnlineAnalyzer(c.analysis, c.rule, plan.State)
		if err != nil {
			plan.Writer.Close()
			return nil, fmt.Errorf("mbpta: restore analyzer state from %s: %w", journalPath, err)
		}
	} else {
		online = core.NewOnlineAnalyzer(c.analysis, c.rule)
	}
	online.SetTelemetry(c.telemetry)

	so := c.streamOptions(cfg)
	journal := wal.NewCampaignJournal(plan.Writer, online.MarshalState)
	defer journal.Close()
	so.Journal = journal
	rs := plan.Resume
	rs.Stopped = online.Done()
	so.Resume = &rs
	// The engine re-emits each journaled batch's run and batch events;
	// the batch's analysis event follows, as in the live campaign.
	so.Replay = online.PublishSnapshot
	return c.execute(ctx, cfg, w, online, so)
}

// resolveCampaignConfig applies opts over the defaults.
func resolveCampaignConfig(opts []CampaignOption) *campaignConfig {
	c := &campaignConfig{runs: 3000, batch: 250}
	for _, opt := range opts {
		opt(c)
	}
	if c.rule == nil {
		c.rule = FixedRuns(c.runs)
	}
	return c
}

// meta is the campaign-identity record journaled at creation and
// validated on resume.
func (c *campaignConfig) meta(cfg PlatformConfig, w Workload) wal.Meta {
	return wal.Meta{
		Platform:  cfg.Name,
		Workload:  w.Name(),
		BaseSeed:  c.seed,
		MaxRuns:   c.runs,
		BatchSize: c.batch,
	}
}

// validate rejects option combinations the engine cannot honor.
func (c *campaignConfig) validate() error {
	if c.faults != nil && len(c.coRunners) > 0 {
		return errors.New("mbpta: WithFaultInjection targets single-core boards and is incompatible with WithCoRunners")
	}
	// A pool executor builds a fresh board whenever it switches
	// sessions or idles, and what that costs a Multicore board with
	// co-runner traces to re-record has not been measured: co-runner
	// campaigns stay local until it has.
	if c.pool != nil && len(c.coRunners) > 0 {
		return errors.New("mbpta: WithCoRunners is not supported on an executor pool")
	}
	if c.journal != "" && c.journalSink != nil {
		return errors.New("mbpta: WithJournal and WithJournalSink are mutually exclusive")
	}
	return nil
}

func (c *campaignConfig) streamOptions(cfg PlatformConfig) platform.StreamOptions {
	so := platform.StreamOptions{
		MaxRuns:    c.runs,
		BatchSize:  c.batch,
		Parallel:   c.parallel,
		BaseSeed:   c.seed,
		Cached:     c.cached,
		RunTimeout: c.runTimeout,
		Retry:      c.retry,
		Supervise:  c.supervise,
		Journal:    c.journalSink,
		Telemetry:  c.telemetry,
	}
	if len(c.coRunners) > 0 {
		cr := c.coRunners
		so.NewBoard = func() (platform.Board, error) { return platform.NewMulticore(cfg, cr) }
	}
	return so
}

// execute runs the streaming engine with the incremental analyzer as
// sink and assembles the report — the shared tail of Campaign and
// Resume.
func (c *campaignConfig) execute(ctx context.Context, cfg PlatformConfig, w Workload, online *core.OnlineAnalyzer, so platform.StreamOptions) (*CampaignReport, error) {
	sink := func(b platform.Batch) (bool, error) {
		obs := make([]core.Observation, len(b.Results))
		for i, r := range b.Results {
			obs[i] = core.Observation{
				Cycles:    float64(r.Cycles),
				Path:      r.Path,
				Outcome:   r.Outcome,
				Mitigated: platform.MitigatedOutcome(r.Outcome),
			}
		}
		snap, err := online.ObserveBatch(obs)
		if err != nil {
			return false, err
		}
		if c.progress != nil {
			c.progress(snap)
		}
		return snap.Done, nil
	}
	var inj *faults.Injector
	if c.faults != nil {
		if c.faults.Telemetry == nil {
			c.faults.Telemetry = c.telemetry
		}
		var ierr error
		inj, ierr = faults.New(*c.faults)
		if ierr != nil {
			return nil, ierr
		}
		so.NewBoard = inj.NewBoard(cfg)
	}
	var camp *CampaignResult
	var err error
	if c.pool != nil {
		camp, err = c.pool.StreamCampaign(ctx, cfg, w, so, sink)
	} else {
		camp, err = platform.StreamCampaign(ctx, cfg, w, so, sink)
	}
	if err != nil {
		if camp == nil || !(errors.Is(err, ErrCanceled) || errors.Is(err, ErrDegraded)) {
			return nil, err
		}
		// Interrupted mid-campaign with the completed prefix intact:
		// report what was measured. The analyzer has observed only the
		// complete batches, so its snapshots and final analysis cover a
		// statistically clean (barrier-aligned) sample; the interruption
		// error stays primary, so a failed final fit is not reported.
		rep := c.report(camp, online, inj)
		if !c.measureOnly {
			if res, aerr := online.Finalize(); aerr == nil {
				rep.Analysis = res
			}
		}
		return rep, err
	}

	rep := c.report(camp, online, inj)
	if !c.measureOnly {
		res, aerr := online.Finalize()
		if aerr != nil {
			return rep, aerr
		}
		rep.Analysis = res
	}
	if !rep.Converged {
		return rep, fmt.Errorf("%w: rule %s unsatisfied after %d runs",
			ErrNotConverged, rep.Rule, rep.StopRuns)
	}
	return rep, nil
}

func (c *campaignConfig) report(camp *CampaignResult, online *core.OnlineAnalyzer, inj *faults.Injector) *CampaignReport {
	rep := &CampaignReport{
		Campaign:  camp,
		Snapshots: online.Snapshots(),
		Converged: online.Done(),
		StopRuns:  len(camp.Results),
		Rule:      c.rule.Name(),
		Faults:    faults.Summarize(camp.Results),
	}
	if inj != nil {
		// Only the injector knows how many Poisson draws hit the fault
		// cap — the truncation is invisible in the per-run results.
		rep.Faults.ClampedRuns = inj.ClampedRuns(c.seed, len(camp.Results))
	}
	return rep
}
