package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/tvca"
	"repro/internal/wal"
	"repro/pkg/mbpta"
)

// campaignBatch is the paper protocol's batch size.
const campaignBatch = 250

// campaignWorkload is a journaled measurement campaign of TVCA on the
// RAND platform with one worker: one worker keeps the simulator the only
// busy thread, which is what makes host time repeatable on a small
// machine.
type campaignWorkload struct {
	frames    int // TVCA minor frames per run
	coRunners int // memory-streamer co-runners; > 0 co-simulates a multicore board
	runs      func(sizes) int
}

// paperTVCA is the paper's protocol: 16-frame TVCA, 3,000 runs in
// batches of 250. Simulation is ~99.9% of its time.
var paperTVCA = campaignWorkload{frames: 16, runs: func(s sizes) int { return s.tvcaRuns }}

// contention4Core runs 4-frame TVCA on core 0 of a 4-core board against
// three streamers, so bus and DRAM arbitration dominate — the multicore
// co-simulator paper_tvca never enters.
var contention4Core = campaignWorkload{frames: 4, coRunners: 3, runs: func(s sizes) int { return s.contentionRuns }}

// campaignInputs is what a campaign's set-up builds.
type campaignInputs struct {
	cfg platform.Config
	app platform.Workload
	co  []platform.Workload
}

// setup generates the TVCA program and the co-runners.
func (cw campaignWorkload) setup() (campaignInputs, error) {
	tc := tvca.DefaultConfig()
	tc.Frames = cw.frames
	app, err := tvca.New(tc)
	if err != nil {
		return campaignInputs{}, err
	}
	in := campaignInputs{cfg: platform.RAND(), app: app}
	for i := 0; i < cw.coRunners; i++ {
		in.co = append(in.co, experiments.StreamerWorkload{Lines: 1024})
	}
	return in, nil
}

// options are campaign k's options on the public API. Campaign k uses
// base seed seed+k.
func (cw campaignWorkload) options(e env, in campaignInputs, k int, journal string) []mbpta.CampaignOption {
	opts := []mbpta.CampaignOption{
		mbpta.WithRuns(cw.runs(e.size)),
		mbpta.WithBatchSize(campaignBatch),
		mbpta.WithParallelism(1),
		mbpta.WithBaseSeed(e.seed + uint64(k)),
		mbpta.WithJournal(journal),
	}
	if len(in.co) > 0 {
		opts = append(opts, mbpta.WithCoRunners(in.co...))
	}
	return opts
}

// timed runs whole campaigns through mbpta.Campaign until the run's
// seconds are up. Latency is per run, averaged over windows of
// runWindow consecutive runs: single-run host times have a second mode
// (about one TVCA run in ten takes twice the typical time), and p80 of
// single runs sits on its shoulder, where it jumps from run to run. Run
// starts are taken through the engine's run-cache hook, which is
// consulted before every run and never hits.
func (cw campaignWorkload) timed(ctx context.Context, e env, c *checks) (*timedRun, error) {
	in, setups, err := repeatSetup(e.size.setups, cw.setup, func(campaignInputs) {})
	if err != nil {
		return nil, err
	}
	tr := &timedRun{setups: setups}
	starts := make([]time.Time, cw.runs(e.size))
	observe := mbpta.WithRunCache(func(run int) (mbpta.RunResult, bool) {
		starts[run] = time.Now()
		return mbpta.RunResult{}, false
	})
	var reps []*mbpta.CampaignReport
	tr.wall, tr.cpu, err = measure(func() error {
		begin := time.Now()
		for k := 0; k == 0 || e.more(begin, len(tr.latencies)); k++ {
			journal := filepath.Join(e.dir, fmt.Sprintf("campaign-%d.wal", k))
			rep, err := mbpta.Campaign(ctx, in.cfg, in.app, append(cw.options(e, in, k, journal), observe)...)
			tr.attempted++
			if campaignFailed(rep, err) {
				tr.failed++
				if ctx.Err() != nil {
					return ctx.Err()
				}
				continue
			}
			w := e.size.runWindow
			for i := w; i < len(rep.Campaign.Results); i += w {
				tr.latencies = append(tr.latencies, starts[i].Sub(starts[i-w]).Seconds()/float64(w))
			}
			tr.runs += len(rep.Campaign.Results)
			reps = append(reps, rep)
			if err := os.Remove(journal); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rep := range reps {
		checkCampaign(c, rep, cw.runs(e.size))
	}
	if len(reps) > 0 {
		tr.golden = reps[0].Fingerprint()
	}
	return tr, nil
}

// traced composes campaign 0 from the engine's parts and runs it
// twice, untraced and then with every hook traced. Both must
// fingerprint identically; at the default seed the traced one is also
// held to the golden digest of the public mbpta.Campaign path.
func (cw campaignWorkload) traced(ctx context.Context, e env, t *tracer, c *checks) (*tracedRun, error) {
	in, err := cw.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	run := func(t *tracer, journal string) (rep *mbpta.CampaignReport, fp string, wall float64, err error) {
		wall, _, err = measure(func() (err error) {
			rep, fp, err = cw.composedCampaign(ctx, e, in, t, filepath.Join(e.dir, journal))
			return err
		})
		return rep, fp, wall, err
	}
	_, want, untraced, err := run(nil, "untraced.wal")
	if err != nil {
		return nil, err
	}
	rep, got, traced, err := run(t, "traced.wal")
	if err != nil {
		return nil, err
	}
	if got != want {
		c.failf("traced campaign fingerprints %s, untraced %s", got, want)
	}
	checkCampaign(c, rep, cw.runs(e.size))
	t.replay(rep.Campaign.Times(), rep.Snapshots, core.Options{})
	return &tracedRun{untraced: untraced, traced: traced, attempted: 2, golden: got}, nil
}

// composedCampaign is mbpta.Campaign's local path assembled from the
// engine's parts, with the board factory, the journal and the batch
// sink decorated by t (nil: undecorated).
func (cw campaignWorkload) composedCampaign(ctx context.Context, e env, in campaignInputs, t *tracer, path string) (*mbpta.CampaignReport, string, error) {
	s := t.root("bench.campaign")
	defer s.end()
	runs := cw.runs(e.size)
	rule := core.FixedRuns(runs)
	online := core.NewOnlineAnalyzer(core.Options{}, rule)

	start := time.Now()
	jw, err := wal.Create(path, wal.Meta{
		Platform: in.cfg.Name, Workload: in.app.Name(), BaseSeed: e.seed, MaxRuns: runs, BatchSize: campaignBatch,
	}, nil)
	s.leaf("wal.create", start)
	if err != nil {
		return nil, "", err
	}
	journal := wal.NewCampaignJournal(jw, online.MarshalState)
	build := func() (platform.Board, error) { return platform.New(in.cfg) }
	if len(in.co) > 0 {
		build = func() (platform.Board, error) { return platform.NewMulticore(in.cfg, in.co) }
	}
	so := platform.StreamOptions{
		MaxRuns:   runs,
		BatchSize: campaignBatch,
		Parallel:  1,
		BaseSeed:  e.seed,
		NewBoard:  s.boards(build),
		Journal:   s.journal(journal, false),
	}
	camp, err := platform.StreamCampaign(ctx, in.cfg, in.app, so, s.sink(online))
	if err != nil {
		journal.Close()
		return nil, "", err
	}
	rep, rerr := s.report(camp, online, rule)
	fp := s.fingerprint(rep)

	start = time.Now()
	err = journal.Close()
	s.leaf("wal.close", start)
	if err != nil {
		return nil, "", err
	}
	if campaignFailed(rep, rerr) {
		return nil, "", rerr
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, "", err
	}
	t.count("wal.runs_logged", float64(jw.Runs()))
	t.count("wal.bytes", float64(fi.Size()))
	return rep, fp, nil
}

// checkCampaign holds on any seed: the campaign ran its full budget,
// and a fitted pWCET(1e-12) bounds every measured run.
func checkCampaign(c *checks, rep *mbpta.CampaignReport, runs int) {
	if rep.StopRuns != runs || len(rep.Campaign.Results) != runs {
		c.failf("campaign stopped after %d of %d runs", rep.StopRuns, runs)
	}
	if rep.Analysis == nil {
		return // an analysis verdict: there is no curve to check
	}
	hwm := 0.0
	for _, t := range rep.Campaign.Times() {
		hwm = max(hwm, t)
	}
	bound, err := rep.Analysis.PWCET(1e-12)
	if err != nil {
		c.failf("pWCET(1e-12): %v", err)
	} else if bound < hwm {
		c.failf("pWCET(1e-12) = %.0f cycles is below the high-water mark %.0f", bound, hwm)
	}
}

// campaignFailed reports whether a campaign failed, by the rule
// matrix.Runner and pwcetd apply: an error that comes with a report is
// an analysis verdict on valid measurements (the i.i.d. gate rejecting
// the series, the stop rule not converging, a tail that cannot be
// fitted), unless the campaign was interrupted before its end.
func campaignFailed(rep *mbpta.CampaignReport, err error) bool {
	return rep == nil || errors.Is(err, mbpta.ErrCanceled) || errors.Is(err, mbpta.ErrDegraded)
}
