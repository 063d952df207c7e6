package mbpta_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/pkg/mbpta"
)

// journalOpts is the shared campaign configuration of the durability
// tests: small enough to run fast, large enough for several barriers.
func journalOpts(extra ...mbpta.CampaignOption) []mbpta.CampaignOption {
	opts := []mbpta.CampaignOption{
		mbpta.WithRuns(120),
		mbpta.WithBatchSize(20),
		mbpta.WithBaseSeed(42),
		mbpta.WithParallelism(3),
		mbpta.MeasureOnly(),
	}
	return append(opts, extra...)
}

// campaignWithEvents runs fn with a telemetry registry streaming JSONL
// into a buffer and returns the report, the error, and the event bytes.
func campaignWithEvents(t *testing.T, fn func(reg *mbpta.Telemetry) (*mbpta.CampaignReport, error)) (*mbpta.CampaignReport, []byte, error) {
	t.Helper()
	reg := mbpta.NewTelemetry()
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	reg.Attach(sink)
	rep, err := fn(reg)
	if ferr := sink.Flush(); ferr != nil {
		t.Fatalf("flush telemetry: %v", ferr)
	}
	return rep, buf.Bytes(), err
}

// truncateCopy writes the first n bytes of src to a new file —
// simulating a campaign killed at exactly that journal offset.
func truncateCopy(t *testing.T, src string, n int64) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if n > int64(len(data)) {
		t.Fatalf("truncateCopy: offset %d past end %d", n, len(data))
	}
	dst := filepath.Join(t.TempDir(), "killed.wal")
	if err := os.WriteFile(dst, data[:n], 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestJournalCrashResumeBitIdentical is the durability invariant:
// a journaled campaign killed at any batch boundary (and at a torn
// write inside a record) and resumed must produce a report fingerprint
// and a telemetry JSONL stream byte-identical to an uninterrupted
// campaign's.
func TestJournalCrashResumeBitIdentical(t *testing.T) {
	app := smallApp(t)

	refRep, refEvents, refErr := campaignWithEvents(t, func(reg *mbpta.Telemetry) (*mbpta.CampaignReport, error) {
		return mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
			journalOpts(mbpta.WithTelemetry(reg))...)
	})
	if refErr != nil {
		t.Fatal(refErr)
	}
	refFP := refRep.Fingerprint()

	// A journaled campaign run to completion must already be
	// bit-identical to the unjournaled reference.
	journal := filepath.Join(t.TempDir(), "campaign.wal")
	fullRep, fullEvents, fullErr := campaignWithEvents(t, func(reg *mbpta.Telemetry) (*mbpta.CampaignReport, error) {
		return mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
			journalOpts(mbpta.WithTelemetry(reg), mbpta.WithJournal(journal))...)
	})
	if fullErr != nil {
		t.Fatal(fullErr)
	}
	if got := fullRep.Fingerprint(); got != refFP {
		t.Fatalf("journaled campaign fingerprint diverges from unjournaled:\n got %s\nwant %s", got, refFP)
	}
	if !bytes.Equal(fullEvents, refEvents) {
		t.Fatal("journaled campaign telemetry JSONL diverges from unjournaled")
	}

	rec, err := wal.Recover(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Checkpoints) != 6 {
		t.Fatalf("%d checkpoints journaled, want 6", len(rec.Checkpoints))
	}

	// Kill points: after the first, a middle, and the last-but-one
	// barrier fsync (clean truncations), plus a torn write 3 bytes into
	// the record that follows a checkpoint (recovery must truncate back
	// to that checkpoint and still resume bit-identically).
	marks := rec.Checkpoints
	kills := []struct {
		name string
		off  int64
	}{
		{"after-first-barrier", marks[0].End},
		{"after-middle-barrier", marks[2].End},
		{"after-last-but-one-barrier", marks[4].End},
		{"torn-record-tail", marks[1].End + 3},
	}
	// Each kill point resumes locally and, in the "-on-pool" mode, on an
	// executor pool: both run the same session engine, so the pool seeds
	// its watermark from the journal prefix exactly as a local resume.
	pool := fabric.NewPool(fabric.Config{Executors: 2})
	defer pool.Close()
	modes := []struct {
		suffix string
		opts   []mbpta.CampaignOption
	}{
		{"", nil},
		{"-on-pool", []mbpta.CampaignOption{mbpta.WithExecutorPool(pool)}},
	}
	for _, kp := range kills {
		for _, mode := range modes {
			t.Run(kp.name+mode.suffix, func(t *testing.T) {
				resumeKilled(t, app, journal, kp.off, refFP, refEvents, mode.opts)
			})
		}
	}
}

// resumeKilled resumes a copy of journal truncated at off and requires
// the uninterrupted campaign's fingerprint and telemetry JSONL, and a
// complete repaired journal.
func resumeKilled(t *testing.T, app mbpta.Workload, journal string, off int64, refFP string, refEvents []byte, extra []mbpta.CampaignOption) {
	t.Helper()
	killed := truncateCopy(t, journal, off)
	rep, events, err := campaignWithEvents(t, func(reg *mbpta.Telemetry) (*mbpta.CampaignReport, error) {
		return mbpta.Resume(context.Background(), mbpta.RANDPlatform(), app, killed,
			journalOpts(append(extra, mbpta.WithTelemetry(reg))...)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Fingerprint(); got != refFP {
		t.Fatalf("resumed fingerprint diverges:\n got %s\nwant %s", got, refFP)
	}
	if !bytes.Equal(events, refEvents) {
		t.Fatal("resumed telemetry JSONL diverges from uninterrupted campaign")
	}
	// The repaired journal must now itself be complete and valid.
	rec2, err := wal.Recover(killed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Runs) != 120 || rec2.Checkpoint == nil || rec2.Checkpoint.Runs != 120 {
		t.Fatalf("resumed journal incomplete: %d runs, checkpoint %+v", len(rec2.Runs), rec2.Checkpoint)
	}
}

// TestJournalResumeBeforeFirstBarrier kills the campaign before any
// checkpoint exists: resume must start from scratch and still match.
func TestJournalResumeBeforeFirstBarrier(t *testing.T) {
	app := smallApp(t)
	ref, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app, journalOpts()...)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "campaign.wal")
	if _, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		journalOpts(mbpta.WithJournal(journal))...); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the first batch's run records, before the first
	// checkpoint: recovery keeps no runs.
	killed := truncateCopy(t, journal, rec.Checkpoints[0].End/2)
	rep, err := mbpta.Resume(context.Background(), mbpta.RANDPlatform(), app, killed, journalOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("resume-from-scratch fingerprint diverges:\n got %s\nwant %s", got, want)
	}
}

// TestJournalResumeWithStopRule crashes a convergence-driven campaign
// before its stop rule fires; the restored rule state must make the
// resumed campaign stop at the same batch with identical results.
func TestJournalResumeWithStopRule(t *testing.T) {
	app := smallApp(t)
	opts := func(extra ...mbpta.CampaignOption) []mbpta.CampaignOption {
		o := []mbpta.CampaignOption{
			mbpta.WithRuns(300),
			mbpta.WithBatchSize(25),
			mbpta.WithBaseSeed(7),
			mbpta.WithAnalyzerOptions(mbpta.Options{BlockSize: 10}),
			mbpta.WithStopRule(mbpta.CRPSConverged(1e3, 3)),
			mbpta.MeasureOnly(),
		}
		return append(o, extra...)
	}
	ref, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged || ref.StopRuns >= 300 {
		t.Fatalf("reference campaign did not stop early: converged=%v runs=%d", ref.Converged, ref.StopRuns)
	}

	journal := filepath.Join(t.TempDir(), "campaign.wal")
	if _, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		opts(mbpta.WithJournal(journal))...); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Checkpoints) < 2 {
		t.Fatalf("%d checkpoints, need >= 2 to kill mid-campaign", len(rec.Checkpoints))
	}
	// Kill one barrier before the stop point: the resumed rule must
	// carry its convergence streak across the restore.
	killed := truncateCopy(t, journal, rec.Checkpoints[len(rec.Checkpoints)-2].End)
	rep, err := mbpta.Resume(context.Background(), mbpta.RANDPlatform(), app, killed, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("stop-rule resume fingerprint diverges:\n got %s\nwant %s", got, want)
	}
	if rep.StopRuns != ref.StopRuns {
		t.Fatalf("resumed campaign stopped at %d runs, reference at %d", rep.StopRuns, ref.StopRuns)
	}
}

// TestJournalResumeCompleted resumes a journal whose campaign already
// finished: no runs execute, and the report is re-derived bit-identical.
func TestJournalResumeCompleted(t *testing.T) {
	app := smallApp(t)
	journal := filepath.Join(t.TempDir(), "campaign.wal")
	ref, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		journalOpts(mbpta.WithJournal(journal))...)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mbpta.Resume(context.Background(), mbpta.RANDPlatform(), app, journal, journalOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("completed-journal resume diverges:\n got %s\nwant %s", got, want)
	}
	after, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("resuming a completed journal grew it: %d -> %d bytes", before.Size(), after.Size())
	}
}

// TestResumeRejectsMismatchedConfig: a journal replayed against a
// different campaign configuration would silently break bit-identity,
// so it must be refused.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	app := smallApp(t)
	journal := filepath.Join(t.TempDir(), "campaign.wal")
	if _, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app,
		journalOpts(mbpta.WithJournal(journal))...); err != nil {
		t.Fatal(err)
	}
	_, err := mbpta.Resume(context.Background(), mbpta.RANDPlatform(), app, journal,
		mbpta.WithRuns(120), mbpta.WithBatchSize(20), mbpta.WithBaseSeed(43), mbpta.MeasureOnly())
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("mismatched base seed accepted: %v", err)
	}
}

// TestResumeCorruptJournal: a journal with a destroyed identity record
// is unrecoverable and must fail naming the bad offset.
func TestResumeCorruptJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.wal")
	if err := os.WriteFile(path, []byte("this is not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := mbpta.Resume(context.Background(), mbpta.RANDPlatform(), smallApp(t), path, journalOpts()...)
	if err == nil || !mbpta.IsJournalCorrupt(err) {
		t.Fatalf("corrupt journal not reported as such: %v", err)
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("corruption error does not name an offset: %v", err)
	}
}

// panickyApp wraps the TVCA workload with a worker fault: Prepare
// panics on every run >= failFrom. Delegation keeps runs below the
// fault bit-identical to the plain workload, and Name matches so a
// repaired campaign can resume the same journal.
type panickyApp struct {
	app      *mbpta.TVCA
	failFrom int
}

func (p *panickyApp) Name() string { return p.app.Name() }
func (p *panickyApp) Prepare(run int) (*mbpta.Machine, error) {
	if run >= p.failFrom {
		panic("simulated worker fault")
	}
	return p.app.Prepare(run)
}
func (p *panickyApp) PathOf(m *mbpta.Machine) string { return p.app.PathOf(m) }

// TestCampaignDegradedThenResumed: a campaign whose worker always
// panics must terminate with ErrDegraded and a valid partial report;
// resuming its journal with a repaired workload must then complete
// bit-identically to a never-faulty campaign.
func TestCampaignDegradedThenResumed(t *testing.T) {
	app := smallApp(t)
	ref, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app, journalOpts()...)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "campaign.wal")
	broken := &panickyApp{app: app, failFrom: 47}
	rep, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), broken,
		journalOpts(
			mbpta.WithJournal(journal),
			mbpta.WithSupervision(2, time.Millisecond))...)
	if !errors.Is(err, mbpta.ErrDegraded) {
		t.Fatalf("always-panicking worker: got %v, want ErrDegraded", err)
	}
	if rep == nil || rep.Campaign == nil {
		t.Fatal("degraded campaign returned no partial report")
	}
	if n := len(rep.Campaign.Results); n == 0 || n > 47 {
		t.Fatalf("degraded partial has %d runs, want 1..47", n)
	}
	for i, r := range rep.Campaign.Results {
		if r != ref.Campaign.Results[i] {
			t.Fatalf("degraded partial run %d differs from reference: %+v vs %+v", i, r, ref.Campaign.Results[i])
		}
	}
	if rep.StopRuns != len(rep.Campaign.Results) {
		t.Fatalf("StopRuns %d != partial length %d", rep.StopRuns, len(rep.Campaign.Results))
	}

	resumed, err := mbpta.Resume(context.Background(), mbpta.RANDPlatform(), app, journal, journalOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("repair-and-resume fingerprint diverges:\n got %s\nwant %s", got, want)
	}
}

// TestJournalCanceledFlushThenResumed cancels a journaled campaign
// mid-flight; the flushed completed-run prefix must match the journal,
// and resuming must finish bit-identically.
func TestJournalCanceledFlushThenResumed(t *testing.T) {
	app := smallApp(t)
	ref, err := mbpta.Campaign(context.Background(), mbpta.RANDPlatform(), app, journalOpts()...)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "campaign.wal")
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	rep, err := mbpta.Campaign(ctx, mbpta.RANDPlatform(), app,
		journalOpts(
			mbpta.WithJournal(journal),
			mbpta.WithProgress(func(p mbpta.Progress) {
				if seen++; seen == 2 {
					cancel() // cancel during the third batch
				}
			}))...)
	if !errors.Is(err, mbpta.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if rep == nil {
		t.Fatal("canceled journaled campaign returned no partial report")
	}
	rec, rerr := wal.Recover(journal)
	if rerr != nil {
		t.Fatal(rerr)
	}
	// The partial report and the journal must agree exactly: every
	// completed run was flushed before returning.
	if len(rec.Runs) != len(rep.Campaign.Results) {
		t.Fatalf("journal has %d runs, partial report %d", len(rec.Runs), len(rep.Campaign.Results))
	}
	if len(rec.Runs) < 40 {
		t.Fatalf("journal has %d runs, want >= 40 (two delivered batches)", len(rec.Runs))
	}

	resumed, err := mbpta.Resume(context.Background(), mbpta.RANDPlatform(), app, journal, journalOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("cancel-and-resume fingerprint diverges:\n got %s\nwant %s", got, want)
	}
}
