package wal

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/telemetry"
)

// CampaignJournal adapts a Writer to the campaign engine's
// platform.Journal contract: run records stream in at batch barriers,
// and each Barrier serializes the incremental analyzer state (via the
// state provider) into a checkpoint record and fsyncs. Flush makes
// already-logged runs durable without a checkpoint — the engine calls
// it when a campaign ends mid-batch.
type CampaignJournal struct {
	w     *Writer
	state func() ([]byte, error)
}

// NewCampaignJournal wraps w. state provides the serialized analyzer
// state captured at each barrier (typically core's
// (*OnlineAnalyzer).MarshalState); nil journals runs without
// checkpoint state.
func NewCampaignJournal(w *Writer, state func() ([]byte, error)) *CampaignJournal {
	return &CampaignJournal{w: w, state: state}
}

// LogRun implements platform.Journal.
func (j *CampaignJournal) LogRun(run int, seed uint64, r platform.RunResult) error {
	return j.w.AppendRun(RunRecord{
		Run:          run,
		Seed:         seed,
		Cycles:       r.Cycles,
		Instructions: r.Instructions,
		Faults:       r.Faults,
		Path:         r.Path,
		Outcome:      r.Outcome,
	})
}

// Barrier implements platform.Journal: checkpoint, then fsync.
func (j *CampaignJournal) Barrier(b platform.Batch) error {
	var state []byte
	if j.state != nil {
		var err error
		if state, err = j.state(); err != nil {
			return fmt.Errorf("wal: serialize checkpoint state: %w", err)
		}
	}
	if err := j.w.AppendCheckpoint(Checkpoint{
		Batch: b.Index,
		Runs:  b.Start + len(b.Results),
		State: state,
	}); err != nil {
		return err
	}
	return j.w.Sync()
}

// Flush implements platform.Journal.
func (j *CampaignJournal) Flush() error { return j.w.Sync() }

// Close closes the underlying journal file, syncing it if this
// journal changed it (see Writer.Close).
func (j *CampaignJournal) Close() error { return j.w.Close() }

// ResumePlan is a recovered journal translated into what a campaign
// needs to continue: the identity metadata to validate, the engine
// resume state, the last checkpoint's serialized analyzer state, and a
// Writer positioned to append.
type ResumePlan struct {
	Meta Meta
	// Resume primes platform.StreamCampaign: the journaled result
	// prefix, the delivered (checkpointed) run count, and the next batch
	// index. Resume.Stopped is left false — the caller decides it after
	// restoring the analyzer.
	Resume platform.ResumeState
	// State is the last checkpoint's analyzer state (nil when the crash
	// predates the first barrier).
	State []byte
	// Writer appends to the recovered journal (already truncated to its
	// valid prefix).
	Writer *Writer
	// Recovered exposes the raw recovery outcome (truncation reports,
	// checkpoint marks) for diagnostics.
	Recovered *Recovered
}

// PrepareResume recovers the journal at path and builds a ResumePlan.
// Torn tails and mid-file corruption are repaired by truncating to the
// last valid checkpoint (see Recover); only a damaged header or meta
// record fails, with a *CorruptError naming the bad offset. Every
// recovered run record is re-validated against the campaign's seed
// derivation, so a journal whose BaseSeed does not reproduce its own
// records is rejected rather than resumed into an inconsistent series.
func PrepareResume(path string, reg *telemetry.Registry) (*ResumePlan, error) {
	w, rec, err := OpenAppend(path, reg)
	if err != nil {
		return nil, err
	}
	for i, r := range rec.Runs {
		if want := platform.DeriveRunSeed(rec.Meta.BaseSeed, i); r.Seed != want {
			w.Close()
			return nil, fmt.Errorf("wal: %s: run %d journaled with seed %#x, base seed %d derives %#x",
				path, i, r.Seed, rec.Meta.BaseSeed, want)
		}
	}
	plan := &ResumePlan{Meta: rec.Meta, Writer: w, Recovered: rec}
	prefix := make([]platform.RunResult, len(rec.Runs))
	for i, r := range rec.Runs {
		prefix[i] = platform.RunResult{
			Cycles:       r.Cycles,
			Instructions: r.Instructions,
			Path:         r.Path,
			Outcome:      r.Outcome,
			Faults:       r.Faults,
		}
	}
	plan.Resume = platform.ResumeState{Prefix: prefix}
	if rec.Checkpoint != nil {
		plan.Resume.StartBatch = rec.Checkpoint.Batch + 1
		plan.Resume.Delivered = rec.Checkpoint.Runs
		plan.State = rec.Checkpoint.State
	}
	return plan, nil
}
