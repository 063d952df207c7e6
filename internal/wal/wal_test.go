package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

var testMeta = Meta{Platform: "RAND", Workload: "tvca", BaseSeed: 42, MaxRuns: 100, BatchSize: 10}

// writeJournal builds a journal of nBatches batches of batchSize runs,
// one checkpoint per batch, and returns its path.
func writeJournal(t *testing.T, nBatches, batchSize int, reg *telemetry.Registry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.wal")
	w, err := Create(path, testMeta, reg)
	if err != nil {
		t.Fatal(err)
	}
	run := 0
	for b := 0; b < nBatches; b++ {
		for i := 0; i < batchSize; i++ {
			rr := RunRecord{
				Run: run, Seed: uint64(run) * 0x9E37, Cycles: 1000 + uint64(run),
				Instructions: 500 + uint64(run), Path: "p1",
			}
			if run%7 == 3 {
				rr.Outcome, rr.Faults = "masked", 2
			}
			if err := w.AppendRun(rr); err != nil {
				t.Fatal(err)
			}
			run++
		}
		ck := Checkpoint{Batch: b, Runs: run, State: []byte(`{"batch":` + string(rune('0'+b)) + `}`)}
		if err := w.AppendCheckpoint(ck); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	reg := telemetry.New()
	path := writeJournal(t, 4, 10, reg)
	rec, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Meta != testMeta {
		t.Errorf("meta = %+v, want %+v", rec.Meta, testMeta)
	}
	if len(rec.Runs) != 40 {
		t.Fatalf("recovered %d runs, want 40", len(rec.Runs))
	}
	if rec.Truncated {
		t.Error("clean journal reported truncated")
	}
	for i, r := range rec.Runs {
		if r.Run != i {
			t.Fatalf("run %d has index %d", i, r.Run)
		}
		if i%7 == 3 && (r.Outcome != "masked" || r.Faults != 2) {
			t.Errorf("run %d outcome = %q faults = %d, want masked/2", i, r.Outcome, r.Faults)
		}
		if r.Cycles != 1000+uint64(i) || r.Path != "p1" {
			t.Errorf("run %d fields corrupted: %+v", i, r)
		}
	}
	if rec.Checkpoint == nil || rec.Checkpoint.Batch != 3 || rec.Checkpoint.Runs != 40 {
		t.Errorf("last checkpoint = %+v, want batch 3 runs 40", rec.Checkpoint)
	}
	if len(rec.Checkpoints) != 4 {
		t.Errorf("found %d checkpoint marks, want 4", len(rec.Checkpoints))
	}
	if got := reg.Counter("wal_records_total").Value(); got != 45 { // 1 meta + 40 runs + 4 ckpts
		t.Errorf("wal_records_total = %d, want 45", got)
	}
	if got := reg.Counter("wal_fsyncs_total").Value(); got == 0 {
		t.Error("wal_fsyncs_total = 0")
	}
}

// TestTornTailEveryOffset truncates the journal at every byte length
// and checks recovery never fails and never invents data: the
// recovered prefix is always a checkpoint-consistent prefix of the
// original, and recovery at barrier-aligned offsets is lossless.
func TestTornTailEveryOffset(t *testing.T) {
	path := writeJournal(t, 3, 5, nil)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	barrier := make(map[int64]int) // offset -> runs at that barrier
	for _, m := range ref.Checkpoints {
		barrier[m.End] = m.Runs
	}
	dir := t.TempDir()
	for cut := 0; cut <= len(full); cut++ {
		p := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(p)
		if cut < headerSize {
			if err == nil {
				t.Fatalf("cut %d: headerless journal recovered", cut)
			}
			if !IsCorrupt(err) {
				t.Fatalf("cut %d: error %v is not a CorruptError", cut, err)
			}
			continue
		}
		if err != nil {
			// Inside the meta record: unrecoverable, must name an offset.
			var ce *CorruptError
			if !IsCorrupt(err) {
				t.Fatalf("cut %d: error %v is not a CorruptError", cut, err)
			}
			_ = ce
			continue
		}
		if want, ok := barrier[int64(cut)]; ok && len(rec.Runs) != want {
			t.Fatalf("cut at barrier %d: recovered %d runs, want %d", cut, len(rec.Runs), want)
		}
		for i, r := range rec.Runs {
			if r.Run != i {
				t.Fatalf("cut %d: run %d has index %d", cut, i, r.Run)
			}
		}
		if rec.ValidSize > int64(cut) {
			t.Fatalf("cut %d: ValidSize %d exceeds file size", cut, rec.ValidSize)
		}
	}
}

// TestCorruptMidFileTruncatesToCheckpoint flips one byte inside the
// second batch's records: recovery must drop everything from the
// corruption on, ending at a checkpoint.
func TestCorruptMidFileTruncatesToCheckpoint(t *testing.T) {
	path := writeJournal(t, 3, 5, nil)
	ref, _ := Recover(path)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte just after the first checkpoint.
	target := ref.Checkpoints[0].End + 10
	full[target] ^= 0xFF
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated {
		t.Fatal("corruption not reported")
	}
	if rec.CorruptOffset < ref.Checkpoints[0].End || rec.CorruptOffset >= int64(len(full)) {
		t.Errorf("corrupt offset %d outside expected range", rec.CorruptOffset)
	}
	if len(rec.Runs) != 5 || rec.Checkpoint == nil || rec.Checkpoint.Runs != 5 {
		t.Errorf("recovered %d runs (ckpt %+v), want truncation to the batch-0 checkpoint", len(rec.Runs), rec.Checkpoint)
	}
	if rec.ValidSize != ref.Checkpoints[0].End {
		t.Errorf("ValidSize = %d, want %d", rec.ValidSize, ref.Checkpoints[0].End)
	}
}

// TestCorruptBeforeAnyCheckpoint drops back to an empty (but
// resumable) journal.
func TestCorruptBeforeAnyCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wal")
	w, err := Create(path, testMeta, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.AppendRun(RunRecord{Run: i, Cycles: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(path)
	full[len(full)-2] ^= 1 // corrupt the last run record
	os.WriteFile(path, full, 0o644)
	rec, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated || len(rec.Runs) != 0 || rec.Checkpoint != nil {
		t.Errorf("want empty truncated recovery, got %d runs truncated=%v", len(rec.Runs), rec.Truncated)
	}
	// The journal must still be appendable from scratch.
	w2, rec2, err := OpenAppend(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Runs) != 0 {
		t.Fatalf("OpenAppend recovered %d runs, want 0", len(rec2.Runs))
	}
	if err := w2.AppendRun(RunRecord{Run: 0, Cycles: 7}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	rec3, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Runs) != 1 || rec3.Runs[0].Cycles != 7 || rec3.Truncated {
		t.Errorf("post-repair recovery = %+v", rec3)
	}
}

func TestOpenAppendContinues(t *testing.T) {
	path := writeJournal(t, 2, 5, nil)
	w, rec, err := OpenAppend(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Runs) != 10 || w.Runs() != 10 {
		t.Fatalf("recovered %d runs (writer %d), want 10", len(rec.Runs), w.Runs())
	}
	if err := w.AppendRun(RunRecord{Run: 10, Cycles: 99}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCheckpoint(Checkpoint{Batch: 2, Runs: 11}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Runs) != 11 || rec2.Checkpoint.Batch != 2 {
		t.Errorf("continued journal: %d runs, ckpt %+v", len(rec2.Runs), rec2.Checkpoint)
	}
}

// TestCloseSyncsOnlyWhatItWrote: a writer that only replays a clean
// journal closes without an fsync; one that truncated a torn tail on
// open fsyncs once on close, even with no appends, and the truncation
// survives a reopen.
func TestCloseSyncsOnlyWhatItWrote(t *testing.T) {
	path := writeJournal(t, 2, 5, nil)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	w, _, err := OpenAppend(path, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Fsyncs() != 0 || reg.Counter("wal_fsyncs_total").Value() != 0 {
		t.Fatalf("read-only reopen of a clean journal fsynced %d times, want 0", w.Fsyncs())
	}

	// Tear the tail: half of a run record's frame header.
	if err := os.WriteFile(path, append(clean, kindRun, 9), 0o644); err != nil {
		t.Fatal(err)
	}
	w, rec, err := OpenAppend(path, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated || rec.ValidSize != int64(len(clean)) {
		t.Fatalf("torn tail recovered as truncated=%v valid=%d, want true %d", rec.Truncated, rec.ValidSize, len(clean))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Fsyncs() != 1 || reg.Counter("wal_fsyncs_total").Value() != 1 {
		t.Fatalf("closing a truncated journal fsynced %d times, want 1", w.Fsyncs())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, clean) {
		t.Fatalf("reopened journal is %d bytes, want the %d-byte valid prefix", len(got), len(clean))
	}
	rec, err = Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated || len(rec.Runs) != 10 {
		t.Fatalf("reopen after truncation: truncated %v, %d runs, want false, 10", rec.Truncated, len(rec.Runs))
	}
}

func TestAppendOrderEnforced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "o.wal")
	w, err := Create(path, testMeta, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendRun(RunRecord{Run: 1}); err == nil {
		t.Error("out-of-order run record accepted")
	}
	if err := w.AppendCheckpoint(Checkpoint{Batch: 0, Runs: 5}); err == nil {
		t.Error("inconsistent checkpoint accepted")
	}
}

func TestMetaValidate(t *testing.T) {
	if err := testMeta.Validate(testMeta); err != nil {
		t.Errorf("identical meta rejected: %v", err)
	}
	other := testMeta
	other.BaseSeed++
	if err := testMeta.Validate(other); err == nil {
		t.Error("mismatched meta accepted")
	}
}

func TestNotAJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.csv")
	if err := os.WriteFile(path, []byte("run,cycles\n0,100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Recover(path)
	if !IsCorrupt(err) {
		t.Fatalf("recovering a CSV returned %v, want CorruptError", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte("offset 0")) {
		t.Errorf("error %q does not name the bad offset", err)
	}
}

func TestRunRecordCodecRoundTrip(t *testing.T) {
	cases := []RunRecord{
		{},
		{Run: 0, Seed: ^uint64(0), Cycles: 1 << 62, Instructions: 3, Faults: 4096, Path: "loop-a", Outcome: "hung"},
		{Run: 1 << 30, Path: string(make([]byte, 0xFFFF))},
	}
	for i, rr := range cases {
		payload, err := encodeRun(nil, rr)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := decodeRun(payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != rr {
			t.Errorf("case %d: round trip %+v != %+v", i, got, rr)
		}
	}
	if _, err := encodeRun(nil, RunRecord{Run: -1}); err == nil {
		t.Error("negative run index encoded")
	}
}
