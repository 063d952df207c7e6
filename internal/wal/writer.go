package wal

import (
	"bufio"
	"fmt"
	"os"

	"repro/internal/telemetry"
)

// Writer appends records to a journal file. Appends are buffered;
// Sync flushes the buffer and fsyncs, the one durability point of the
// write discipline (call it at batch barriers). Writer methods are not
// concurrency-safe: the campaign engine journals only from the single
// batch-barrier goroutine.
type Writer struct {
	f       *os.File
	buf     *bufio.Writer
	scratch []byte
	nextRun int
	// truncated records that OpenAppend cut a torn tail off the file.
	truncated bool

	records uint64
	fsyncs  uint64
	tele    *telemetry.Registry
}

// Create creates (or truncates) a journal at path and writes the
// header and meta record. The meta record is synced immediately so a
// crash before the first barrier still leaves a well-formed journal.
// reg, when non-nil, receives wal_records_total / wal_fsyncs_total.
func Create(path string, meta Meta, reg *telemetry.Registry) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create journal: %w", err)
	}
	w := &Writer{f: f, buf: bufio.NewWriter(f), tele: reg}
	hdr := append([]byte(magic), 0, 0, 0, 0)
	putUint32(hdr[8:], version)
	if _, err := w.buf.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	payload, err := encodeMeta(meta)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := w.append(kindMeta, payload); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// OpenAppend recovers the journal at path, truncates it to its valid
// prefix (see Recover) and returns a Writer positioned for appending
// plus the recovered contents. It fails only on unrecoverable
// corruption (bad header or meta record).
func OpenAppend(path string, reg *telemetry.Registry) (*Writer, *Recovered, error) {
	rec, err := Recover(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open journal: %w", err)
	}
	if err := f.Truncate(rec.ValidSize); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: truncate to valid prefix: %w", err)
	}
	if _, err := f.Seek(rec.ValidSize, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &Writer{f: f, buf: bufio.NewWriter(f), tele: reg, nextRun: len(rec.Runs), truncated: rec.Truncated}
	return w, rec, nil
}

func putUint32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// append frames and buffers one record.
func (w *Writer) append(kind byte, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("wal: record payload %d bytes exceeds the %d limit", len(payload), maxPayload)
	}
	w.scratch = encodeFrame(w.scratch[:0], kind, payload)
	if _, err := w.buf.Write(w.scratch); err != nil {
		return err
	}
	w.records++
	w.tele.Counter("wal_records_total").Inc()
	return nil
}

// AppendRun journals one completed run. Runs must be appended in run
// order with no gaps — the journal is the campaign's ordered series,
// and the i.i.d. gate is applied to the series as collected.
func (w *Writer) AppendRun(r RunRecord) error {
	if r.Run != w.nextRun {
		return fmt.Errorf("wal: run records out of order: got run %d, want %d", r.Run, w.nextRun)
	}
	payload, err := encodeRun(nil, r)
	if err != nil {
		return err
	}
	if err := w.append(kindRun, payload); err != nil {
		return err
	}
	w.nextRun++
	return nil
}

// AppendCheckpoint journals a batch barrier.
func (w *Writer) AppendCheckpoint(c Checkpoint) error {
	if c.Runs != w.nextRun {
		return fmt.Errorf("wal: checkpoint run count %d disagrees with journaled runs %d", c.Runs, w.nextRun)
	}
	payload, err := encodeCheckpoint(nil, c)
	if err != nil {
		return err
	}
	return w.append(kindCheckpoint, payload)
}

// Sync flushes buffered records and fsyncs the file — the durability
// barrier. Records appended since the previous Sync are not crash-safe
// until it returns.
func (w *Writer) Sync() error {
	if err := w.buf.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fsyncs++
	w.tele.Counter("wal_fsyncs_total").Inc()
	return nil
}

// Close syncs and closes the journal. A writer that never changed the
// file skips the sync: it appended no record and truncated no torn
// tail, as when a warm run-cache entry only replays its prefix, so it
// has nothing of its own to make durable (DESIGN.md §12).
func (w *Writer) Close() error {
	var syncErr error
	if w.records > 0 || w.truncated {
		syncErr = w.Sync()
	}
	closeErr := w.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Records returns the number of records appended by this writer.
func (w *Writer) Records() uint64 { return w.records }

// Fsyncs returns the number of Sync barriers this writer has executed.
func (w *Writer) Fsyncs() uint64 { return w.fsyncs }

// Runs returns the number of run records in the journal (recovered
// prefix plus appends).
func (w *Writer) Runs() int { return w.nextRun }
