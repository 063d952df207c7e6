package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// CorruptError reports unrecoverable journal corruption: a damaged
// header or meta record, from which no campaign identity can be
// established. Offset names the first bad byte so operators can
// inspect the file.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s: unrecoverable corruption at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// IsCorrupt reports whether err is an unrecoverable-corruption error.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// CheckpointMark locates one valid checkpoint inside the journal —
// tooling (and the crash-at-every-barrier tests) use the End offsets
// as the exact byte positions a barrier-aligned crash would leave.
type CheckpointMark struct {
	Batch int
	Runs  int
	End   int64 // file offset one past the checkpoint record
}

// Recovered is the usable content of a journal: the longest valid
// prefix of records, already validated for continuity.
type Recovered struct {
	Meta Meta
	// Runs is the completed measurement prefix, in run order with no
	// gaps. It extends past the last checkpoint when the journal ends
	// with cleanly flushed run records (a cancellation flush); after
	// detected corruption it is truncated to the last checkpoint.
	Runs []RunRecord
	// Checkpoint is the last valid checkpoint, nil when none was
	// written before the crash.
	Checkpoint *Checkpoint
	// Checkpoints marks every valid checkpoint in order.
	Checkpoints []CheckpointMark
	// ValidSize is the byte length of the usable prefix; OpenAppend
	// truncates the file here before resuming.
	ValidSize int64
	// Truncated reports that corruption (torn tail, flipped bits, or
	// out-of-order records) was found and everything from
	// CorruptOffset on was discarded.
	Truncated     bool
	CorruptOffset int64
}

// Recover scans the journal at path and returns its longest valid
// prefix. Torn tails and corrupted records do not fail recovery: the
// scan stops at the first invalid byte and the result is truncated to
// the last valid checkpoint (run records after that checkpoint are
// kept only when the tail is clean, i.e. the file simply ended after
// fully written run records). Only a damaged header or meta record —
// which leaves no campaign to resume — returns an error (a
// *CorruptError naming the bad offset).
func Recover(path string) (*Recovered, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open journal: %w", err)
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, &CorruptError{Path: path, Offset: 0, Reason: "short or missing header"}
	}
	if string(hdr[:8]) != magic {
		return nil, &CorruptError{Path: path, Offset: 0, Reason: "bad magic (not a campaign journal)"}
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != version {
		return nil, &CorruptError{Path: path, Offset: 8, Reason: fmt.Sprintf("unsupported journal version %d", v)}
	}

	rec := &Recovered{ValidSize: headerSize}
	off := int64(headerSize)
	sawMeta := false
	metaEnd := int64(headerSize)
	corrupt := func(reason string) (*Recovered, error) {
		if !sawMeta {
			return nil, &CorruptError{Path: path, Offset: off, Reason: reason}
		}
		rec.Truncated = true
		rec.CorruptOffset = off
		// Trust nothing past the last checkpoint: truncate the run
		// prefix (and the valid size) back to it.
		if rec.Checkpoint != nil {
			rec.Runs = rec.Runs[:rec.Checkpoint.Runs]
			rec.ValidSize = rec.Checkpoints[len(rec.Checkpoints)-1].End
		} else {
			rec.Runs = nil
			rec.ValidSize = metaEnd
		}
		return rec, nil
	}

	// One frame header and one payload buffer serve every record: the
	// decoders copy whatever they keep.
	frame := make([]byte, 5)
	var body []byte
	for {
		if _, err := io.ReadFull(br, frame); err != nil {
			if err == io.EOF {
				return rec, nil // clean end of journal
			}
			return corrupt("torn record header")
		}
		kind := frame[0]
		plen := binary.LittleEndian.Uint32(frame[1:])
		if plen > maxPayload {
			return corrupt(fmt.Sprintf("record length %d exceeds limit", plen))
		}
		if need := int(plen) + 4; cap(body) < need {
			body = make([]byte, need)
		} else {
			body = body[:need]
		}
		if _, err := io.ReadFull(br, body); err != nil {
			return corrupt("torn record payload")
		}
		payload := body[:plen]
		wantCRC := binary.LittleEndian.Uint32(body[plen:])
		crc := crc32.ChecksumIEEE(frame)
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != wantCRC {
			return corrupt("record checksum mismatch")
		}
		recEnd := off + int64(frameSize) + int64(plen)

		switch kind {
		case kindMeta:
			if sawMeta {
				return corrupt("duplicate meta record")
			}
			m, err := decodeMeta(payload)
			if err != nil {
				return corrupt(err.Error())
			}
			rec.Meta = m
			sawMeta = true
			metaEnd = recEnd
		case kindRun:
			if !sawMeta {
				return corrupt("run record before meta")
			}
			r, err := decodeRun(payload)
			if err != nil {
				return corrupt(err.Error())
			}
			if r.Run != len(rec.Runs) {
				return corrupt(fmt.Sprintf("run records out of order: got run %d, want %d", r.Run, len(rec.Runs)))
			}
			rec.Runs = append(rec.Runs, r)
		case kindCheckpoint:
			if !sawMeta {
				return corrupt("checkpoint record before meta")
			}
			c, err := decodeCheckpoint(payload)
			if err != nil {
				return corrupt(err.Error())
			}
			if c.Runs != len(rec.Runs) {
				return corrupt(fmt.Sprintf("checkpoint run count %d disagrees with %d journaled runs", c.Runs, len(rec.Runs)))
			}
			rec.Checkpoint = &c
			rec.Checkpoints = append(rec.Checkpoints, CheckpointMark{Batch: c.Batch, Runs: c.Runs, End: recEnd})
		default:
			return corrupt(fmt.Sprintf("unknown record kind %d", kind))
		}
		off = recEnd
		rec.ValidSize = off
	}
}
