package platform

import (
	"bytes"
	"math"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// TraceKeyer is an optional Workload extension that lets a board replay
// a recorded run through the timing model instead of interpreting it
// (decode-once replay).
//
// TraceKey appends run's control-flow key to dst and returns it with ok
// true; ok false declares that the workload gives no keys, and its runs
// are always interpreted. Runs with equal keys must retire the same
// fetch-block stream — PCs, classes, load/store addresses and taken
// bits — and may differ only in their FDIV/FSQRT operand values. The
// run's path classification must be a function of its key.
//
// The empty key is the run-invariant case (a fixed-size matrix
// multiply): a workload returns it for every run or for none, and then
// its stream is identical for every run index, FDIV/FSQRT operands
// included.
//
// A board's measured core, on either board (see measured), keeps a
// small set of recordings of the workload it runs (see traceSlot),
// dropped when it runs another workload. It records a non-empty key's
// stream the second time it runs that key, and the empty key's on its
// first run; a later run whose key equals a recorded one replays that
// recording, and any other run is interpreted. A non-empty key replays only on an operand-blind FPU
// (fpu.ModeAnalysis, where FDIV and FSQRT take their fixed worst-case
// latency), so DET never replays a keyed workload; the empty key
// replays on either FPU.
//
// The empty key is also the only key a multicore co-runner replays:
// its iterations carry no keys, so the board records its first
// iteration as the co-runner's machine produces it — across runs, when
// a run ends first — and wraps the recording from one iteration to the
// next. Any other co-runner is produced by its own machine on every
// iteration, paused between fills of about 1,024 instructions.
//
// TraceKey runs on every measured run: it must be safe for concurrent
// use (the boards of a campaign share the workload) and must not
// allocate once dst has the capacity.
type TraceKeyer interface {
	TraceKey(dst []byte, run int) (key []byte, ok bool)
}

// constantKey reports whether w declares the empty key: a run-invariant
// stream, replayable on any FPU and by a co-runner.
func constantKey(w Workload) bool {
	k, ok := w.(TraceKeyer)
	if !ok {
		return false
	}
	key, ok := k.TraceKey(nil, 0)
	return ok && len(key) == 0
}

// traceSlot is a board's decode-once recordings for its measured core:
// a small set of block traces of the workload it serves, each with its
// run's key and path. It lives in the measured core that Platform and
// Multicore share (measured), one per board; traces are never shared
// between boards, and a switch to any other workload, keyed or not,
// drops them and the seen keys.
//
// A non-empty key is recorded the second time the board runs it: seen
// is a direct-mapped table of the hashes of the keys run so far, and a
// run whose hash is already in its entry records. A hash collision can
// therefore only start a recording early; a run replays only a trace
// whose key equals its own byte for byte. The empty key records on its
// first run. Beyond the first trace the set never holds more than
// traceBudget bytes: a recording starts only while the set has room
// for a trace the size of the first, one that outgrows the room is
// dropped, and from then on the board records no more. Nothing is
// evicted.
type traceSlot struct {
	w     Workload   // the workload the slot serves
	keyer TraceKeyer // w's keys; nil once they cannot replay on this board
	set   []recording
	room  int // bytes the set may still grow by (the first trace may overdraw it)
	seen  [seenSlots]uint64
	cur   []byte // the key of the run in flight
}

// recording is one recorded run of a traceSlot: its block trace, key
// and path.
type recording struct {
	trace *blockTrace
	key   []byte
	path  string
}

// traceBudget bounds a board's recordings beyond its first trace
// (1 MiB: two 16-frame TVCA traces). seenSlots is the size of the
// table of key hashes that decides when a key recurs.
const (
	traceBudget = 1 << 20
	seenSlots   = 512
)

// next decides how run of w executes: replay a recording (hit, whose
// key equals the run's), record the run's stream (record), or
// interpret (neither). blind reports an operand-blind FPU.
func (s *traceSlot) next(w Workload, run int, blind bool) (hit *recording, record bool) {
	keyer, ok := w.(TraceKeyer)
	if !ok {
		// A keyless workload is never held, nor compared: its type need
		// not be comparable, and it has nothing to replay.
		if s.w != nil {
			*s = traceSlot{cur: s.cur}
		}
		return nil, false
	}
	if w != s.w {
		s.w, s.keyer, s.set, s.room = w, keyer, nil, traceBudget
		clear(s.seen[:])
	}
	if s.keyer == nil {
		return nil, false
	}
	key, ok := s.keyer.TraceKey(s.cur[:0], run)
	s.cur = key
	if !ok || (len(key) > 0 && !blind) {
		s.keyer = nil
		return nil, false
	}
	if len(s.set) == 0 {
		return nil, len(key) == 0 || s.recurs(key)
	}
	for i := range s.set {
		if bytes.Equal(key, s.set[i].key) {
			return &s.set[i], false
		}
	}
	return nil, s.room >= s.set[0].trace.bytes() && s.recurs(key)
}

// recurs notes key in the table of seen keys and reports whether it
// was there already (or a key with the same hash was: FNV-1a, 64 bit).
func (s *traceSlot) recurs(key []byte) bool {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	e := &s.seen[h%seenSlots]
	if *e == h {
		return true
	}
	*e = h
	return false
}

// record runs m to completion on core while recording its block stream,
// and adds the trace to the set under the current run's key unless it
// outgrew the set's room. The recording run's timing is untouched: the
// core consumes exactly the blocks it would have consumed.
func (s *traceSlot) record(core *cpu.Core, m *isa.Machine) error {
	rs := coreSink{core: core, trace: newBlockTrace(m.Prog), room: s.room}
	if len(s.set) == 0 {
		rs.room = math.MaxInt // the first trace is not bounded
	}
	if _, err := m.RunBlocks(&rs); err != nil {
		return err // a partial trace must never be replayed
	}
	if rs.trace == nil || rs.trace.bytes() > rs.room {
		s.room = 0 // over budget: record no more
		return nil
	}
	s.room -= rs.trace.bytes()
	s.set = append(s.set, recording{trace: rs.trace, key: s.cur, path: s.w.PathOf(m)})
	s.cur = nil // the recording keeps the key's storage
	return nil
}

// coreSink feeds a core's timing model the blocks a machine retires,
// recording them into trace until it would take more than room bytes;
// it then drops the trace (nil) and only feeds the core.
type coreSink struct {
	core  *cpu.Core
	trace *blockTrace
	room  int
}

// FetchBytes asks for the core's blocks, at most maxBlockBytes long.
func (s *coreSink) FetchBytes() int { return min(s.core.FetchBytes(), maxBlockBytes) }

func (s *coreSink) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	s.core.ConsumeBlock(pc, classes, taken, ops)
	if s.trace == nil {
		return
	}
	k := len(s.trace.chunks)
	s.trace.add(pc, classes, taken, ops)
	if len(s.trace.chunks) != k && s.trace.bytes() > s.room {
		s.trace = nil
	}
}

// blockTrace is a recorded fetch-block stream (see isa.BlockSink) in
// compact form: one stream of 32-bit words. A block is a header word
// (its counts and flags, see takenWord), its start index in the
// program when it is the first block or follows a taken one (every
// other block starts where the one before it ended), then its
// operands: one word per load or store (the interpreter forms every
// effective address as a 32-bit value) and two per FDIV/FSQRT operand,
// low word first. A block's classes are not stored: they are the
// program's decode table from its start index. The stream is held in
// fixed-size chunks that no block straddles, so recording never copies
// or discards a buffer. A 16-frame TVCA recording takes 0.43 MB. The
// measured core's replay and the co-runner planner both decode it
// through one cursor (next).
type blockTrace struct {
	classes []isa.Class // the program's decode table
	base    uint64      // the program's code base
	chunks  [][]uint32
	follows bool     // the next block starts where the last one ended (not first, not after a taken block)
	wide    []uint64 // one block's rebuilt operands (two per instruction at most)
}

// A block's header word holds its instruction count (bits 0-15), its
// operand word count (bits 16-29), fpWord when it holds an FDIV or
// FSQRT, and takenWord when its last instruction transferred control.
// maxBlockBytes bounds the blocks a trace records (coreSink), so both
// counts fit: at most 1,024 instructions and 4,096 operand words.
const (
	takenWord     = 1 << 31
	fpWord        = 1 << 30
	countMask     = 1<<16 - 1
	wordsShift    = 16
	wordsMask     = 1<<14 - 1
	maxBlockBytes = 4096
)

// traceChunkWords is the size of one blockTrace chunk (32 KB).
const traceChunkWords = 8192

// newBlockTrace returns an empty trace of prog's blocks.
func newBlockTrace(prog *isa.Program) *blockTrace {
	return &blockTrace{classes: prog.Classes(), base: prog.CodeBase}
}

func (t *blockTrace) add(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	n, i := len(classes), int((pc-t.base)/isa.InstrBytes)
	need := 2 + 2*len(ops) // header, start, at most two words per operand
	c := len(t.chunks) - 1
	if c < 0 || cap(t.chunks[c])-len(t.chunks[c]) < need {
		t.chunks = append(t.chunks, make([]uint32, 0, max(traceChunkWords, need)))
		c++
	}
	w := t.chunks[c]
	h := len(w)
	w = append(w, 0)
	if !t.follows {
		w = append(w, uint32(i))
	}
	start, head := len(w), uint32(n)
	k := 0
	for _, cl := range classes {
		switch cl {
		case isa.ClassLoad, isa.ClassStore:
			w = append(w, uint32(ops[k]))
			k++
		case isa.ClassFPDiv:
			w = append(w, uint32(ops[k]), uint32(ops[k]>>32), uint32(ops[k+1]), uint32(ops[k+1]>>32))
			k += 2
			head |= fpWord
		case isa.ClassFPSqrt:
			w = append(w, uint32(ops[k]), uint32(ops[k]>>32))
			k++
			head |= fpWord
		}
	}
	head |= uint32(len(w)-start) << wordsShift
	if taken {
		head |= takenWord
	}
	w[h] = head
	t.chunks[c] = w
	t.follows = !taken
	if len(t.wide) < 2*n {
		t.wide = make([]uint64, 2*n)
	}
}

// reset empties t for a recording of prog's blocks (see clear).
func (t *blockTrace) reset(prog *isa.Program) {
	t.clear()
	t.classes, t.base = prog.Classes(), prog.CodeBase
}

// clear empties t, keeping its first chunk's storage: a co-runner's
// source is refilled every 1,024 instructions, which fit in one chunk,
// without allocating.
func (t *blockTrace) clear() {
	if len(t.chunks) > 0 {
		t.chunks[0] = t.chunks[0][:0]
		t.chunks = t.chunks[:1]
	}
	t.follows = false
}

// mark returns the end of t: its chunk count and its last chunk's
// length.
func (t *blockTrace) mark() (k, off int) {
	if k = len(t.chunks); k > 0 {
		off = len(t.chunks[k-1])
	}
	return k, off
}

// seek points cur, which had decoded all of t when mark returned
// (k, off), at the blocks added since.
func (t *blockTrace) seek(cur *traceCursor, k, off int) {
	if k > 0 {
		cur.w, cur.chunk = t.chunks[k-1][off:], k
	}
}

// bytes is the trace's size, the operand buffer included.
func (t *blockTrace) bytes() int {
	n := 8 * len(t.wide)
	for _, w := range t.chunks {
		n += 4 * cap(w)
	}
	return n
}

// traceCursor is a position in a blockTrace: the rest of the current
// chunk from the next block's header on, the index of the chunk after
// it and, when the next block follows the last one, the program index
// it starts at. The zero value is the trace's start.
type traceCursor struct {
	w       []uint32
	chunk   int
	i       int
	follows bool
}

// next decodes the block at cur into ConsumeBlock's arguments and
// advances cur past it; ok is false at the end of the trace. The
// operands are valid until the next call on t.
func (t *blockTrace) next(cur *traceCursor) (pc uint64, classes []isa.Class, taken bool, ops []uint64, ok bool) {
	w := cur.w
	for len(w) == 0 { // a cleared trace keeps an empty first chunk
		if cur.chunk == len(t.chunks) {
			return 0, nil, false, nil, false
		}
		w = t.chunks[cur.chunk]
		cur.chunk++
	}
	h := w[0]
	p := 1
	i := cur.i
	if !cur.follows {
		i = int(w[p])
		p++
	}
	n, words := int(h&countMask), int(h>>wordsShift&wordsMask)
	classes = t.classes[i : i+n]
	k := words
	if h&fpWord == 0 {
		// Addresses only, one word each: the common block.
		for j, a := range w[p : p+words] {
			t.wide[j] = uint64(a)
		}
	} else {
		k = widenFP(classes, w[p:p+words], t.wide)
	}
	taken = h&takenWord != 0
	cur.w, cur.i, cur.follows = w[p+words:], i+n, !taken
	return t.base + uint64(i)*isa.InstrBytes, classes, taken, t.wide[:k], true
}

// replay feeds the trace to core block by block. It polls canceled, if
// non-nil, before the first block and after every 1,024 replayed
// instructions, as the interpreter polls Cancel, and reports false as
// soon as it fires.
func (t *blockTrace) replay(core *cpu.Core, canceled func() bool) bool {
	var cur traceCursor
	done, poll := 0, 0
	for {
		if canceled != nil && done >= poll {
			if canceled() {
				return false
			}
			poll = done + 1024
		}
		pc, classes, taken, ops, ok := t.next(&cur)
		if !ok {
			return true
		}
		core.ConsumeBlock(pc, classes, taken, ops)
		done += len(classes)
	}
}

// widenFP rebuilds the operands of a block holding an FDIV or FSQRT
// from its words into wide, returning their number.
func widenFP(classes []isa.Class, words []uint32, wide []uint64) int {
	k, o := 0, 0
	for _, cl := range classes {
		switch cl {
		case isa.ClassLoad, isa.ClassStore:
			wide[k] = uint64(words[o])
			k++
			o++
		case isa.ClassFPDiv:
			wide[k] = uint64(words[o]) | uint64(words[o+1])<<32
			wide[k+1] = uint64(words[o+2]) | uint64(words[o+3])<<32
			k += 2
			o += 4
		case isa.ClassFPSqrt:
			wide[k] = uint64(words[o]) | uint64(words[o+1])<<32
			k++
			o += 2
		}
	}
	return k
}
