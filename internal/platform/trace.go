package platform

import (
	"bytes"

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
// A board records the stream of the first keyed run it executes and
// replays it for every later run whose key equals the recorded one;
// a run with another key is interpreted. A non-empty key replays only
// on an operand-blind FPU (fpu.ModeAnalysis, where FDIV and FSQRT take
// their fixed worst-case latency), so DET never replays a keyed
// workload; the empty key replays on either FPU.
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

// traceSlot is a board's decode-once recording for its measured core:
// the block trace of the first keyed run of the workload it serves,
// with that run's key and path. Platform and Multicore own one each;
// traces are never shared between boards.
type traceSlot struct {
	w     Workload   // the keyed workload the slot serves
	keyer TraceKeyer // w's keys; nil once they cannot replay on this board
	trace *blockTrace
	key   []byte // the recorded run's key
	path  string
	cur   []byte // the key of the run in flight
}

// next decides how run of w executes: replay the recorded trace (the
// run's key equals the recorded one), record a trace (the first keyed
// run), or interpret. blind reports an operand-blind FPU.
func (s *traceSlot) next(w Workload, run int, blind bool) (replay, record bool) {
	if w != s.w {
		k, ok := w.(TraceKeyer)
		if !ok {
			return false, false
		}
		*s = traceSlot{w: w, keyer: k, key: s.key[:0], cur: s.cur[:0]}
	}
	if s.keyer == nil {
		return false, false
	}
	key, ok := s.keyer.TraceKey(s.cur[:0], run)
	s.cur = key
	if !ok || (len(key) > 0 && !blind) {
		s.keyer = nil
		return false, false
	}
	if s.trace == nil {
		return false, true
	}
	return bytes.Equal(key, s.key), false
}

// record runs m to completion on core while recording its block stream,
// and keeps the trace under the current run's key. The recording run's
// timing is untouched: the core consumes exactly the blocks it would
// have consumed.
func (s *traceSlot) record(core *cpu.Core, m *isa.Machine) error {
	rs := coreSink{core: core, trace: newBlockTrace(m.Prog)}
	if _, err := m.RunBlocks(&rs); err != nil {
		return err // a partial trace must never be replayed
	}
	s.trace, s.path = rs.trace, s.w.PathOf(m)
	s.key, s.cur = s.cur, s.key[:0]
	return nil
}

// coreSink feeds a core's timing model the blocks a machine retires,
// recording them into trace.
type coreSink struct {
	core  *cpu.Core
	trace *blockTrace
}

// FetchBytes asks for the core's blocks, at most maxBlockBytes long.
func (s *coreSink) FetchBytes() int { return min(s.core.FetchBytes(), maxBlockBytes) }

func (s *coreSink) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	s.core.ConsumeBlock(pc, classes, taken, ops)
	s.trace.add(pc, classes, taken, ops)
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
