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
// workload; the empty key replays on either FPU and is the only key a
// multicore co-runner replays, because a planned co-runner wraps its
// trace from one iteration to the next without computing keys.
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
	rs := recordSink{core: core, trace: blockTrace{classes: m.Prog.Classes(), base: m.Prog.CodeBase, open: true}}
	if _, err := m.RunBlocks(&rs); err != nil {
		return err // a partial trace must never be replayed
	}
	rs.trace.finish()
	s.trace, s.path = &rs.trace, s.w.PathOf(m)
	s.key, s.cur = s.cur, s.key[:0]
	return nil
}

// recordSink forwards every block to the timing core and captures it
// for later replay.
type recordSink struct {
	core  *cpu.Core
	trace blockTrace
}

// FetchBytes asks for the core's blocks.
func (r *recordSink) FetchBytes() int { return r.core.FetchBytes() }

func (r *recordSink) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	r.core.ConsumeBlock(pc, classes, taken, ops)
	r.trace.add(pc, classes, taken, ops)
}

// blockTrace is a recorded fetch-block stream (see isa.BlockSink) in
// compact form: one stream of 32-bit words. A block is a header word
// (its instruction count, with takenWord set when its last instruction
// transferred control), its start index in the program when it is the
// first block or follows a taken one (every other block starts where
// the one before it ended), then its operands: one word per load or
// store (the interpreter forms every effective address as a 32-bit
// value) and two per FDIV/FSQRT operand, low word first. A block's
// classes are not stored: they are the program's decode table from its
// start index. The stream is held in fixed-size chunks that no block
// straddles, so recording never copies or discards a buffer. A 16-frame
// TVCA recording takes 0.43 MB.
type blockTrace struct {
	classes []isa.Class // the program's decode table
	base    uint64      // the program's code base
	chunks  [][]uint32
	open    bool // the next block needs its start index (first, or after a taken block)
	longest int  // the most instructions in one block

	// Replay tables, built by finish: the operand words of the
	// instructions before index i (wordsAt[i]) and how many of them
	// are FDIV/FSQRT (fpAt[i]), and one block's rebuilt operands.
	wordsAt, fpAt []int32
	wide          []uint64
}

// takenWord marks the header of a block whose last instruction
// transferred control.
const takenWord = 1 << 31

// traceChunkWords is the size of one blockTrace chunk (32 KB).
const traceChunkWords = 8192

func (t *blockTrace) add(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	n, i := len(classes), int((pc-t.base)/isa.InstrBytes)
	need := 2 + 2*len(ops) // header, start, at most two words per operand
	c := len(t.chunks) - 1
	if c < 0 || cap(t.chunks[c])-len(t.chunks[c]) < need {
		t.chunks = append(t.chunks, make([]uint32, 0, max(traceChunkWords, need)))
		c++
	}
	w := t.chunks[c]
	h := uint32(n)
	if taken {
		h |= takenWord
	}
	w = append(w, h)
	if t.open {
		w = append(w, uint32(i))
	}
	k := 0
	for _, cl := range classes {
		switch cl {
		case isa.ClassLoad, isa.ClassStore:
			w = append(w, uint32(ops[k]))
			k++
		case isa.ClassFPDiv:
			w = append(w, uint32(ops[k]), uint32(ops[k]>>32), uint32(ops[k+1]), uint32(ops[k+1]>>32))
			k += 2
		case isa.ClassFPSqrt:
			w = append(w, uint32(ops[k]), uint32(ops[k]>>32))
			k++
		}
	}
	t.chunks[c] = w
	t.open, t.longest = taken, max(t.longest, n)
}

// finish builds the replay tables: the operand-word prefix counts over
// the program and the buffer replay rebuilds a block's operands in
// (two per instruction at most).
func (t *blockTrace) finish() {
	t.wordsAt = make([]int32, len(t.classes)+1)
	t.fpAt = make([]int32, len(t.classes)+1)
	for i, cl := range t.classes {
		w, fp := int32(0), int32(0)
		switch cl {
		case isa.ClassLoad, isa.ClassStore:
			w = 1
		case isa.ClassFPDiv:
			w, fp = 4, 1
		case isa.ClassFPSqrt:
			w, fp = 2, 1
		}
		t.wordsAt[i+1] = t.wordsAt[i] + w
		t.fpAt[i+1] = t.fpAt[i] + fp
	}
	t.wide = make([]uint64, 2*max(t.longest, 1))
}

// bytes is the trace's size, replay tables included.
func (t *blockTrace) bytes() int {
	n := 4*(len(t.wordsAt)+len(t.fpAt)) + 8*len(t.wide)
	for _, w := range t.chunks {
		n += 4 * cap(w)
	}
	return n
}

// replay feeds the trace to core block by block. It polls canceled, if
// non-nil, before the first block and after every 1,024 replayed
// instructions, as the interpreter polls Cancel, and reports false as
// soon as it fires.
func (t *blockTrace) replay(core *cpu.Core, canceled func() bool) bool {
	i, open := 0, true
	done, poll := 0, 0
	wide := t.wide
	for _, w := range t.chunks {
		for p := 0; p < len(w); {
			if canceled != nil && done >= poll {
				if canceled() {
					return false
				}
				poll = done + 1024
			}
			h := w[p]
			p++
			if open {
				i = int(w[p])
				p++
			}
			n := int(h &^ takenWord)
			classes := t.classes[i : i+n]
			words := int(t.wordsAt[i+n] - t.wordsAt[i])
			k := words
			if t.fpAt[i] == t.fpAt[i+n] {
				// Addresses only, one word each: the common block.
				for j, a := range w[p : p+words] {
					wide[j] = uint64(a)
				}
			} else {
				k = widenFP(classes, w[p:p+words], wide)
			}
			p += words
			open = h&takenWord != 0
			core.ConsumeBlock(t.base+uint64(i)*isa.InstrBytes, classes, open, wide[:k])
			i += n
			done += n
		}
	}
	return true
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

// traceChunk is the number of events in one eventTrace chunk (56 KB).
const traceChunk = 1024

// eventTrace is a recorded event stream (a co-runner's iteration, see
// Multicore) held in fixed-size chunks. It grows on demand without
// copying: recording allocates the trace's size rounded up to one
// chunk, where a growing flat slice would allocate about five times
// that in discarded backing arrays.
type eventTrace [][]isa.Event

func (t *eventTrace) add(ev isa.Event) {
	n := len(*t)
	if n == 0 || len((*t)[n-1]) == traceChunk {
		*t = append(*t, make([]isa.Event, 0, traceChunk))
		n++
	}
	(*t)[n-1] = append((*t)[n-1], ev)
}

// flat returns the trace as one slice.
func (t eventTrace) flat() []isa.Event {
	if len(t) == 1 {
		return t[0]
	}
	n := 0
	for _, c := range t {
		n += len(c)
	}
	out := make([]isa.Event, 0, n)
	for _, c := range t {
		out = append(out, c...)
	}
	return out
}
