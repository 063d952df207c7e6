package isa

import (
	"fmt"
	"math"
	"slices"
)

// BlockSink consumes the retired instruction stream one fetch block at
// a time. A fetch block is a run of sequentially retired instructions
// whose PCs share one fetch granule of FetchBytes bytes; it ends early
// at a taken transfer, at Halt, and at every error, step-limit or
// cancel exit (where the instructions retired so far are delivered
// before the run returns). The timing model (cpu.Core) implements it:
// every fetch after a block's first is a hit on the line and page the
// first one touched, so the core probes its IL1 and ITLB once per
// block.
type BlockSink interface {
	// FetchBytes is the fetch granule, a power of two; 0 or anything
	// below InstrBytes delivers one instruction per block.
	FetchBytes() int
	// ConsumeBlock receives one block: the PC of its first instruction,
	// the classes of its instructions in order, whether the last one
	// transferred control (only the last can), and the dynamic operands
	// of its instructions in order: one word per load or store (the
	// effective address), two per FDIV and one per FSQRT (the operands'
	// math.Float64bits). The slices are valid only during the call.
	ConsumeBlock(pc uint64, classes []Class, taken bool, ops []uint64)
}

// Memory is the byte-addressable data memory shared by architectural
// execution. It is sparse (4 KiB pages allocated on demand) so programs
// can scatter data segments across a 32-bit space without cost.
//
// A small direct-mapped page-pointer table (indexed by the low bits of
// the page number) lets accesses skip the map lookup even when a loop
// alternates between pages (e.g. a coefficient array and a history
// buffer). The table probe (slot) and the word accesses are small
// enough to inline into the interpreter loop, which calls the
// accessors' slow paths only on a table miss or a misaligned address.
type Memory struct {
	pages map[uint64]*page
	tabPN [tabSlots]uint64
	tabP  [tabSlots]*page // nil until the slot's first resolution
}

const pageShift = 12
const pageSize = 1 << pageShift

// tabSlots sizes the page-pointer table; a working set of a few dozen
// pages direct-maps into 64 slots with few collisions.
const tabSlots = 64

// page holds one page as little-endian 64-bit words: byte k of a word
// is its bits 8k..8k+7, so a 32-bit access at offset 4 of a word is its
// upper half, exactly as in a byte array read little-endian, and an
// aligned access is one array index, small enough to inline.
type page [pageSize / 8]uint64

// The page accessors take a size-aligned address within the page.

func (p *page) load32(addr uint64) uint32 {
	return uint32(p[addr>>3&(pageSize/8-1)] >> (addr & 4 * 8))
}

func (p *page) store32(addr uint64, v uint32) {
	w, sh := &p[addr>>3&(pageSize/8-1)], addr&4*8
	*w = *w&^(0xffffffff<<sh) | uint64(v)<<sh
}

func (p *page) load64(addr uint64) float64 {
	return math.Float64frombits(p[addr>>3&(pageSize/8-1)])
}

func (p *page) store64(addr uint64, v float64) { p[addr>>3&(pageSize/8-1)] = math.Float64bits(v) }

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// errUnaligned builds the unaligned-access error. It lives out of line
// so the accessors stay within the inlining budget: the hot path never
// pays for the fmt.Errorf machinery.
//
//go:noinline
func errUnaligned(op string, addr uint64) error {
	return fmt.Errorf("%w: %s at %#x", ErrUnalignedAddr, op, addr)
}

func (m *Memory) pageFor(addr uint64, alloc bool) *page {
	pn := addr >> pageShift
	h := pn & (tabSlots - 1)
	if p := m.tabP[h]; p != nil && m.tabPN[h] == pn {
		return p
	}
	p := m.pages[pn]
	if p == nil && alloc {
		p = new(page)
		m.pages[pn] = p
	}
	if p != nil {
		m.tabPN[h], m.tabP[h] = pn, p
	}
	return p
}

// slot returns addr's page when the page-pointer table holds it and
// addr is size-aligned — the accessors' fast path, small enough to
// inline into the interpreter loop — or nil.
func (m *Memory) slot(addr, size uint64) *page {
	pn := addr >> pageShift
	h := pn & (tabSlots - 1)
	if p := m.tabP[h]; addr&(size-1) == 0 && m.tabPN[h] == pn {
		return p
	}
	return nil
}

// Read32 loads an aligned 32-bit word.
func (m *Memory) Read32(addr uint64) (uint32, error) {
	if p := m.slot(addr, 4); p != nil {
		return p.load32(addr), nil
	}
	return m.read32Slow(addr)
}

func (m *Memory) read32Slow(addr uint64) (uint32, error) {
	if addr&3 != 0 {
		return 0, errUnaligned("read32", addr)
	}
	p := m.pageFor(addr, false)
	if p == nil {
		return 0, nil
	}
	return p.load32(addr), nil
}

// Write32 stores an aligned 32-bit word.
func (m *Memory) Write32(addr uint64, v uint32) error {
	if p := m.slot(addr, 4); p != nil {
		p.store32(addr, v)
		return nil
	}
	return m.write32Slow(addr, v)
}

func (m *Memory) write32Slow(addr uint64, v uint32) error {
	if addr&3 != 0 {
		return errUnaligned("write32", addr)
	}
	m.pageFor(addr, true).store32(addr, v)
	return nil
}

// Read64 loads an aligned 64-bit float.
func (m *Memory) Read64(addr uint64) (float64, error) {
	if p := m.slot(addr, 8); p != nil {
		return p.load64(addr), nil
	}
	return m.read64Slow(addr)
}

func (m *Memory) read64Slow(addr uint64) (float64, error) {
	if addr&7 != 0 {
		return 0, errUnaligned("read64", addr)
	}
	p := m.pageFor(addr, false)
	if p == nil {
		return 0, nil
	}
	return p.load64(addr), nil
}

// Write64 stores an aligned 64-bit float.
func (m *Memory) Write64(addr uint64, v float64) error {
	if p := m.slot(addr, 8); p != nil {
		p.store64(addr, v)
		return nil
	}
	return m.write64Slow(addr, v)
}

func (m *Memory) write64Slow(addr uint64, v float64) error {
	if addr&7 != 0 {
		return errUnaligned("write64", addr)
	}
	m.pageFor(addr, true).store64(addr, v)
	return nil
}

// Reset zeroes the memory. Allocated pages are cleared in place and kept
// for reuse — observable contents are identical to a fresh Memory (all
// zeroes), but a reloaded run does not re-pay the page allocations.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		*p = page{}
	}
}

// Machine executes a Program architecturally. A fresh Machine (or Reset)
// corresponds to the paper's measurement protocol step "reload the
// executable": registers cleared, PC at entry.
type Machine struct {
	Prog *Program
	Mem  *Memory

	regs  [NumRegs]int32
	fregs [NumRegs]float64
	pc    int32
	steps uint64

	// classes is the program's decode table (Program.Classes): the
	// interpreter loop indexes it instead of re-dispatching the opcode
	// switch for every retired instruction.
	classes []Class

	// Block tables for the fetch granule blockBytes and the span edges
	// of spansFor (see blockTables): lineEnd[i] reports that
	// instruction i+1 starts a new block, and ops holds one block's
	// dynamic operands. sink is the BlockSink of the run in flight.
	sink       BlockSink
	base       uint64 // Prog.CodeBase
	lineEnd    []bool
	ops        []uint64
	blockBytes int
	tablesFor  *Program
	spansFor   []Span

	// StepLimit guards against runaway loops in workload code; 0 means
	// the default of 100M instructions.
	StepLimit uint64
	// Cancel, when non-nil, is polled every 1024 retired instructions;
	// RunBlocks returns ErrCancelled once it reports true. The multicore
	// co-simulation uses it to stop every core once the measured core
	// finishes, a core fails or the run's context is done.
	Cancel func() bool
	// Spans, when set, also end a block at every span edge, so no block
	// mixes two spans or a span and other code (per-task attribution).
	Spans []Span
}

// NewMachine binds a program to a memory.
func NewMachine(prog *Program, mem *Memory) *Machine {
	return &Machine{Prog: prog, Mem: mem, classes: prog.Classes()}
}

// Reset clears registers and rewinds the PC; memory is left untouched
// (workloads re-initialize their data segments explicitly, mirroring a
// binary reload that rewrites .data).
func (m *Machine) Reset() {
	m.regs = [NumRegs]int32{}
	m.fregs = [NumRegs]float64{}
	m.pc = 0
	m.steps = 0
}

// Reg returns the value of integer register r.
func (m *Machine) Reg(r Reg) int32 { return m.regs[r] }

// SetReg writes integer register r (writes to r0 are discarded).
func (m *Machine) SetReg(r Reg, v int32) {
	if r != 0 {
		m.regs[r] = v
	}
}

// FRegVal returns the value of FP register f.
func (m *Machine) FRegVal(f FReg) float64 { return m.fregs[f] }

// SetFReg writes FP register f.
func (m *Machine) SetFReg(f FReg, v float64) { m.fregs[f] = v }

// Steps returns the number of retired instructions since Reset.
func (m *Machine) Steps() uint64 { return m.steps }

// blockTables returns the line-end bits and the operand buffer for
// fetch granule bytes (below InstrBytes: one instruction per block)
// and the edges of m.Spans, rebuilding them only when the granule, the
// spans or the program changes. A block never holds more instructions
// than one granule spans, and no instruction has more than two operand
// words, so the buffer is sized to one granule.
func (m *Machine) blockTables(bytes int) ([]bool, []uint64) {
	code := m.Prog.Code
	if bytes < InstrBytes {
		bytes = 0
	}
	if m.tablesFor == m.Prog && m.blockBytes == bytes && len(m.lineEnd) == len(code) && slices.Equal(m.spansFor, m.Spans) {
		return m.lineEnd, m.ops
	}
	if cap(m.lineEnd) < len(code) {
		m.lineEnd = make([]bool, len(code))
	}
	m.lineEnd = m.lineEnd[:len(code)]
	longest, run := 1, 0
	for i := range code {
		pc := m.Prog.PCOf(i)
		m.lineEnd[i] = bytes == 0 || pc/uint64(bytes) != (pc+InstrBytes)/uint64(bytes)
		for _, sp := range m.Spans {
			m.lineEnd[i] = m.lineEnd[i] || sp.Contains(pc) != sp.Contains(pc+InstrBytes)
		}
		run++
		longest = max(longest, run)
		if m.lineEnd[i] {
			run = 0
		}
	}
	if cap(m.ops) < 2*longest {
		m.ops = make([]uint64, 2*longest)
	}
	m.ops = m.ops[:2*longest]
	m.blockBytes, m.tablesFor, m.spansFor = bytes, m.Prog, append(m.spansFor[:0], m.Spans...)
	return m.lineEnd, m.ops
}

// RunBlocks executes until Halt, delivering the retired instructions
// to sink one fetch block at a time (see BlockSink). sink may be nil
// for pure architectural runs. Returns the number of retired
// instructions. This is the interpreter's only loop.
func (m *Machine) RunBlocks(sink BlockSink) (uint64, error) {
	limit := m.StepLimit
	if limit == 0 {
		limit = 100_000_000
	}
	code := m.Prog.Code
	classes := m.classes
	if len(classes) != len(code) {
		// The machine was constructed as a literal (tests).
		classes = m.Prog.Classes()
		m.classes = classes
	}
	if sink == nil {
		sink = discard{}
	}
	lineEnd, ops := m.blockTables(sink.FetchBytes())
	lineEnd = lineEnd[:len(code)] // bounds hint: lineEnd[pc] is in range iff code[pc] is
	m.sink, m.base = sink, m.Prog.CodeBase
	n := int32(len(code))
	// pc and the step count live in locals for the duration of the loop;
	// m.pc and m.steps are synced at every exit and m.steps before every
	// delivery (sinks read Steps() between blocks). The open block is
	// [b0, pc) with nops operand words; every exit delivers it first.
	// One compare against stop guards both the step limit and the
	// Cancel poll at every multiple of 1024 steps.
	pc, steps := m.pc, m.steps
	mem := m.Mem
	var err error
	stop := limit
	if m.Cancel != nil {
		stop = min(limit, (steps+1023)&^1023)
	}
	b0, nops := pc, 0
	for {
		if uint32(pc) >= uint32(n) {
			m.exit(b0, pc, pc, nops, steps)
			return steps, fmt.Errorf("%w: pc=%d len=%d", ErrPCOutOfRange, pc, n)
		}
		if steps >= stop {
			if steps >= limit {
				m.exit(b0, pc, pc, nops, steps)
				return steps, fmt.Errorf("%w: %d", ErrStepLimit, limit)
			}
			m.steps = steps
			if m.Cancel() {
				m.exit(b0, pc, pc, nops, steps)
				return steps, ErrCancelled
			}
			stop = min(limit, steps+1024)
		}
		ins := &code[pc]
		next := pc + 1
		taken := false
		switch ins.Op {
		case OpNop:
		case OpHalt:
			steps++
			m.exit(b0, next, pc, nops, steps)
			return steps, nil
		case OpAdd:
			m.SetReg(ins.Rd, m.regs[ins.Rs1]+m.regs[ins.Rs2])
		case OpAddi:
			m.SetReg(ins.Rd, m.regs[ins.Rs1]+ins.Imm)
		case OpSub:
			m.SetReg(ins.Rd, m.regs[ins.Rs1]-m.regs[ins.Rs2])
		case OpSubi:
			m.SetReg(ins.Rd, m.regs[ins.Rs1]-ins.Imm)
		case OpAnd:
			m.SetReg(ins.Rd, m.regs[ins.Rs1]&m.regs[ins.Rs2])
		case OpAndi:
			m.SetReg(ins.Rd, m.regs[ins.Rs1]&ins.Imm)
		case OpOr:
			m.SetReg(ins.Rd, m.regs[ins.Rs1]|m.regs[ins.Rs2])
		case OpOri:
			m.SetReg(ins.Rd, m.regs[ins.Rs1]|ins.Imm)
		case OpXor:
			m.SetReg(ins.Rd, m.regs[ins.Rs1]^m.regs[ins.Rs2])
		case OpXori:
			m.SetReg(ins.Rd, m.regs[ins.Rs1]^ins.Imm)
		case OpSll:
			m.SetReg(ins.Rd, m.regs[ins.Rs1]<<uint(ins.Imm&31))
		case OpSrl:
			m.SetReg(ins.Rd, int32(uint32(m.regs[ins.Rs1])>>uint(ins.Imm&31)))
		case OpMul:
			m.SetReg(ins.Rd, m.regs[ins.Rs1]*m.regs[ins.Rs2])
		case OpDiv:
			if m.regs[ins.Rs2] == 0 {
				m.exit(b0, pc, pc, nops, steps)
				return steps, fmt.Errorf("%w at pc=%d", ErrDivideByZero, pc)
			}
			m.SetReg(ins.Rd, m.regs[ins.Rs1]/m.regs[ins.Rs2])
		case OpLd:
			// Each access tests the memory's inlined fast path first.
			addr := uint64(uint32(m.regs[ins.Rs1] + ins.Imm))
			var v uint32
			if p := mem.slot(addr, 4); p != nil {
				v = p.load32(addr)
			} else if v, err = mem.read32Slow(addr); err != nil {
				m.exit(b0, pc, pc, nops, steps)
				return steps, fmt.Errorf("pc=%d: %w", pc, err)
			}
			m.SetReg(ins.Rd, int32(v))
			ops[nops] = addr
			nops++
		case OpSt:
			addr := uint64(uint32(m.regs[ins.Rs1] + ins.Imm))
			if p := mem.slot(addr, 4); p != nil {
				p.store32(addr, uint32(m.regs[ins.Rs2]))
			} else if err = mem.write32Slow(addr, uint32(m.regs[ins.Rs2])); err != nil {
				m.exit(b0, pc, pc, nops, steps)
				return steps, fmt.Errorf("pc=%d: %w", pc, err)
			}
			ops[nops] = addr
			nops++
		case OpFld:
			addr := uint64(uint32(m.regs[ins.Rs1] + ins.Imm))
			var v float64
			if p := mem.slot(addr, 8); p != nil {
				v = p.load64(addr)
			} else if v, err = mem.read64Slow(addr); err != nil {
				m.exit(b0, pc, pc, nops, steps)
				return steps, fmt.Errorf("pc=%d: %w", pc, err)
			}
			m.fregs[ins.Fd] = v
			ops[nops] = addr
			nops++
		case OpFst:
			addr := uint64(uint32(m.regs[ins.Rs1] + ins.Imm))
			if p := mem.slot(addr, 8); p != nil {
				p.store64(addr, m.fregs[ins.Fs2])
			} else if err = mem.write64Slow(addr, m.fregs[ins.Fs2]); err != nil {
				m.exit(b0, pc, pc, nops, steps)
				return steps, fmt.Errorf("pc=%d: %w", pc, err)
			}
			ops[nops] = addr
			nops++
		case OpBeq:
			if m.regs[ins.Rs1] == m.regs[ins.Rs2] {
				next, taken = ins.Target, true
			}
		case OpBne:
			if m.regs[ins.Rs1] != m.regs[ins.Rs2] {
				next, taken = ins.Target, true
			}
		case OpBlt:
			if m.regs[ins.Rs1] < m.regs[ins.Rs2] {
				next, taken = ins.Target, true
			}
		case OpBge:
			if m.regs[ins.Rs1] >= m.regs[ins.Rs2] {
				next, taken = ins.Target, true
			}
		case OpJmp:
			next, taken = ins.Target, true
		case OpCall:
			m.SetReg(ins.Rd, pc+1)
			next, taken = ins.Target, true
		case OpRet:
			next, taken = m.regs[ins.Rs1], true
		case OpFadd:
			m.fregs[ins.Fd] = m.fregs[ins.Fs1] + m.fregs[ins.Fs2]
		case OpFsub:
			m.fregs[ins.Fd] = m.fregs[ins.Fs1] - m.fregs[ins.Fs2]
		case OpFmul:
			m.fregs[ins.Fd] = m.fregs[ins.Fs1] * m.fregs[ins.Fs2]
		case OpFdiv:
			ops[nops], ops[nops+1] = math.Float64bits(m.fregs[ins.Fs1]), math.Float64bits(m.fregs[ins.Fs2])
			nops += 2
			m.fregs[ins.Fd] = m.fregs[ins.Fs1] / m.fregs[ins.Fs2]
		case OpFsqrt:
			ops[nops] = math.Float64bits(m.fregs[ins.Fs1])
			nops++
			m.fregs[ins.Fd] = math.Sqrt(m.fregs[ins.Fs1])
		case OpFcmp:
			a, b := m.fregs[ins.Fs1], m.fregs[ins.Fs2]
			switch {
			case a < b:
				m.SetReg(ins.Rd, -1)
			case a > b:
				m.SetReg(ins.Rd, 1)
			default:
				m.SetReg(ins.Rd, 0)
			}
		case OpFmov:
			m.fregs[ins.Fd] = m.fregs[ins.Fs1]
		case OpFcvt:
			m.fregs[ins.Fd] = float64(m.regs[ins.Rs1])
		case OpFtoi:
			m.SetReg(ins.Rd, int32(m.fregs[ins.Fs1]))
		default:
			m.exit(b0, pc, pc, nops, steps)
			return steps, fmt.Errorf("%w: %v at pc=%d", ErrUnknownOpcode, ins.Op, pc)
		}
		steps++
		if taken || lineEnd[pc] {
			m.steps = steps
			m.deliver(b0, pc+1, taken, nops)
			b0, nops = next, 0
		}
		pc = next
	}
}

// deliver hands the block [b0, end) with nops operand words to the
// sink of the run in flight.
func (m *Machine) deliver(b0, end int32, taken bool, nops int) {
	m.sink.ConsumeBlock(m.base+uint64(b0)*InstrBytes, m.classes[b0:end], taken, m.ops[:nops])
}

// discard is the sink of a pure architectural run.
type discard struct{}

func (discard) FetchBytes() int                              { return 0 }
func (discard) ConsumeBlock(uint64, []Class, bool, []uint64) {}

// exit syncs the machine's state for a run exit at pc, delivers the
// retired instructions [b0, end) of the open block — a transfer never
// precedes an exit inside a block, so none of them was taken — and
// drops the run's sink.
func (m *Machine) exit(b0, end, pc int32, nops int, steps uint64) {
	m.pc, m.steps = pc, steps
	if b0 < end {
		m.deliver(b0, end, false, nops)
	}
	m.sink = nil
}
