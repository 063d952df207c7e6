// Package isa defines the minimal SPARC-V8-flavoured instruction set
// executed by the simulated LEON3-class cores: a 32-register integer
// file, a 32-register floating-point file, loads/stores, branches and
// the FPU operations whose jitter the paper controls (FDIV, FSQRT).
//
// The package provides three layers:
//
//   - the instruction representation (Instr) and register model,
//   - a Builder, i.e. a tiny structured assembler with labels used by
//     the workload packages to write programs in Go,
//   - a functional interpreter (Machine) that executes programs
//     architecturally and hands the retired instructions to the timing
//     model in internal/cpu one fetch block at a time (a sink that acts
//     between instructions asks for one-instruction blocks).
//
// The interpreter is deliberately split from timing: architectural
// results depend only on the program and its inputs, while cycle counts
// depend on the platform configuration (caches, TLBs, FPU mode). This
// mirrors the real measurement setup, where the same TVCA binary runs on
// the deterministic and the time-randomized build of the processor.
package isa

import (
	"errors"
	"fmt"
	"sync"
)

// Reg names an integer register r0..r31. r0 is hardwired to zero, as in
// SPARC.
type Reg uint8

// FReg names a floating-point register f0..f31.
type FReg uint8

// NumRegs is the size of each register file.
const NumRegs = 32

// Op is an instruction opcode.
type Op uint8

// The instruction set. Integer ALU ops have fixed latency (jitterless in
// the paper's terminology); IMUL/IDIV have longer but fixed latencies;
// loads/stores exercise DL1/DTLB; FDIV/FSQRT are the jittery FPU ops.
const (
	OpNop Op = iota
	OpHalt

	// Integer ALU, register-register and register-immediate.
	OpAdd
	OpAddi
	OpSub
	OpSubi
	OpAnd
	OpAndi
	OpOr
	OpOri
	OpXor
	OpXori
	OpSll // shift left logical by immediate
	OpSrl // shift right logical by immediate
	OpMul
	OpDiv // signed divide; divide by zero traps (returns error)

	// Memory. Effective address = [base] + offset. Word-sized (4 bytes)
	// integer accesses, double-word (8 byte) FP accesses.
	OpLd  // rd = mem32[rs1 + imm]
	OpSt  // mem32[rs1 + imm] = rs2
	OpFld // fd = mem64[rs1 + imm]
	OpFst // mem64[rs1 + imm] = fs2

	// Control flow. Branches compare two integer registers.
	OpBeq
	OpBne
	OpBlt  // signed <
	OpBge  // signed >=
	OpJmp  // unconditional, pc-relative via target index
	OpCall // jumps to target, saves return in rd
	OpRet  // jumps to [rs1]

	// Floating point.
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFsqrt
	OpFcmp // rd = -1/0/1 for fs1 <,=,> fs2 (integer result)
	OpFmov // fd = fs1
	OpFcvt // fd = float64(rs1) — integer to float conversion
	OpFtoi // rd = int32(fs1)
)

var opNames = map[Op]string{
	OpNop: "nop", OpHalt: "halt",
	OpAdd: "add", OpAddi: "addi", OpSub: "sub", OpSubi: "subi",
	OpAnd: "and", OpAndi: "andi", OpOr: "or", OpOri: "ori",
	OpXor: "xor", OpXori: "xori", OpSll: "sll", OpSrl: "srl",
	OpMul: "mul", OpDiv: "div",
	OpLd: "ld", OpSt: "st", OpFld: "fld", OpFst: "fst",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpJmp: "jmp", OpCall: "call", OpRet: "ret",
	OpFadd: "fadd", OpFsub: "fsub", OpFmul: "fmul",
	OpFdiv: "fdiv", OpFsqrt: "fsqrt", OpFcmp: "fcmp",
	OpFmov: "fmov", OpFcvt: "fcvt", OpFtoi: "ftoi",
}

// String returns the mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class partitions opcodes by the pipeline resource they exercise; the
// timing model dispatches on it.
type Class uint8

// Instruction classes as seen by the timing model.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassFPAdd // covers fadd/fsub/fcmp/fmov/fcvt/ftoi
	ClassFPMul
	ClassFPDiv
	ClassFPSqrt
	ClassHalt
)

var classNames = map[Class]string{
	ClassNop: "nop", ClassIntALU: "ialu", ClassIntMul: "imul",
	ClassIntDiv: "idiv", ClassLoad: "load", ClassStore: "store",
	ClassBranch: "branch", ClassFPAdd: "fpadd", ClassFPMul: "fpmul",
	ClassFPDiv: "fpdiv", ClassFPSqrt: "fpsqrt", ClassHalt: "halt",
}

// String names the class.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassOf maps an opcode to its timing class.
func ClassOf(op Op) Class {
	switch op {
	case OpNop:
		return ClassNop
	case OpHalt:
		return ClassHalt
	case OpMul:
		return ClassIntMul
	case OpDiv:
		return ClassIntDiv
	case OpLd, OpFld:
		return ClassLoad
	case OpSt, OpFst:
		return ClassStore
	case OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpCall, OpRet:
		return ClassBranch
	case OpFadd, OpFsub, OpFcmp, OpFmov, OpFcvt, OpFtoi:
		return ClassFPAdd
	case OpFmul:
		return ClassFPMul
	case OpFdiv:
		return ClassFPDiv
	case OpFsqrt:
		return ClassFPSqrt
	default:
		return ClassIntALU
	}
}

// Instr is one decoded instruction. Fields are interpreted per opcode;
// unused fields are zero. Target is an instruction index within the
// program (the builder resolves labels to indices).
type Instr struct {
	Op     Op
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Fd     FReg
	Fs1    FReg
	Fs2    FReg
	Imm    int32
	Target int32
}

// String disassembles the instruction.
func (i Instr) String() string {
	switch i.Op {
	case OpNop, OpHalt:
		return i.Op.String()
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpMul, OpDiv:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case OpAddi, OpSubi, OpAndi, OpOri, OpXori, OpSll, OpSrl:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpLd:
		return fmt.Sprintf("ld r%d, [r%d%+d]", i.Rd, i.Rs1, i.Imm)
	case OpSt:
		return fmt.Sprintf("st [r%d%+d], r%d", i.Rs1, i.Imm, i.Rs2)
	case OpFld:
		return fmt.Sprintf("fld f%d, [r%d%+d]", i.Fd, i.Rs1, i.Imm)
	case OpFst:
		return fmt.Sprintf("fst [r%d%+d], f%d", i.Rs1, i.Imm, i.Fs2)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%s r%d, r%d, @%d", i.Op, i.Rs1, i.Rs2, i.Target)
	case OpJmp:
		return fmt.Sprintf("jmp @%d", i.Target)
	case OpCall:
		return fmt.Sprintf("call @%d, r%d", i.Target, i.Rd)
	case OpRet:
		return fmt.Sprintf("ret [r%d]", i.Rs1)
	case OpFadd, OpFsub, OpFmul, OpFdiv:
		return fmt.Sprintf("%s f%d, f%d, f%d", i.Op, i.Fd, i.Fs1, i.Fs2)
	case OpFsqrt, OpFmov:
		return fmt.Sprintf("%s f%d, f%d", i.Op, i.Fd, i.Fs1)
	case OpFcmp:
		return fmt.Sprintf("fcmp r%d, f%d, f%d", i.Rd, i.Fs1, i.Fs2)
	case OpFcvt:
		return fmt.Sprintf("fcvt f%d, r%d", i.Fd, i.Rs1)
	case OpFtoi:
		return fmt.Sprintf("ftoi r%d, f%d", i.Rd, i.Fs1)
	default:
		return i.Op.String()
	}
}

// InstrBytes is the architectural size of one instruction; PCs advance
// by this much, so consecutive instructions fall in the same or adjacent
// cache lines exactly as on the real machine.
const InstrBytes = 4

// Program is a fully resolved instruction sequence plus its code base
// address (where the text segment is linked). Symbols maps the
// builder's labels to instruction indices — the program's symbol
// table, used e.g. to attribute cycles to tasks by PC range.
type Program struct {
	Name     string
	CodeBase uint64
	Code     []Instr
	Symbols  map[string]int32

	decodeOnce sync.Once
	classes    []Class
}

// Classes returns the program's decode table: ClassOf of every
// instruction, by index. It is built on first use and shared by every
// machine running the program and every trace recorded from it; the
// caller must not modify it.
func (p *Program) Classes() []Class {
	p.decodeOnce.Do(func() {
		p.classes = make([]Class, len(p.Code))
		for i := range p.Code {
			p.classes[i] = ClassOf(p.Code[i].Op)
		}
	})
	return p.classes
}

// SymbolPC returns the memory address of label name and whether it
// exists.
func (p *Program) SymbolPC(name string) (uint64, bool) {
	idx, ok := p.Symbols[name]
	if !ok {
		return 0, false
	}
	return p.PCOf(int(idx)), true
}

// Span names the PC range [Start, End) — e.g. one task's body within a
// program, as derived from its symbols.
type Span struct {
	Name       string
	Start, End uint64
}

// PCOf returns the memory address of instruction index i.
func (p *Program) PCOf(i int) uint64 {
	return p.CodeBase + uint64(i)*InstrBytes
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Code) }

// Errors returned by the interpreter.
var (
	ErrDivideByZero   = errors.New("isa: integer divide by zero")
	ErrPCOutOfRange   = errors.New("isa: PC out of range")
	ErrUnalignedAddr  = errors.New("isa: unaligned memory access")
	ErrStepLimit      = errors.New("isa: step limit exceeded (livelock guard)")
	ErrCancelled      = errors.New("isa: execution cancelled")
	ErrUnknownOpcode  = errors.New("isa: unknown opcode")
	ErrMisalignedBase = errors.New("isa: code base must be 4-byte aligned")
)
