package isa

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func mustBuild(t *testing.T, b *Builder) *Program {
	t.Helper()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// retired is one retired instruction as a one-instruction block
// delivers it: its PC, class, taken bit and dynamic operands.
type retired struct {
	PC    uint64
	Class Class
	Taken bool
	Ops   []uint64
}

// instrSink asks for one-instruction blocks and keeps each as a retired.
type instrSink struct{ got []retired }

func (*instrSink) FetchBytes() int { return 0 }

func (s *instrSink) ConsumeBlock(pc uint64, classes []Class, taken bool, ops []uint64) {
	s.got = append(s.got, retired{PC: pc, Class: classes[0], Taken: taken, Ops: append([]uint64(nil), ops...)})
}

func runProgram(t *testing.T, p *Program) (*Machine, []retired) {
	t.Helper()
	m := NewMachine(p, NewMemory())
	var sink instrSink
	if _, err := m.RunBlocks(&sink); err != nil {
		t.Fatal(err)
	}
	return m, sink.got
}

func TestArithmetic(t *testing.T) {
	b := NewBuilder("arith", 0x1000)
	b.Li(1, 6).Li(2, 7)
	b.Mul(3, 1, 2)   // 42
	b.Add(4, 3, 1)   // 48
	b.Sub(5, 4, 2)   // 41
	b.Div(6, 3, 2)   // 6
	b.Andi(7, 3, 15) // 42 & 15 = 10
	b.Ori(8, 7, 1)   // 11
	b.Xori(9, 8, 2)  // 9
	b.Sll(10, 1, 3)  // 48
	b.Srl(11, 10, 2) // 12
	b.Halt()
	m, _ := runProgram(t, mustBuild(t, b))
	want := map[Reg]int32{3: 42, 4: 48, 5: 41, 6: 6, 7: 10, 8: 11, 9: 9, 10: 48, 11: 12}
	for r, v := range want {
		if got := m.Reg(r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestR0Hardwired(t *testing.T) {
	b := NewBuilder("r0", 0)
	b.Li(0, 99).Li(1, 5).Add(0, 1, 1).Halt()
	m, _ := runProgram(t, mustBuild(t, b))
	if m.Reg(0) != 0 {
		t.Errorf("r0 = %d, want 0", m.Reg(0))
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	b := NewBuilder("mem", 0)
	b.Li(1, 0x2000) // base
	b.Li(2, 1234)
	b.St(1, 8, 2) // mem[0x2008] = 1234
	b.Ld(3, 1, 8) // r3 = mem[0x2008]
	b.Halt()
	m, evs := runProgram(t, mustBuild(t, b))
	if m.Reg(3) != 1234 {
		t.Errorf("r3 = %d, want 1234", m.Reg(3))
	}
	// Store then load with the same address.
	var st, ld *retired
	for i := range evs {
		switch evs[i].Class {
		case ClassStore:
			st = &evs[i]
		case ClassLoad:
			ld = &evs[i]
		}
	}
	if st == nil || ld == nil {
		t.Fatal("missing load/store events")
	}
	if len(st.Ops) != 1 || len(ld.Ops) != 1 || st.Ops[0] != 0x2008 || ld.Ops[0] != 0x2008 {
		t.Errorf("operands %#x %#x, want one address 0x2008 each", st.Ops, ld.Ops)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	b := NewBuilder("float", 0)
	b.Li(1, 0x3000)
	b.Li(2, 9)
	b.Fcvt(1, 2)   // f1 = 9.0
	b.Fsqrt(2, 1)  // f2 = 3.0
	b.Fst(1, 0, 2) // mem[0x3000] = 3.0
	b.Fld(3, 1, 0) // f3 = 3.0
	b.Li(3, 2)
	b.Fcvt(4, 3)    // f4 = 2.0
	b.Fdiv(5, 3, 4) // f5 = 1.5
	b.Fmul(6, 5, 4) // f6 = 3.0
	b.Fadd(7, 5, 5) // f7 = 3.0
	b.Fsub(8, 7, 5) // f8 = 1.5
	b.Fcmp(4, 7, 8) // r4 = 1 (3.0 > 1.5)
	b.Ftoi(5, 5)    // r5 = 1
	b.Halt()
	m, evs := runProgram(t, mustBuild(t, b))
	if got := m.FRegVal(2); got != 3.0 {
		t.Errorf("f2 = %v, want 3", got)
	}
	if got := m.FRegVal(5); got != 1.5 {
		t.Errorf("f5 = %v, want 1.5", got)
	}
	if m.Reg(4) != 1 {
		t.Errorf("fcmp r4 = %d, want 1", m.Reg(4))
	}
	if m.Reg(5) != 1 {
		t.Errorf("ftoi r5 = %d, want 1", m.Reg(5))
	}
	// FDIV and FSQRT must carry their operand values (math.Float64bits)
	// for the FPU latency model; FLD and FST their addresses.
	var sawDiv, sawSqrt bool
	for _, e := range evs {
		switch e.Class {
		case ClassFPDiv:
			sawDiv = true
			if len(e.Ops) != 2 || math.Float64frombits(e.Ops[0]) != 3.0 || math.Float64frombits(e.Ops[1]) != 2.0 {
				t.Errorf("fdiv operands %#x, want 3 2", e.Ops)
			}
		case ClassFPSqrt:
			sawSqrt = true
			if len(e.Ops) != 1 || math.Float64frombits(e.Ops[0]) != 9.0 {
				t.Errorf("fsqrt operands %#x, want 9", e.Ops)
			}
		case ClassLoad, ClassStore:
			if len(e.Ops) != 1 || e.Ops[0] != 0x3000 {
				t.Errorf("fld/fst operands %#x, want 0x3000", e.Ops)
			}
		}
	}
	if !sawDiv || !sawSqrt {
		t.Error("missing FPU events")
	}
}

func TestLoopSumsFirstN(t *testing.T) {
	// sum 1..10 via blt loop.
	b := NewBuilder("loop", 0)
	b.Li(1, 0)  // sum
	b.Li(2, 1)  // i
	b.Li(3, 11) // bound
	b.Label("loop")
	b.Add(1, 1, 2)
	b.Addi(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.Halt()
	m, evs := runProgram(t, mustBuild(t, b))
	if m.Reg(1) != 55 {
		t.Errorf("sum = %d, want 55", m.Reg(1))
	}
	// Branch events: 9 taken + 1 not taken.
	taken, notTaken := 0, 0
	for _, e := range evs {
		if e.Class == ClassBranch {
			if e.Taken {
				taken++
			} else {
				notTaken++
			}
		}
	}
	if taken != 9 || notTaken != 1 {
		t.Errorf("taken=%d notTaken=%d, want 9/1", taken, notTaken)
	}
}

func TestCallRet(t *testing.T) {
	b := NewBuilder("call", 0)
	b.Li(1, 5)
	b.Call("double", 30) // r30 = link register
	b.Mov(3, 2)
	b.Halt()
	b.Label("double")
	b.Add(2, 1, 1)
	b.Ret(30)
	m, _ := runProgram(t, mustBuild(t, b))
	if m.Reg(3) != 10 {
		t.Errorf("r3 = %d, want 10", m.Reg(3))
	}
}

func TestBranchVariants(t *testing.T) {
	// beq/bne/bge coverage.
	b := NewBuilder("br", 0)
	b.Li(1, 5).Li(2, 5).Li(3, 0)
	b.Beq(1, 2, "eq")
	b.Li(3, -1) // skipped
	b.Label("eq")
	b.Addi(3, 3, 1) // r3 = 1
	b.Bne(1, 2, "bad")
	b.Addi(3, 3, 1) // r3 = 2
	b.Bge(1, 2, "ge")
	b.Li(3, -1)
	b.Label("ge")
	b.Addi(3, 3, 1) // r3 = 3
	b.Halt()
	b.Label("bad")
	b.Li(3, -100)
	b.Halt()
	m, _ := runProgram(t, mustBuild(t, b))
	if m.Reg(3) != 3 {
		t.Errorf("r3 = %d, want 3", m.Reg(3))
	}
}

func TestDivideByZero(t *testing.T) {
	b := NewBuilder("divzero", 0)
	b.Li(1, 4).Li(2, 0).Div(3, 1, 2).Halt()
	m := NewMachine(mustBuild(t, b), NewMemory())
	if _, err := m.RunBlocks(nil); !errors.Is(err, ErrDivideByZero) {
		t.Errorf("err = %v, want ErrDivideByZero", err)
	}
}

func TestStepLimit(t *testing.T) {
	b := NewBuilder("infinite", 0)
	b.Label("l").Jmp("l")
	m := NewMachine(mustBuild(t, b), NewMemory())
	m.StepLimit = 1000
	if _, err := m.RunBlocks(nil); !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestPCOutOfRange(t *testing.T) {
	// Program without halt runs off the end.
	b := NewBuilder("offend", 0)
	b.Nop()
	m := NewMachine(mustBuild(t, b), NewMemory())
	if _, err := m.RunBlocks(nil); !errors.Is(err, ErrPCOutOfRange) {
		t.Errorf("err = %v, want ErrPCOutOfRange", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("empty", 0).Build(); err == nil {
		t.Error("empty program accepted")
	}
	b := NewBuilder("undef", 0)
	b.Jmp("nowhere").Halt()
	if _, err := b.Build(); err == nil {
		t.Error("undefined label accepted")
	}
	b = NewBuilder("dup", 0)
	b.Label("x").Nop().Label("x").Halt()
	if _, err := b.Build(); err == nil {
		t.Error("duplicate label accepted")
	}
	if _, err := NewBuilder("misaligned", 2).Halt().Build(); !errors.Is(err, ErrMisalignedBase) {
		t.Errorf("misaligned base err = %v", err)
	}
}

func TestPCAddresses(t *testing.T) {
	b := NewBuilder("pcs", 0x4000)
	b.Nop().Nop().Halt()
	p := mustBuild(t, b)
	if p.PCOf(0) != 0x4000 || p.PCOf(2) != 0x4008 {
		t.Errorf("PCs %#x %#x", p.PCOf(0), p.PCOf(2))
	}
	_, evs := runProgram(t, p)
	if evs[0].PC != 0x4000 || evs[1].PC != 0x4004 || evs[2].PC != 0x4008 {
		t.Errorf("event PCs: %#x %#x %#x", evs[0].PC, evs[1].PC, evs[2].PC)
	}
}

func TestMachineResetRerunsDeterministically(t *testing.T) {
	b := NewBuilder("rerun", 0)
	b.Li(1, 3).Li(2, 4).Mul(3, 1, 2).Halt()
	p := mustBuild(t, b)
	m := NewMachine(p, NewMemory())
	n1, err := m.RunBlocks(nil)
	if err != nil {
		t.Fatal(err)
	}
	r1 := m.Reg(3)
	m.Reset()
	n2, err := m.RunBlocks(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || m.Reg(3) != r1 {
		t.Errorf("rerun differs: steps %d/%d r3 %d/%d", n1, n2, r1, m.Reg(3))
	}
}

func TestMemoryAlignment(t *testing.T) {
	mem := NewMemory()
	if err := mem.Write32(2, 1); err == nil {
		t.Error("unaligned write32 accepted")
	}
	if _, err := mem.Read32(1); err == nil {
		t.Error("unaligned read32 accepted")
	}
	if err := mem.Write64(4, 1); err == nil {
		t.Error("unaligned write64 accepted")
	}
	if _, err := mem.Read64(12); err == nil {
		t.Error("unaligned read64 accepted")
	}
}

func TestMemoryZeroFill(t *testing.T) {
	mem := NewMemory()
	v, err := mem.Read32(0x123400)
	if err != nil || v != 0 {
		t.Errorf("untouched read = %v, %v", v, err)
	}
	f, err := mem.Read64(0x9000)
	if err != nil || f != 0 {
		t.Errorf("untouched read64 = %v, %v", f, err)
	}
}

func TestMemoryCrossPage(t *testing.T) {
	mem := NewMemory()
	// Last word of one page and first of the next.
	if err := mem.Write32(pageSize-4, 0xAABBCCDD); err != nil {
		t.Fatal(err)
	}
	if err := mem.Write32(pageSize, 0x11223344); err != nil {
		t.Fatal(err)
	}
	a, _ := mem.Read32(pageSize - 4)
	b, _ := mem.Read32(pageSize)
	if a != 0xAABBCCDD || b != 0x11223344 {
		t.Errorf("cross page: %#x %#x", a, b)
	}
}

func TestMemoryReset(t *testing.T) {
	mem := NewMemory()
	mem.Write32(0x100, 7)
	mem.Reset()
	if v, _ := mem.Read32(0x100); v != 0 {
		t.Errorf("after reset: %d", v)
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpNop}, "nop"},
		{Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Instr{Op: OpAddi, Rd: 1, Rs1: 0, Imm: -4}, "addi r1, r0, -4"},
		{Instr{Op: OpLd, Rd: 2, Rs1: 3, Imm: 8}, "ld r2, [r3+8]"},
		{Instr{Op: OpSt, Rs1: 3, Imm: -8, Rs2: 2}, "st [r3-8], r2"},
		{Instr{Op: OpBeq, Rs1: 1, Rs2: 2, Target: 7}, "beq r1, r2, @7"},
		{Instr{Op: OpFdiv, Fd: 1, Fs1: 2, Fs2: 3}, "fdiv f1, f2, f3"},
		{Instr{Op: OpFsqrt, Fd: 1, Fs1: 2}, "fsqrt f1, f2"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestClassOfCoverage(t *testing.T) {
	cases := map[Op]Class{
		OpNop: ClassNop, OpHalt: ClassHalt, OpAdd: ClassIntALU,
		OpMul: ClassIntMul, OpDiv: ClassIntDiv, OpLd: ClassLoad,
		OpFld: ClassLoad, OpSt: ClassStore, OpFst: ClassStore,
		OpBeq: ClassBranch, OpJmp: ClassBranch, OpCall: ClassBranch,
		OpRet: ClassBranch, OpFadd: ClassFPAdd, OpFcmp: ClassFPAdd,
		OpFmul: ClassFPMul, OpFdiv: ClassFPDiv, OpFsqrt: ClassFPSqrt,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestOpAndClassStrings(t *testing.T) {
	if OpFdiv.String() != "fdiv" {
		t.Error("OpFdiv name")
	}
	if !strings.HasPrefix(Op(200).String(), "op(") {
		t.Error("unknown op name")
	}
	if ClassFPSqrt.String() != "fpsqrt" {
		t.Error("class name")
	}
	if !strings.HasPrefix(Class(200).String(), "class(") {
		t.Error("unknown class name")
	}
}

func TestCancellation(t *testing.T) {
	b := NewBuilder("spin", 0)
	b.Label("l").Addi(1, 1, 1).Jmp("l")
	p := mustBuild(t, b)
	m := NewMachine(p, NewMemory())
	calls := 0
	m.Cancel = func() bool {
		calls++
		return calls > 3
	}
	_, err := m.RunBlocks(nil)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	// Polled every 1024 steps: should stop shortly after the 4th poll.
	if m.Steps() > 5*1024 {
		t.Errorf("ran %d steps before cancelling", m.Steps())
	}
}

func TestCancelNeverTrueCompletesNormally(t *testing.T) {
	b := NewBuilder("short", 0)
	b.Li(1, 7).Halt()
	m := NewMachine(mustBuild(t, b), NewMemory())
	m.Cancel = func() bool { return false }
	if _, err := m.RunBlocks(nil); err != nil {
		t.Fatal(err)
	}
	if m.Reg(1) != 7 {
		t.Error("result wrong under no-op cancel hook")
	}
}

func TestSymbols(t *testing.T) {
	b := NewBuilder("syms", 0x100)
	b.Nop()
	b.Label("entry2")
	b.Nop()
	b.Label("fn")
	b.Halt()
	p := mustBuild(t, b)
	pc, ok := p.SymbolPC("fn")
	if !ok || pc != 0x108 {
		t.Errorf("fn pc = %#x,%v", pc, ok)
	}
	if _, ok := p.SymbolPC("missing"); ok {
		t.Error("missing symbol found")
	}
	if p.Symbols["entry2"] != 1 {
		t.Errorf("entry2 index %d", p.Symbols["entry2"])
	}
}

func TestUnknownOpcodeRejected(t *testing.T) {
	p := &Program{Name: "bad", Code: []Instr{{Op: Op(200)}}}
	m := NewMachine(p, NewMemory())
	if _, err := m.RunBlocks(nil); !errors.Is(err, ErrUnknownOpcode) {
		t.Errorf("err = %v, want ErrUnknownOpcode", err)
	}
}

func TestGuestUnalignedAccessSurfaces(t *testing.T) {
	// A guest load from an unaligned address must fail with a located
	// error, not corrupt memory.
	b := NewBuilder("unaligned", 0)
	b.Li(1, 2)
	b.Ld(2, 1, 0)
	b.Halt()
	m := NewMachine(mustBuild(t, b), NewMemory())
	if _, err := m.RunBlocks(nil); !errors.Is(err, ErrUnalignedAddr) {
		t.Errorf("err = %v, want ErrUnalignedAddr", err)
	}
	// Same for FP stores.
	b = NewBuilder("unaligned-f", 0)
	b.Li(1, 4)
	b.Fst(1, 0, 1)
	b.Halt()
	m = NewMachine(mustBuild(t, b), NewMemory())
	if _, err := m.RunBlocks(nil); !errors.Is(err, ErrUnalignedAddr) {
		t.Errorf("fst err = %v, want ErrUnalignedAddr", err)
	}
}
