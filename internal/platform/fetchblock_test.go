package platform_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/isa"
	"repro/internal/isa/isatest"
	"repro/internal/platform"
)

// coreRunner is a board that runs a prepared machine, or a TaskAware
// workload's run attributed to its tasks, on its measured core in fetch
// blocks or one instruction per block.
type coreRunner interface {
	RunOnCoreForTest(m *isa.Machine, runSeed uint64, perInstr bool) (platform.BoardCounters, error)
	RunTasksForTest(w platform.TaskAware, run int, seed uint64, perInstr bool) (platform.BoardCounters, []uint64, error)
}

// boardPair is two identical boards: one driven in fetch blocks, one
// through one-instruction blocks.
type boardPair struct {
	name           string
	blocks, single coreRunner
}

// differentialBoards builds the DET, RAND and multicore pairs; the
// multicore pair's measured core contends with a co-runner for the bus.
func differentialBoards(t testing.TB) []boardPair {
	t.Helper()
	var pairs []boardPair
	for _, cfg := range []platform.Config{platform.DET(), platform.RAND()} {
		var pp [2]coreRunner
		for i := range pp {
			p, err := platform.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pp[i] = p
		}
		pairs = append(pairs, boardPair{cfg.Name, pp[0], pp[1]})
	}
	warm, err := fabric.BuiltinRegistry().Build(fabric.WorkloadSpec{Kind: "crc32"})
	if err != nil {
		t.Fatal(err)
	}
	var mm [2]coreRunner
	for i := range mm {
		mc, err := platform.NewStreamerMulticoreForTest(platform.RAND(), warm)
		if err != nil {
			t.Fatal(err)
		}
		mm[i] = mc
	}
	return append(pairs, boardPair{"multicore", mm[0], mm[1]})
}

// compareRun runs one program through both boards of bp, each on its
// own machine from prepare, and fails unless cycles, every counter and
// the error agree.
func compareRun(t *testing.T, bp boardPair, label string, seed uint64, prepare func() (*isa.Machine, error)) {
	t.Helper()
	mb, err := prepare()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := prepare()
	if err != nil {
		t.Fatal(err)
	}
	got, errB := bp.blocks.RunOnCoreForTest(mb, seed, false)
	want, errS := bp.single.RunOnCoreForTest(ms, seed, true)
	if fmt.Sprint(errB) != fmt.Sprint(errS) {
		t.Fatalf("%s %s: blocks error %v, one-instruction blocks error %v", bp.name, label, errB, errS)
	}
	if got != want {
		t.Fatalf("%s %s: fetch blocks diverge from one-instruction blocks:\nblocks %+v\nsingle %+v", bp.name, label, got, want)
	}
	if mb.Steps() != ms.Steps() {
		t.Fatalf("%s %s: %d retired instructions in blocks, %d one at a time", bp.name, label, mb.Steps(), ms.Steps())
	}
}

// TestFetchBlocksDifferential drives every registry workload through
// the same boards in fetch blocks and in one-instruction blocks (the
// per-instruction path every Event sink takes) and requires identical
// cycles, pipeline, cache, TLB, FPU, bus and DRAM counters — MRUHits
// included — on the DET, RAND and multicore boards.
func TestFetchBlocksDifferential(t *testing.T) {
	reg := fabric.BuiltinRegistry()
	for _, bp := range differentialBoards(t) {
		for _, kind := range reg.Kinds() {
			w, err := reg.Build(fabric.WorkloadSpec{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				compareRun(t, bp, fmt.Sprintf("%s run %d", kind, run), platform.DeriveRunSeed(7, run),
					func() (*isa.Machine, error) { return w.Prepare(run) })
			}
		}
	}
}

// spanLoop is a TaskAware loop of six iterations whose two task spans
// start and end inside fetch lines and are entered and left by falling
// through: the only case where the span edges cut blocks that the
// fetch granule alone would not. Its stream is the same on every run;
// keyed declares that with the empty trace key, so a board records its
// first run and replays the rest.
type spanLoop struct {
	prog  *isa.Program
	keyed bool
}

func newSpanLoop(t *testing.T, keyed bool) spanLoop {
	t.Helper()
	prog, err := isa.NewBuilder("span-loop", 0x1000).
		Li(1, 6).      // 0: iterations
		Li(5, 0x4000). // 1: data pointer
		Label("loop").
		Addi(2, 2, 1).   // 2: dispatcher
		Ld(3, 5, 0).     // 3
		Label("a").      // 4: mid-line
		Ld(4, 5, 64).    // 4
		St(5, 512, 4).   // 5
		Fcvt(1, 4).      // 6
		Fdiv(2, 1, 1).   // 7
		Fsqrt(3, 2).     // 8: the next line
		Addi(5, 5, 160). // 9
		Label("a_end").  // 10: mid-line
		Nop().           // 10: dispatcher
		Label("b").      // 11
		Ld(6, 5, 128).   // 11
		St(5, 256, 6).   // 12
		Mul(7, 6, 6).    // 13
		Label("b_end").  // 14: mid-line
		Subi(1, 1, 1).   // 14: dispatcher
		Bne(1, 0, "loop").
		Halt().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spanLoop{prog: prog, keyed: keyed}
}

func (w spanLoop) Name() string { return "span-loop" }

func (w spanLoop) Prepare(int) (*isa.Machine, error) {
	return isa.NewMachine(w.prog, isa.NewMemory()), nil
}

func (w spanLoop) PathOf(*isa.Machine) string { return "" }

func (w spanLoop) TraceKey(dst []byte, _ int) ([]byte, bool) { return dst[:0], w.keyed }

func (w spanLoop) TaskSpans() []isa.Span {
	pc := func(sym string) uint64 {
		v, _ := w.prog.SymbolPC(sym)
		return v
	}
	return []isa.Span{
		{Name: "a", Start: pc("a"), End: pc("a_end")},
		{Name: "b", Start: pc("b"), End: pc("b_end")},
	}
}

// TestFetchBlocksCutAtSpanEdges: the blocks a TaskAware workload's run
// is cut into at its span edges, interpreted, recorded and replayed,
// give the DET, RAND and multicore boards the same cycles and counters
// as one-instruction blocks, and the measured core's worst job per
// span equals the reference attribution's.
func TestFetchBlocksCutAtSpanEdges(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		w := newSpanLoop(t, keyed)
		for _, bp := range differentialBoards(t) {
			for run := 0; run < 3; run++ {
				seed := platform.DeriveRunSeed(9, run)
				got, gotWorst, err := bp.blocks.RunTasksForTest(w, run, seed, false)
				if err != nil {
					t.Fatal(err)
				}
				want, wantWorst, err := bp.single.RunTasksForTest(w, run, seed, true)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s keyed=%v run %d", bp.name, keyed, run)
				if got != want {
					t.Fatalf("%s: cut blocks diverge from one-instruction blocks:\nblocks %+v\nsingle %+v", label, got, want)
				}
				if len(wantWorst) != 2 || wantWorst[0] == 0 || wantWorst[1] == 0 {
					t.Fatalf("%s: reference worst jobs %v, want one per span", label, wantWorst)
				}
				if !slices.Equal(gotWorst, wantWorst) {
					t.Fatalf("%s: worst jobs %v, reference %v", label, gotWorst, wantWorst)
				}
			}
		}
	}
}

// instrs encodes instructions in isatest.DecodeProgram's format.
func instrs(ins ...isa.Instr) []byte {
	var out []byte
	for _, in := range ins {
		var b [8]byte
		b[0], b[1], b[2], b[3] = byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2)
		binary.LittleEndian.PutUint16(b[4:], uint16(in.Imm))
		binary.LittleEndian.PutUint16(b[6:], uint16(in.Target))
		out = append(out, b[:]...)
	}
	return out
}

// FuzzFetchBlocks is the differential on the programs FuzzInterpreter's
// decoder makes of arbitrary bytes: wild control flow, and runs that end
// in every error class with a part-filled block, which must be charged
// before the run returns.
func FuzzFetchBlocks(f *testing.F) {
	f.Add([]byte{})
	// Straight-line loads, stores and FPU work filling several lines,
	// then a counted loop back over them.
	f.Add(instrs(
		isa.Instr{Op: isa.OpAddi, Rd: 1, Imm: 0x100},
		isa.Instr{Op: isa.OpSt, Rs1: 1, Rs2: 2, Imm: 8},
		isa.Instr{Op: isa.OpLd, Rd: 3, Rs1: 1, Imm: 8},
		isa.Instr{Op: isa.OpFld, Rd: 4, Rs1: 1, Imm: 64},
		isa.Instr{Op: isa.OpFcvt, Rd: 5, Rs1: 3},
		isa.Instr{Op: isa.OpFdiv, Rd: 6, Rs1: 5, Rs2: 5},
		isa.Instr{Op: isa.OpFsqrt, Rd: 7, Rs1: 6},
		isa.Instr{Op: isa.OpFst, Rs1: 1, Rs2: 7, Imm: 4096},
		isa.Instr{Op: isa.OpMul, Rd: 8, Rs1: 1, Rs2: 1},
		isa.Instr{Op: isa.OpAddi, Rd: 9, Rs1: 9, Imm: 1},
		isa.Instr{Op: isa.OpAddi, Rd: 10, Imm: 40},
		isa.Instr{Op: isa.OpBlt, Rs1: 9, Rs2: 10, Target: 1},
	))
	// Two instructions retire in the line, then a divide by zero.
	f.Add(instrs(
		isa.Instr{Op: isa.OpAddi, Rd: 1, Imm: 7},
		isa.Instr{Op: isa.OpLd, Rd: 2, Rs1: 1, Imm: 1},
		isa.Instr{Op: isa.OpDiv, Rd: 3, Rs1: 1, Rs2: 0},
	))
	// An unaligned load after a retired store in the same line.
	f.Add(instrs(
		isa.Instr{Op: isa.OpSt, Rs1: 0, Rs2: 1, Imm: 64},
		isa.Instr{Op: isa.OpLd, Rd: 2, Rs1: 0, Imm: 3},
	))
	// Three instructions of a tight loop, the jump back taken: the step
	// limit lands mid-block.
	f.Add(instrs(
		isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 1},
		isa.Instr{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 1},
		isa.Instr{Op: isa.OpJmp, Target: 0},
	))
	// A return to a garbage PC, and an undecodable opcode mid-line.
	f.Add(instrs(
		isa.Instr{Op: isa.OpAddi, Rd: 5, Imm: 0x3039},
		isa.Instr{Op: isa.OpRet, Rs1: 5},
	))
	f.Add(instrs(isa.Instr{Op: isa.OpNop}, isa.Instr{Op: 47}))

	bps := differentialBoards(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// A short step limit bounds the sparse memory a program of wild
		// stores can touch: each of the eight machines per input may map
		// a fresh 4 KiB page per store.
		if len(data) > 8*4096 {
			t.Skip("program too large")
		}
		prog := isatest.DecodeProgram(data)
		for _, bp := range bps {
			compareRun(t, bp, "fuzz program", 42, func() (*isa.Machine, error) {
				m := isa.NewMachine(prog, isa.NewMemory())
				m.StepLimit = 4096
				return m, nil
			})
		}
	})
}
