package platform_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/isa"
	"repro/internal/isa/isatest"
	"repro/internal/platform"
)

// coreRunner is a board that runs a prepared machine on its measured
// core in fetch blocks or one instruction per block.
type coreRunner interface {
	RunOnCoreForTest(m *isa.Machine, runSeed uint64, perInstr bool) (platform.BoardCounters, error)
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
