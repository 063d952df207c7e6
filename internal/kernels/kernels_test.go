package kernels

import (
	"context"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/isa"
	"repro/internal/platform"
)

func run(t *testing.T, w platform.Workload, runIdx int) *isa.Machine {
	t.Helper()
	m, err := w.Prepare(runIdx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunBlocks(nil); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMatMulMatchesReference(t *testing.T) {
	k := MatMul{N: 12, Seed: 7}
	for runIdx := 0; runIdx < 3; runIdx++ {
		m := run(t, k, runIdx)
		want := k.Reference(runIdx)
		for i := 0; i < k.N; i++ {
			for j := 0; j < k.N; j++ {
				if got := k.ResultAt(m, i, j); got != want[i][j] {
					t.Fatalf("run %d C[%d][%d] = %v, want %v", runIdx, i, j, got, want[i][j])
				}
			}
		}
	}
}

func TestMatMulValidate(t *testing.T) {
	if _, err := (MatMul{N: 1}).Prepare(0); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := (MatMul{N: 100}).Prepare(0); err == nil {
		t.Error("N=100 accepted")
	}
}

func TestCRC32MatchesReference(t *testing.T) {
	k := CRC32{Bytes: 1024, Seed: 3}
	for runIdx := 0; runIdx < 3; runIdx++ {
		m := run(t, k, runIdx)
		if got, want := k.Result(m), k.Reference(runIdx); got != want {
			t.Fatalf("run %d crc = %#x, want %#x", runIdx, got, want)
		}
	}
}

func TestCRC32KnownVector(t *testing.T) {
	// Cross-check the table against Go's own hash/crc32 semantics via
	// the reference implementation on a fixed buffer: the reference and
	// guest agree (above); here assert the table's first entries.
	tab := crcTable()
	if tab[0] != 0 || tab[1] != 0x77073096 || tab[255] != 0x2D02EF8D {
		t.Errorf("IEEE table wrong: %#x %#x %#x", tab[0], tab[1], tab[255])
	}
}

func TestCRC32Validate(t *testing.T) {
	for _, n := range []int{0, 3, 5, 1<<20 + 4} {
		if _, err := (CRC32{Bytes: n}).Prepare(0); err == nil {
			t.Errorf("bytes=%d accepted", n)
		}
	}
}

func TestInsertionSortSorts(t *testing.T) {
	k := InsertionSort{N: 128, Seed: 9}
	for runIdx := 0; runIdx < 3; runIdx++ {
		m := run(t, k, runIdx)
		keys := k.Keys(m)
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Fatalf("run %d not sorted: %v...", runIdx, keys[:8])
		}
	}
}

func TestInsertionSortTimingDependsOnInput(t *testing.T) {
	// Different runs (different permutations) take different instruction
	// counts — the data-dependent jitter source this kernel provides.
	k := InsertionSort{N: 64, Seed: 2}
	seen := map[uint64]bool{}
	for runIdx := 0; runIdx < 6; runIdx++ {
		m := run(t, k, runIdx)
		seen[m.Steps()] = true
	}
	if len(seen) < 4 {
		t.Errorf("only %d distinct instruction counts", len(seen))
	}
}

func TestVecNormProducesUnitVectors(t *testing.T) {
	k := VecNorm{N: 32, Seed: 5}
	m := run(t, k, 0)
	for i := 0; i < k.N; i++ {
		n2 := 0.0
		for l := 0; l < 4; l++ {
			v := k.Lane(m, i, l)
			n2 += v * v
		}
		if math.Abs(math.Sqrt(n2)-1) > 1e-12 {
			t.Fatalf("vector %d norm %v", i, math.Sqrt(n2))
		}
	}
}

func TestKernelsRunUnderMBPTAPipeline(t *testing.T) {
	// Smoke test: each kernel runs on the RAND platform as a campaign.
	for _, w := range []platform.Workload{
		MatMul{N: 16, Seed: 1},
		CRC32{Bytes: 2048, Seed: 1},
		InsertionSort{N: 96, Seed: 1},
		VecNorm{N: 64, Seed: 1},
	} {
		c, err := platform.StreamCampaign(context.Background(), platform.RAND(), w,
			platform.StreamOptions{MaxRuns: 12, BatchSize: 12, BaseSeed: 8}, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if len(c.Times()) != 12 {
			t.Fatalf("%s: %d runs", w.Name(), len(c.Times()))
		}
		for _, v := range c.Times() {
			if v <= 0 {
				t.Fatalf("%s: nonpositive time", w.Name())
			}
		}
	}
}

func TestVecNormAnalysisModeSlowerThanOperation(t *testing.T) {
	// The FPU-heavy kernel is where the analysis-mode worst-case FDIV /
	// FSQRT latencies cost the most; analysis-mode runs must never be
	// faster than operation-mode runs of the same input.
	k := VecNorm{N: 128, Seed: 4}
	randCfg := platform.RAND() // analysis mode
	detCfg := platform.RAND()
	detCfg.FPUMode = "operation"
	pa, err := platform.New(randCfg)
	if err != nil {
		t.Fatal(err)
	}
	po, err := platform.New(detCfg)
	if err != nil {
		t.Fatal(err)
	}
	for runIdx := 0; runIdx < 5; runIdx++ {
		ra, err := pa.ExecuteRun(context.Background(), k, runIdx, 33)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := po.ExecuteRun(context.Background(), k, runIdx, 33)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Cycles < ro.Cycles {
			t.Errorf("run %d: analysis %d < operation %d", runIdx, ra.Cycles, ro.Cycles)
		}
	}
}

// block is one delivered fetch block: its first PC, the classes of its
// instructions, whether its last one transferred control, and their
// dynamic operands.
type block struct {
	pc      uint64
	classes []isa.Class
	taken   bool
	ops     []uint64
}

func (b block) equal(o block) bool {
	return b.pc == o.pc && b.taken == o.taken &&
		slices.Equal(b.classes, o.classes) && slices.Equal(b.ops, o.ops)
}

// blockRecorder keeps the 32-byte fetch blocks of a run.
type blockRecorder struct{ blocks []block }

func (*blockRecorder) FetchBytes() int { return 32 }

func (r *blockRecorder) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	r.blocks = append(r.blocks, block{pc: pc, classes: slices.Clone(classes), taken: taken, ops: slices.Clone(ops)})
}

// TestReloadRestoresPrepareState: for every kernel that implements
// platform.Reloader, reloading a machine that already ran (its output
// words written) gives the state of a fresh Prepare of the new run —
// registers, retired-step count and every data word — and the two
// machines then retire identical fetch-block streams.
func TestReloadRestoresPrepareState(t *testing.T) {
	const region = 0x40000 // every kernel's data segment lies below this offset
	for _, w := range []platform.Workload{
		CRC32{Bytes: 1024, Seed: 3},
		InsertionSort{N: 48, Seed: 3},
		VecNorm{N: 16, Seed: 3},
		SecretDep{Lines: 48, Passes: 2, Secret: 0, Seed: 3},
		SecretDep{Lines: 48, Passes: 2, Secret: 1, Seed: 3},
	} {
		r, ok := w.(platform.Reloader)
		if !ok {
			t.Fatalf("%s does not implement platform.Reloader", w.Name())
		}
		m := run(t, w, 0)
		if err := r.Reload(m, 5); err != nil {
			t.Fatal(err)
		}
		fresh, err := w.Prepare(5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < isa.NumRegs; i++ {
			if m.Reg(isa.Reg(i)) != fresh.Reg(isa.Reg(i)) || m.FRegVal(isa.FReg(i)) != fresh.FRegVal(isa.FReg(i)) {
				t.Fatalf("%s: register %d differs after Reload", w.Name(), i)
			}
		}
		if m.Steps() != fresh.Steps() {
			t.Fatalf("%s: %d steps after Reload, fresh %d", w.Name(), m.Steps(), fresh.Steps())
		}
		for off := uint64(0); off < region; off += 4 {
			got, _ := m.Mem.Read32(defaultDataBase + off)
			want, _ := fresh.Mem.Read32(defaultDataBase + off)
			if got != want {
				t.Fatalf("%s: data word %#x = %#x after Reload, fresh %#x", w.Name(), off, got, want)
			}
		}
		var got, want blockRecorder
		if _, err := m.RunBlocks(&got); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.RunBlocks(&want); err != nil {
			t.Fatal(err)
		}
		if len(got.blocks) != len(want.blocks) {
			t.Fatalf("%s: reloaded run retired %d blocks, fresh %d", w.Name(), len(got.blocks), len(want.blocks))
		}
		for i := range got.blocks {
			if g, f := got.blocks[i], want.blocks[i]; !g.equal(f) {
				t.Fatalf("%s: block %d = %+v after Reload, fresh %+v", w.Name(), i, g, f)
			}
		}
	}
}
