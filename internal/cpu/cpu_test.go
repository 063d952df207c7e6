package cpu

import (
	"slices"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/fpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/tlb"
)

// testCore builds a single deterministic core with small caches so
// tests can force misses cheaply.
func testCore(t *testing.T, mode fpu.Mode) *Core {
	t.Helper()
	mkCache := func(name string) *cache.Cache {
		c, err := cache.New(cache.Config{
			Name: name, SizeBytes: 1024, LineBytes: 32, Ways: 2,
			Placement: cache.PlacementModulo, Replacement: cache.ReplaceLRU,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	mkTLB := func(name string) *tlb.TLB {
		tl, err := tlb.New(tlb.Config{
			Name: name, Entries: 8, PageBytes: 4096,
			Replacement: tlb.ReplaceLRU, WalkAccesses: 2,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	f, err := fpu.New(fpu.DefaultLatencies(), mode)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.New(bus.Config{TransferCycles: 4, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	dram, err := mem.New(mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(0, DefaultParams(), mkCache("IL1"), mkCache("DL1"),
		mkTLB("ITLB"), mkTLB("DTLB"), f, BusMem{Bus: b, Mem: dram})
	if err != nil {
		t.Fatal(err)
	}
	return core
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.IntDivExtra = -1
	if err := p.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	p = DefaultParams()
	p.StoreBufferDepth = 0
	if err := p.Validate(); err == nil {
		t.Error("zero store buffer accepted")
	}
}

func TestNewCoreNilComponent(t *testing.T) {
	if _, err := NewCore(0, DefaultParams(), nil, nil, nil, nil, nil, nil); err == nil {
		t.Error("nil components accepted")
	}
}

func buildAndRun(t *testing.T, core *Core, build func(b *isa.Builder)) uint64 {
	t.Helper()
	b := isa.NewBuilder("prog", 0)
	build(b)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := isa.NewMachine(prog, isa.NewMemory())
	cycles, err := core.RunProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	return cycles
}

func TestStraightLineCost(t *testing.T) {
	core := testCore(t, fpu.ModeAnalysis)
	// 10 nops + halt, all in one icache line after the first fill and
	// one ITLB walk.
	cycles := buildAndRun(t, core, func(b *isa.Builder) {
		for i := 0; i < 10; i++ {
			b.Nop()
		}
		b.Halt()
	})
	st := core.Stats()
	if st.Instructions != 11 {
		t.Errorf("instructions = %d", st.Instructions)
	}
	// Base cost 11; plus 1 IL1 fill per touched line (11*4=44 bytes → 2
	// lines) and one ITLB walk (2 accesses).
	base := uint64(11)
	if cycles <= base {
		t.Errorf("cycles = %d, want > %d (stalls missing)", cycles, base)
	}
	if st.IFetchStall == 0 {
		t.Error("no fetch stalls recorded on a cold cache")
	}
	if st.CPI() <= 1 {
		t.Errorf("CPI = %.2f, want > 1 cold", st.CPI())
	}
}

func TestWarmLoopApproachesBaseCPI(t *testing.T) {
	core := testCore(t, fpu.ModeAnalysis)
	// A tight warm loop: after warmup, per-iteration cost should be the
	// base 3 cycles (addi, addi, blt) + 2-cycle taken-branch bubble.
	cycles := buildAndRun(t, core, func(b *isa.Builder) {
		b.Li(1, 0)
		b.Li(2, 10000)
		b.Label("loop")
		b.Addi(1, 1, 1)
		b.Blt(1, 2, "loop")
		b.Halt()
	})
	st := core.Stats()
	// ~2 instructions per iteration + taken bubble: ideal ~= 10000*(2+2).
	ideal := uint64(10000 * 4)
	if cycles < ideal || cycles > ideal+ideal/10 {
		t.Errorf("cycles = %d, want within 10%% above %d", cycles, ideal)
	}
	if st.BranchStall == 0 {
		t.Error("no branch stalls recorded")
	}
}

func TestColdVsWarmDataAccess(t *testing.T) {
	core := testCore(t, fpu.ModeAnalysis)
	// Two identical load sweeps; the second should be far cheaper.
	mkProg := func() *isa.Machine {
		b := isa.NewBuilder("sweep", 0)
		b.Li(1, 0x2000)
		b.Li(2, 0) // i
		b.Li(3, 8) // lines
		b.Label("loop")
		b.Ld(4, 1, 0)
		b.Addi(1, 1, 32)
		b.Addi(2, 2, 1)
		b.Blt(2, 3, "loop")
		b.Halt()
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return isa.NewMachine(prog, isa.NewMemory())
	}
	cold, err := core.RunProgram(mkProg())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := core.RunProgram(mkProg())
	if err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Errorf("warm run (%d) not cheaper than cold (%d)", warm, cold)
	}
	if core.Stats().DMemStall == 0 {
		t.Error("no data stalls recorded")
	}
}

func TestFPUAnalysisModeCostsMoreOnEasyOperands(t *testing.T) {
	// FDIV of easy operands: operation mode terminates early, analysis
	// mode charges the worst case. Same program, different FPU mode.
	run := func(mode fpu.Mode) uint64 {
		core := testCore(t, mode)
		return buildAndRun(t, core, func(b *isa.Builder) {
			b.Li(1, 8)
			b.Li(2, 2)
			b.Fcvt(1, 1)
			b.Fcvt(2, 2)
			// 100 easy divisions (8/2 = power of two).
			for i := 0; i < 100; i++ {
				b.Fdiv(3, 1, 2)
			}
			b.Halt()
		})
	}
	analysis := run(fpu.ModeAnalysis)
	operation := run(fpu.ModeOperation)
	if analysis <= operation {
		t.Errorf("analysis %d <= operation %d on easy FDIVs", analysis, operation)
	}
	// Difference should be ~100 * (DivMax - DivMin).
	lat := fpu.DefaultLatencies()
	wantDiff := uint64(100 * (lat.DivMax - lat.DivMin))
	diff := analysis - operation
	if diff != wantDiff {
		t.Errorf("diff = %d, want %d", diff, wantDiff)
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	core := testCore(t, fpu.ModeAnalysis)
	// A burst of stores larger than the buffer must record store
	// stalls: each drain costs bus+DRAM (~32 cycles) while the core
	// issues one store per cycle.
	buildAndRun(t, core, func(b *isa.Builder) {
		b.Li(1, 0x2000)
		for i := int32(0); i < 32; i++ {
			b.St(1, i*4, 2)
		}
		b.Halt()
	})
	if core.Stats().StoreStall == 0 {
		t.Error("no store-buffer stalls on a 32-store burst")
	}
}

func TestResetClearsClockAndStats(t *testing.T) {
	core := testCore(t, fpu.ModeAnalysis)
	buildAndRun(t, core, func(b *isa.Builder) { b.Nop().Halt() })
	if core.Cycle() == 0 {
		t.Fatal("no cycles consumed")
	}
	core.Reset()
	if core.Cycle() != 0 || core.Stats() != (Stats{}) {
		t.Error("Reset incomplete")
	}
}

func TestFlushAllForcesRefetch(t *testing.T) {
	core := testCore(t, fpu.ModeAnalysis)
	run := func() uint64 {
		return buildAndRun(t, core, func(b *isa.Builder) {
			for i := 0; i < 8; i++ {
				b.Nop()
			}
			b.Halt()
		})
	}
	run()
	warm := run()
	core.FlushAll()
	cold := run()
	if cold <= warm {
		t.Errorf("post-flush run (%d) not slower than warm run (%d)", cold, warm)
	}
}

func TestTLBWalkCharged(t *testing.T) {
	core := testCore(t, fpu.ModeAnalysis)
	// Touch 16 distinct pages with loads: 8-entry DTLB must miss and
	// walk repeatedly on a second randomized-order pass too; here just
	// check walks show up as DMemStall beyond DL1 fills.
	buildAndRun(t, core, func(b *isa.Builder) {
		b.Li(1, 0)
		for p := int32(0); p < 16; p++ {
			b.Li(1, p*4096+0x100)
			b.Ld(2, 1, 0)
		}
		b.Halt()
	})
	if core.Stats().DMemStall == 0 {
		t.Error("no data-side stalls with 16-page sweep")
	}
}

func TestCPIZeroWithoutInstructions(t *testing.T) {
	if (Stats{}).CPI() != 0 {
		t.Error("CPI of empty stats != 0")
	}
}

func TestRandomizedCoreVariesAcrossSeeds(t *testing.T) {
	// A core with random-modulo placement and random replacement must
	// show run-to-run execution time variability across seeds for a
	// program whose footprint exceeds one way.
	mkRandCache := func(name string, src rng.Source) *cache.Cache {
		c, err := cache.New(cache.Config{
			Name: name, SizeBytes: 512, LineBytes: 32, Ways: 2,
			Placement: cache.PlacementRandomModulo, Replacement: cache.ReplaceRandom,
		}, src)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	src := rng.NewXoroshiro128(1)
	il1 := mkRandCache("IL1", src)
	dl1 := mkRandCache("DL1", src)
	itlb, _ := tlb.New(tlb.Config{Name: "ITLB", Entries: 8, PageBytes: 4096,
		Replacement: tlb.ReplaceRandom, WalkAccesses: 2}, src)
	dtlb, _ := tlb.New(tlb.Config{Name: "DTLB", Entries: 8, PageBytes: 4096,
		Replacement: tlb.ReplaceRandom, WalkAccesses: 2}, src)
	f, _ := fpu.New(fpu.DefaultLatencies(), fpu.ModeAnalysis)
	b, _ := bus.New(bus.Config{TransferCycles: 4, Cores: 1})
	dram, _ := mem.New(mem.DefaultConfig())
	core, err := NewCore(0, DefaultParams(), il1, dl1, itlb, dtlb, f, BusMem{Bus: b, Mem: dram})
	if err != nil {
		t.Fatal(err)
	}

	// Working set: four 4-line regions in distinct tag regions, swept
	// repeatedly. Under random modulo each region lands on 4 consecutive
	// sets at a per-seed random rotation, so the overlap between regions
	// — and hence the conflict-miss count — varies run to run.
	prog := func() *isa.Machine {
		bld := isa.NewBuilder("regions", 0)
		bases := []int32{0x8000, 0x10000, 0x18000, 0x20000}
		bld.Li(2, 0)  // pass counter
		bld.Li(3, 20) // passes
		bld.Label("pass")
		for _, base := range bases {
			bld.Li(1, base)
			for l := int32(0); l < 4; l++ {
				bld.Ld(4, 1, l*32)
			}
		}
		bld.Addi(2, 2, 1)
		bld.Blt(2, 3, "pass")
		bld.Halt()
		p, err := bld.Build()
		if err != nil {
			t.Fatal(err)
		}
		return isa.NewMachine(p, isa.NewMemory())
	}

	seen := make(map[uint64]bool)
	for seed := uint64(1); seed <= 20; seed++ {
		core.Reset()
		core.FlushAll()
		b.Reset()
		il1.Reseed(seed)
		dl1.Reseed(seed)
		src.Seed(seed)
		cycles, err := core.RunProgram(prog())
		if err != nil {
			t.Fatal(err)
		}
		seen[cycles] = true
	}
	if len(seen) < 3 {
		t.Errorf("randomized platform produced only %d distinct times across 20 seeds", len(seen))
	}
}

func TestBusMemDirectly(t *testing.T) {
	b, err := bus.New(bus.Config{TransferCycles: 4, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	dram, err := mem.New(mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bm := BusMem{Bus: b, Mem: dram}
	start, lat := bm.Request(10, bus.KindLineFill, 0x1000)
	if start != 10 {
		t.Errorf("start = %d", start)
	}
	if lat != dram.Config().AccessCycles {
		t.Errorf("lat = %d", lat)
	}
	if bm.TransferCycles() != 4 {
		t.Errorf("transfer = %d", bm.TransferCycles())
	}
	// A second overlapping request from the other core's port queues
	// behind the first on the shared timeline.
	bm2 := BusMem{Bus: b, Mem: dram, Core: 1}
	start2, _ := bm2.Request(11, bus.KindWrite, 0x2000)
	if start2 != 14 {
		t.Errorf("queued start = %d, want 14", start2)
	}
}

func TestStallCountersPartitionCycles(t *testing.T) {
	// Cycles = instructions + all stall categories, exactly.
	core := testCore(t, fpu.ModeAnalysis)
	buildAndRun(t, core, func(b *isa.Builder) {
		b.Li(1, 0x2000)
		b.Li(2, 0)
		b.Li(3, 200)
		b.Label("loop")
		b.Ld(4, 1, 0)
		b.St(1, 4, 4)
		b.Fcvt(1, 4)
		b.Fdiv(2, 1, 1)
		b.Addi(1, 1, 32)
		b.Addi(2, 2, 1)
		b.Blt(2, 3, "loop")
		b.Halt()
	})
	st := core.Stats()
	sum := st.Instructions + st.IFetchStall + st.DMemStall +
		st.StoreStall + st.ExecStall + st.BranchStall
	if sum != st.Cycles {
		t.Errorf("cycles %d != instructions+stalls %d (stats %+v)", st.Cycles, sum, st)
	}
	for name, v := range map[string]uint64{
		"ifetch": st.IFetchStall, "dmem": st.DMemStall,
		"exec": st.ExecStall, "branch": st.BranchStall,
	} {
		if v == 0 {
			t.Errorf("no %s stalls recorded", name)
		}
	}
}

// recordedBlock is one fetch block as ConsumeBlock receives it.
type recordedBlock struct {
	pc      uint64
	classes []isa.Class
	taken   bool
	ops     []uint64
}

// blockRecorder feeds a core its blocks and keeps them.
type blockRecorder struct {
	core   *Core
	blocks []recordedBlock
}

func (r *blockRecorder) FetchBytes() int { return r.core.FetchBytes() }

func (r *blockRecorder) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	r.core.ConsumeBlock(pc, classes, taken, ops)
	r.blocks = append(r.blocks, recordedBlock{pc, slices.Clone(classes), taken, slices.Clone(ops)})
}

// TestPlanGrantMatchesConsume replays a recorded block stream through
// PlanBlock/NextRequest/Grant on a second core, granting every step on
// that core's own bus and DRAM, and requires the clock and every stall
// counter ConsumeBlock produced. Planning follows the multicore
// planner's rule — whole blocks, until one queues a step or the plan
// reaches the bound — and the bound creeps forward a few cycles per
// grant, so planning resumes mid-trace between steps, not only after
// them. The program misses the small caches, walks the DTLB at a page
// stride, fills the store buffer with five stores in one fetch block,
// runs operand-dependent FDIVs, and ends its loop with a block whose
// not-taken branch precedes the taken one.
func TestPlanGrantMatchesConsume(t *testing.T) {
	b := isa.NewBuilder("prog", 0)
	b.Li(1, 0x2000)
	b.Li(2, 0)
	b.Li(3, 60)
	b.Li(5, 4096+32)
	b.Li(6, 7)
	b.Label("loop")
	b.Ld(4, 1, 0)
	for off := int32(0); off < 20; off += 4 {
		b.St(1, off, 4)
	}
	b.Mul(7, 2, 6)
	b.Div(8, 7, 6)
	b.Fcvt(1, 2)
	b.Fcvt(2, 6)
	b.Fdiv(3, 1, 2)
	b.Add(1, 1, 5)
	b.Beq(0, 6, "loop") // never taken: r6 is 7
	b.Addi(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	consumed := testCore(t, fpu.ModeOperation)
	rec := &blockRecorder{core: consumed}
	if _, err := isa.NewMachine(prog, isa.NewMemory()).RunBlocks(rec); err != nil {
		t.Fatal(err)
	}

	planned := testCore(t, fpu.ModeOperation)
	port := planned.Bus.(BusMem)
	var p Plan
	next, bound := 0, uint64(0)
	maxDrains := 0 // the most store drains one block queued
	for {
		bound += 5
		at, queued := planned.NextRequest(&p)
		for !queued && at < bound && next < len(rec.blocks) {
			blk := rec.blocks[next]
			next++
			planned.PlanBlock(&p, blk.pc, blk.classes, blk.taken, blk.ops)
			drains := 0
			for _, s := range p.steps[p.head:] {
				if s.op == opDrain {
					drains++
				}
			}
			maxDrains = max(maxDrains, drains)
			at, queued = planned.NextRequest(&p)
		}
		if !queued {
			if next == len(rec.blocks) {
				break
			}
			continue
		}
		start, memLat := port.Request(at, p.Kind(), p.Addr())
		planned.Grant(&p, start, memLat)
	}
	end, queued := planned.NextRequest(&p)
	if queued || end != consumed.Cycle() {
		t.Fatalf("planned core ends at %d (queued %v), ConsumeBlock at %d", end, queued, consumed.Cycle())
	}
	want := consumed.Stats()
	got := planned.Stats()
	got.Cycles = end // the planned tail's fixed cycles stay unattached
	if got != want {
		t.Errorf("planned stats %+v, consumed %+v", got, want)
	}
	if want.StoreStall == 0 || want.DMemStall == 0 || want.ExecStall == 0 {
		t.Errorf("program exercised too little: %+v", want)
	}
	if maxDrains < 2 {
		t.Errorf("no block queued several store drains (at most %d): planning never ran past a queued step", maxDrains)
	}
	innerBranch := false // a taken block with a not-taken branch before its last instruction
	for _, blk := range rec.blocks {
		innerBranch = innerBranch || blk.taken && slices.Contains(blk.classes[:len(blk.classes)-1], isa.ClassBranch)
	}
	if !innerBranch {
		t.Error("no taken block holds a not-taken branch")
	}
	if got, want := planned.IL1.Stats(), consumed.IL1.Stats(); got != want {
		t.Errorf("planned IL1 %+v, consumed %+v", got, want)
	}
	if got, want := planned.DL1.Stats(), consumed.DL1.Stats(); got != want {
		t.Errorf("planned DL1 %+v, consumed %+v", got, want)
	}
	if got, want := planned.ITLB.Stats(), consumed.ITLB.Stats(); got != want {
		t.Errorf("planned ITLB %+v, consumed %+v", got, want)
	}
	if got, want := planned.DTLB.Stats(), consumed.DTLB.Stats(); got != want {
		t.Errorf("planned DTLB %+v, consumed %+v", got, want)
	}
}
