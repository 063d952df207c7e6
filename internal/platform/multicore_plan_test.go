package platform

// Equivalence tests for the multicore board: co-runners planned from a
// recorded iteration and from their paused machines, and merged in
// front of the measured core's requests (inlineRequest), must measure
// bit-identically to the reference board (multicore_ref_test.go), which
// interprets every co-runner iteration in its own goroutine behind a
// locked arbiter, for co-runners that exercise every kind of bus
// request the planner queues.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/tvca"
)

// mixRunner is a run-invariant co-runner loop: iters passes over a
// buffer at stride bytes, each a load plus the optional extras below.
// The block stream depends on none of the board's timing or randomness,
// so the board records it once and replays it.
type mixRunner struct {
	stride int32 // bytes between passes; >= 4 KiB walks the DTLB every pass
	iters  int32 // passes per program execution
	// stores adds five stores per pass to a second buffer: four that
	// fill the 4-slot store buffer, then one stride bytes on. With a
	// page stride that one walks the DTLB while the buffer drains, so
	// its stall depends on when the walk is granted.
	stores bool
	fp     bool // an Fdiv and an Fsqrt on pass-dependent operands
	muldiv bool // a Mul and a Div
}

func (r mixRunner) Name() string { return fmt.Sprintf("mix%+v", r) }

func (r mixRunner) Prepare(int) (*isa.Machine, error) {
	b := isa.NewBuilder("mix", 0x8000)
	b.Li(1, 0x400000)
	b.Li(2, 0)
	b.Li(3, r.iters)
	b.Li(5, r.stride)
	b.Li(6, 7)
	b.Li(9, 0x800000)
	b.Fcvt(2, 6)
	b.Label("loop")
	b.Ld(4, 1, 0)
	if r.stores {
		for off := int32(0); off < 16; off += 4 {
			b.St(9, off, 4)
		}
		b.Add(9, 9, 5)
		b.St(9, 0, 4)
	}
	if r.muldiv {
		b.Mul(7, 2, 6)
		b.Div(8, 7, 6)
	}
	if r.fp {
		b.Fcvt(1, 2)
		b.Fdiv(3, 1, 2)
		b.Fsqrt(4, 1)
	}
	b.Add(1, 1, 5)
	b.Addi(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return isa.NewMachine(p, isa.NewMemory()), nil
}

func (mixRunner) PathOf(*isa.Machine) string { return "" }

func (mixRunner) Reload(m *isa.Machine, _ int) error {
	m.Reset()
	return nil
}

func (mixRunner) TraceKey(dst []byte, _ int) ([]byte, bool) { return dst[:0], true }

// plannedReplayApp is the measured workload: TVCA at four frames, a
// store-heavy program (keyed: its one key records on RAND on its second
// run and replays from then on; interpreted on DET) that runs
// long enough for every mixRunner to finish its recording iteration
// inside the first measured run.
func plannedReplayApp(tb testing.TB) *tvca.App {
	tb.Helper()
	cfg := tvca.DefaultConfig()
	cfg.Frames = 4
	app, err := tvca.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return app
}

// checkPlannedReplay runs app over runs runs on three boards — one
// whose co-runners replay the iteration they recorded on run 0, one
// whose co-runners are hidden behind opaqueWorkload and produced by
// their paused machines on every run, and the reference board — and
// requires equal measurements on every run.
func checkPlannedReplay(tb testing.TB, cfg Config, app Workload, co []mixRunner, runs int, seed uint64) {
	tb.Helper()
	stableCo := make([]Workload, len(co))
	opaqueCo := make([]Workload, len(co))
	for i, r := range co {
		stableCo[i], opaqueCo[i] = r, opaqueWorkload{r}
	}
	planned, err := NewMulticore(cfg, stableCo)
	if err != nil {
		tb.Fatal(err)
	}
	produced, err := NewMulticore(cfg, opaqueCo)
	if err != nil {
		tb.Fatal(err)
	}
	ref := newRefBoard(tb, cfg, opaqueCo)
	for i := 0; i < runs; i++ {
		rs := runBoth(tb, planned, ref, app, i, DeriveRunSeed(seed, i))
		if i > 0 {
			for c := 1; c < len(planned.co); c++ {
				if !planned.co[c].done {
					tb.Fatalf("run %d: co-runner %+v did not replay a whole recorded iteration", i, co[c-1])
				}
			}
		}
		ro, err := produced.ExecuteRun(context.Background(), app, i, DeriveRunSeed(seed, i))
		if err != nil {
			tb.Fatal(err)
		}
		if rs != ro {
			tb.Fatalf("run %d on %s, co-runners %+v: replayed co-runners measured %+v, produced ones %+v",
				i, cfg.Name, co, rs, ro)
		}
	}
}

// openPageRAND is RAND with an open-page DRAM controller, whose
// row-buffer state makes every latency depend on the grant order.
func openPageRAND() Config {
	cfg := RAND()
	cfg.Name = "RAND-open-page"
	cfg.DRAM.Policy = mem.PolicyOpenPage
	return cfg
}

func TestMulticorePlannedReplayMatchesInterpretation(t *testing.T) {
	app := plannedReplayApp(t)
	sets := []struct {
		name string
		co   []mixRunner
	}{
		// Store-buffer stalls, DTLB walks on loads and stores, and
		// operand-dependent FPU latencies side by side.
		{"stores+pages+fp", []mixRunner{
			{stride: 32, iters: 48, stores: true},
			{stride: 4096 + 32, iters: 24, stores: true},
			{stride: 32, iters: 32, fp: true},
		}},
		// Long fixed execute latencies between misses, and a loop that
		// stops requesting the bus once its one line is cached.
		{"muldiv+quiet", []mixRunner{
			{stride: 4096 + 64, iters: 32, muldiv: true},
			{stride: 0, iters: 16},
			{stride: 32, iters: 64, muldiv: true, fp: true},
		}},
	}
	for _, cfg := range []Config{RAND(), DET(), openPageRAND()} {
		for _, set := range sets {
			t.Run(cfg.Name+"/"+set.name, func(t *testing.T) {
				checkPlannedReplay(t, cfg, app, set.co, 6, 17)
			})
		}
	}
}

// FuzzMulticoreInlineReplay drives the board-versus-reference
// comparison (checkPlannedReplay) over arbitrary co-runner loops: stride, store/FP/muldiv
// mix, loop length, DRAM policy, platform and seed. Two copies of the
// fuzzed loop run on cores 1 and 2, so equal request times between
// co-runners, and between a co-runner and the measured core, occur
// often and exercise the merge's tie order.
func FuzzMulticoreInlineReplay(f *testing.F) {
	f.Add(uint16(32), uint8(1), uint8(40), false, false, uint64(1))
	f.Add(uint16(4128), uint8(1), uint8(20), false, false, uint64(2))
	f.Add(uint16(4160), uint8(6), uint8(30), true, false, uint64(3))
	f.Add(uint16(0), uint8(0), uint8(8), false, true, uint64(4))
	f.Add(uint16(96), uint8(7), uint8(63), true, true, uint64(5))
	app := plannedReplayApp(f)
	f.Fuzz(func(t *testing.T, stride uint16, mix, iters uint8, openPage, det bool, seed uint64) {
		r := mixRunner{
			stride: int32(stride%8192) &^ 3, // word-aligned
			iters:  1 + int32(iters%64),
			stores: mix&1 != 0,
			fp:     mix&2 != 0,
			muldiv: mix&4 != 0,
		}
		cfg := RAND()
		if det {
			cfg = DET()
		}
		if openPage {
			cfg.Name += "-open-page"
			cfg.DRAM.Policy = mem.PolicyOpenPage
		}
		checkPlannedReplay(t, cfg, app, []mixRunner{r, r}, 3, seed)
	})
}
