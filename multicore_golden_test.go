package repro

// Golden-trace regression tests for the multicore co-simulation board.
//
// The cycle values below were captured from the pre-board-reuse
// implementation (one-shot boards, channel-based arbiter, interpreted
// co-runners) and pin the reusable board's results bit-for-bit. The
// board now runs in one goroutine: co-runner requests are planned from
// a recorded iteration or from the co-runner's paused machine and
// granted by a k-way merge in front of the measured core's. Board
// reuse, decode-once trace replay and the lazily produced co-runners
// are pure execution strategies and must not move a single cycle. Any
// diff here is a correctness bug, not a perf trade.

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/tvca"
)

func tinyTVCAApp(t testing.TB) *tvca.App {
	t.Helper()
	cfg := tvca.DefaultConfig()
	cfg.Frames = 4
	cfg.Sensors = 8
	cfg.Taps = 8
	app, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func fullTVCAApp(t testing.TB) *tvca.App {
	t.Helper()
	cfg := tvca.DefaultConfig()
	cfg.Frames = 4
	app, err := tvca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func repeat16(v uint64) [16]uint64 {
	var a [16]uint64
	for i := range a {
		a[i] = v
	}
	return a
}

// tinyInstr is the per-run instruction count of the tiny TVCA app:
// its path (and so its length) depends on the run's input frame, not
// on platform randomness — runs 4 and 8 take the longer paths on
// every platform configuration.
func tinyInstr() [16]uint64 {
	a := repeat16(3177)
	a[4], a[8] = 3189, 3185
	return a
}

func TestMulticoreGoldenCycles(t *testing.T) {
	cases := []struct {
		name      string
		cfg       platform.Config
		app       func(testing.TB) *tvca.App
		co        []platform.Workload
		baseSeed  uint64
		wantInstr [16]uint64
		want      [16]uint64
	}{
		{
			name: "RAND-3stream",
			cfg:  platform.RAND(),
			app:  fullTVCAApp,
			co: []platform.Workload{
				experiments.StreamerWorkload{Lines: 1024},
				experiments.StreamerWorkload{Lines: 1024},
				experiments.StreamerWorkload{Lines: 1024},
			},
			baseSeed:  42,
			wantInstr: repeat16(35433),
			want: [16]uint64{
				145960, 143170, 149070, 147661, 145148, 143779, 145859, 145370,
				146896, 146899, 145088, 146395, 145712, 144821, 146017, 147188,
			},
		},
		{
			name: "RAND-2stream-tiny",
			cfg:  platform.RAND(),
			app:  tinyTVCAApp,
			co: []platform.Workload{
				experiments.StreamerWorkload{Lines: 256},
				experiments.StreamerWorkload{Lines: 1024},
			},
			baseSeed:  42,
			wantInstr: tinyInstr(),
			want: [16]uint64{
				13833, 13833, 13833, 13833, 13906, 13833, 13833, 13833,
				13911, 13833, 13833, 13833, 13833, 13833, 13833, 13833,
			},
		},
		{
			name: "DET-1stream-tiny",
			cfg:  platform.DET(),
			app:  tinyTVCAApp,
			co: []platform.Workload{
				experiments.StreamerWorkload{Lines: 512},
			},
			baseSeed:  7,
			wantInstr: tinyInstr(),
			want: [16]uint64{
				13809, 13809, 13808, 13809, 13885, 13809, 13809, 13807,
				13882, 13809, 13808, 13809, 13809, 13809, 13809, 13809,
			},
		},
		{
			name:      "RAND-solo-tiny",
			cfg:       platform.RAND(),
			app:       tinyTVCAApp,
			co:        nil,
			baseSeed:  99,
			wantInstr: tinyInstr(),
			want: [16]uint64{
				13772, 13772, 13772, 13772, 13852, 13772, 13772, 13772,
				13847, 13772, 13772, 13772, 13772, 13772, 13772, 13772,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mc, err := platform.NewMulticore(tc.cfg, tc.co)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(tc.want); i++ {
				r, err := mc.ExecuteRun(context.Background(), tc.app(t), i, platform.DeriveRunSeed(tc.baseSeed, i))
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if r.Cycles != tc.want[i] {
					t.Errorf("run %d: cycles = %d, want %d", i, r.Cycles, tc.want[i])
				}
				if r.Instructions != tc.wantInstr[i] {
					t.Errorf("run %d: instructions = %d, want %d", i, r.Instructions, tc.wantInstr[i])
				}
			}
		})
	}
}

// TestMulticoreGoldenFingerprint hashes 100 full co-simulated runs —
// cycles, instructions and path classification — into one value,
// pinned to the pre-refactor implementation. Covers the first run
// (every core interpreted, the co-runners' iterations recorded as they
// are produced), the run that records the measured key on its
// recurrence and 98 replay runs in one sweep.
func TestMulticoreGoldenFingerprint(t *testing.T) {
	app := fullTVCAApp(t)
	mc, err := platform.NewMulticore(platform.RAND(), []platform.Workload{
		experiments.StreamerWorkload{Lines: 1024},
		experiments.StreamerWorkload{Lines: 1024},
		experiments.StreamerWorkload{Lines: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := 0; i < 100; i++ {
		r, err := mc.ExecuteRun(context.Background(), app, i, platform.DeriveRunSeed(42, i))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d:%d:%d:%s\n", i, r.Cycles, r.Instructions, r.Path)
	}
	const want = uint64(0x504e1716b9434154)
	if got := h.Sum64(); got != want {
		t.Fatalf("fingerprint = %#x, want %#x", got, want)
	}
}

// TestMulticoreSteadyStateAllocs pins the allocation-free run loop of
// a warmed board, the multicore twin of TestSteadyStateZeroAlloc: after
// the recording run, a full co-simulated run — board reset, reseed,
// measured replay, three co-runners planned, every bus grant —
// allocates nothing, under a context that can never fire and under a
// cancelable one (the board binds its context poll once, not per run),
// with co-runners that replay a recorded iteration and with a keyless
// Reloader co-runner (crc32, whose input changes per iteration) that
// its reloaded machine produces a fill at a time on every run. The
// pre-refactor board allocated ~13k times per run.
func TestMulticoreSteadyStateAllocs(t *testing.T) {
	app := fullTVCAApp(t)
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamers := []platform.Workload{
		experiments.StreamerWorkload{Lines: 1024},
		experiments.StreamerWorkload{Lines: 1024},
		experiments.StreamerWorkload{Lines: 1024},
	}
	keyless := []platform.Workload{
		kernels.CRC32{Bytes: 2048, Seed: 1},
		experiments.StreamerWorkload{Lines: 1024},
		experiments.StreamerWorkload{Lines: 1024},
	}
	for _, tc := range []struct {
		name string
		ctx  context.Context
		co   []platform.Workload
	}{
		{"background", context.Background(), streamers},
		{"cancelable", cancelable, streamers},
		{"keyless-reloader", context.Background(), keyless},
	} {
		mc, err := platform.NewMulticore(platform.RAND(), tc.co)
		if err != nil {
			t.Fatal(err)
		}
		run := 0
		for ; run < 3; run++ { // warm: build the board, record traces (run 1 records the measured key)
			if _, err := mc.ExecuteRun(tc.ctx, app, run, platform.DeriveRunSeed(42, run)); err != nil {
				t.Fatal(err)
			}
		}
		rec := mc.BoardStats().Recordings
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := mc.ExecuteRun(tc.ctx, app, run, platform.DeriveRunSeed(42, run)); err != nil {
				t.Fatal(err)
			}
			run++
		})
		if n := mc.BoardStats().Recordings - rec; n != 0 {
			t.Errorf("%s: %d measured runs recorded, want none", tc.name, n)
		}
		if allocs != 0 {
			t.Errorf("%s: steady-state multicore run allocates %.1f times, want 0", tc.name, allocs)
		}
	}
}
