package tvca

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/isa"
)

// streamDigest is a BlockSink that folds a run's fetch-block stream
// into a 128-bit digest: every block's PC, instruction count and taken
// bit, and every load/store address. FDIV/FSQRT operands, the one part
// of the stream equal trace keys may differ in, are left out. The
// 32-byte granule is the reference platform's IL1 line.
type streamDigest struct {
	h [2]uint64
}

func (d *streamDigest) FetchBytes() int { return 32 }

func (d *streamDigest) mix(v uint64) {
	d.h[0] = (d.h[0] ^ v) * 0x100000001b3
	d.h[1] = (d.h[1]^v)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
}

func (d *streamDigest) ConsumeBlock(pc uint64, classes []isa.Class, taken bool, ops []uint64) {
	d.mix(pc)
	d.mix(uint64(len(classes)))
	if taken {
		d.mix(1)
	} else {
		d.mix(2)
	}
	k := 0
	for _, cl := range classes {
		switch cl {
		case isa.ClassLoad, isa.ClassStore:
			d.mix(ops[k])
			k++
		case isa.ClassFPDiv:
			k += 2
		case isa.ClassFPSqrt:
			k++
		}
	}
}

// runDigest interprets run of a and returns its stream digest and path.
func runDigest(tb testing.TB, a *App, run int) ([2]uint64, string) {
	tb.Helper()
	m, err := a.Prepare(run)
	if err != nil {
		tb.Fatal(err)
	}
	var d streamDigest
	d.h = [2]uint64{0xcbf29ce484222325, 0x84222325cbf29ce4}
	if _, err := m.RunBlocks(&d); err != nil {
		tb.Fatalf("run %d: %v", run, err)
	}
	return d.h, a.PathOf(m)
}

// TestTraceKeyExact: over 3,000 runs of 4 and of 16 frames, at the
// default configuration, with unrolled channels and with another input
// seed, two runs have equal trace keys exactly when they retire equal
// block streams apart from FDIV/FSQRT operands, and each run's path is
// a function of its key.
func TestTraceKeyExact(t *testing.T) {
	runs := 3000
	if testing.Short() || raceEnabled {
		runs = 300
	}
	for _, frames := range []int{4, 16} {
		for _, variant := range []string{"default", "unrolled", "seed"} {
			cfg := DefaultConfig()
			cfg.Frames = frames
			switch variant {
			case "unrolled":
				cfg.UnrollChannels = true
			case "seed":
				cfg.InputSeed = 0xB16B00B5
			}
			t.Run(fmt.Sprintf("frames%d/%s", frames, variant), func(t *testing.T) {
				t.Parallel()
				a, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				byKey := map[string][2]uint64{}
				byStream := map[[2]uint64]string{}
				paths := map[string]string{}
				shared := 0
				var key0, key []byte
				for run := 0; run < runs; run++ {
					var ok bool
					if key, ok = a.TraceKey(key, run); !ok {
						t.Fatal("TVCA declares no trace key")
					}
					if run == 0 {
						key0 = append([]byte(nil), key...)
					}
					if bytes.Equal(key, key0) {
						shared++
					}
					d, path := runDigest(t, a, run)
					k := string(key)
					if prev, seen := byKey[k]; seen && prev != d {
						t.Fatalf("run %d: equal key, different block stream", run)
					}
					if prev, seen := byStream[d]; seen && prev != k {
						t.Fatalf("run %d: equal block stream, different key", run)
					}
					byKey[k], byStream[d] = d, k
					if p, seen := paths[k]; seen && p != path {
						t.Fatalf("run %d: path %s, an equal-key run took %s", run, path, p)
					}
					paths[k] = path
				}
				t.Logf("%d runs: %d distinct keys, run 0's key shared by %d runs", runs, len(byKey), shared)
			})
		}
	}
}

// TestTraceKeyDecisions: the key holds one byte per sensor channel per
// frame and one per actuator activation, and TraceKey reuses dst.
func TestTraceKeyDecisions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frames = 8
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := a.TraceKey(nil, 0)
	// X activates every 2nd frame, Y every 4th.
	if want := cfg.Frames*cfg.Sensors + cfg.Frames/2 + cfg.Frames/4; len(key) != want {
		t.Fatalf("key length %d, want %d", len(key), want)
	}
	buf := make([]byte, 0, 1024)
	if again, _ := a.TraceKey(buf, 0); !bytes.Equal(again, key) || &again[0] != &buf[:1][0] {
		t.Fatal("TraceKey did not rebuild the same key in dst")
	}
	if n := testing.AllocsPerRun(20, func() { buf, _ = a.TraceKey(buf, 3) }); n != 0 {
		t.Errorf("TraceKey allocates %.1f times per call, want 0", n)
	}
}

// FuzzTraceKey: for any input seed, extreme-transient probability,
// frame count, channel unrolling and pair of run indices, the two runs
// have equal trace keys exactly when they retire equal block streams
// apart from FDIV/FSQRT operands.
func FuzzTraceKey(f *testing.F) {
	f.Add(uint64(0x7C0FFEE), 0.15, uint8(0), false, uint16(0), uint16(1))
	f.Add(uint64(0x7C0FFEE), 0.15, uint8(3), false, uint16(0), uint16(7))
	f.Add(uint64(1), 1.0, uint8(1), true, uint16(2), uint16(9))
	f.Add(uint64(42), 0.0, uint8(2), false, uint16(5), uint16(5))
	f.Fuzz(func(t *testing.T, seed uint64, extreme float64, frames uint8, unroll bool, r1, r2 uint16) {
		if !(extreme >= 0 && extreme <= 1) {
			t.Skip("extreme probability outside [0,1]")
		}
		cfg := DefaultConfig()
		cfg.InputSeed, cfg.ExtremeProb = seed, extreme
		cfg.Frames = 4 * (1 + int(frames%4))
		cfg.UnrollChannels = unroll
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		k1, _ := a.TraceKey(nil, int(r1))
		k2, _ := a.TraceKey(nil, int(r2))
		d1, _ := runDigest(t, a, int(r1))
		d2, _ := runDigest(t, a, int(r2))
		if bytes.Equal(k1, k2) != (d1 == d2) {
			t.Fatalf("runs %d and %d: keys equal %v, block streams equal %v", r1, r2, bytes.Equal(k1, k2), d1 == d2)
		}
	})
}
