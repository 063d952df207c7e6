package cache

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// FuzzCacheAccessStream checks the fast paths (the same-line record
// behind FastAccess/FastWrite and the line-slot memo) against the plain
// placement + way scan. One arbitrary stream of reads, writes, flushes,
// reseeds, tag/state upsets and scrubs drives, under every placement ×
// replacement policy with and without write-allocate, both a normal
// cache and a reference whose fast paths are off (mruOff). Every
// hit/miss outcome, the final Stats (less MRUHits, which only the fast
// paths count) and the final line state must agree exactly.
//
// Each op is three bytes: an opcode and a 16-bit operand. The operand's
// low 10 bits address a 1 KiB window (4x the cache); its top 6 bits pick
// one of 64 regions 64 KiB apart, whose lines alias in every memo slot
// and, under modulo placement, in every set.
func FuzzCacheAccessStream(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 1, 0, 0, 8, 4, 0, 1, 32, 0, 1, 0, 4})
	f.Add(uint64(7), []byte{0, 0, 0, 0, 0, 4, 0, 0, 8, 0, 0, 12, 0, 0, 0, 13, 9, 0, 0, 0, 0, 14, 3, 0, 0, 0, 0})
	f.Add(uint64(42), []byte{2, 16, 0, 3, 16, 0, 9, 16, 0, 12, 0, 0, 2, 16, 0, 15, 0, 0, 2, 16, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		for _, p := range []Placement{PlacementModulo, PlacementRandomModulo, PlacementRandomHash} {
			for _, r := range []Replacement{ReplaceLRU, ReplaceRandom, ReplaceRoundRobin} {
				for _, wa := range []bool{false, true} {
					cfg := Config{Name: "fuzz", SizeBytes: 256, LineBytes: 16, Ways: 4,
						Placement: p, Replacement: r, WriteAllocate: wa}
					checkCacheStream(t, cfg, seed, ops)
				}
			}
		}
	})
}

func checkCacheStream(t *testing.T, cfg Config, seed uint64, ops []byte) {
	fast, err := New(cfg, rng.NewXoroshiro128(seed))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := New(cfg, rng.NewXoroshiro128(seed))
	ref.disableFast()
	for i := 0; i+3 <= len(ops); i += 3 {
		op, v := ops[i], uint64(ops[i+1])|uint64(ops[i+2])<<8
		addr := v&0x3ff | (v>>10)<<16
		var got, want bool
		switch op % 16 {
		case 0, 1, 2, 3:
			// Reads, half through the probe-first call pattern the core
			// uses and half through Access alone.
			if op&1 == 0 {
				got = fast.FastAccess(addr) || fast.Access(addr)
			} else {
				got = fast.Access(addr)
			}
			want = ref.Access(addr)
		case 4, 5, 6, 7:
			if op&1 == 0 {
				got = fast.FastWrite(addr) || fast.Write(addr)
			} else {
				got = fast.Write(addr)
			}
			want = ref.Write(addr)
		case 8, 9, 10, 11:
			// A pure-probe op: a declined probe must change nothing.
			if got = fast.FastAccess(addr); got {
				want = ref.Access(addr)
			}
		case 12:
			fast.Flush()
			ref.Flush()
			ref.disableFast()
		case 13:
			fast.Reseed(v)
			ref.Reseed(v)
		case 14:
			set, way, bit := int(v>>4), int(v&3), int(v>>8)
			fast.InjectTagFault(set, way, bit)
			ref.InjectTagFault(set, way, bit)
		case 15:
			set, way := int(v>>4), int(v&3)
			if v&4 == 0 {
				fast.InjectStateFault(set, way)
				ref.InjectStateFault(set, way)
			} else {
				fast.Scrub(set, way)
				ref.Scrub(set, way)
			}
		}
		if got != want {
			t.Fatalf("%s/%s wa=%v op %d (%d @%#x): fast path %v, scan %v",
				cfg.Placement, cfg.Replacement, cfg.WriteAllocate, i/3, op%16, addr, got, want)
		}
	}
	gs, ws := fast.Stats(), ref.Stats()
	gs.MRUHits, ws.MRUHits = 0, 0
	if gs != ws {
		t.Fatalf("%s/%s wa=%v: stats %+v, scan %+v", cfg.Placement, cfg.Replacement, cfg.WriteAllocate, gs, ws)
	}
	if fast.clock != ref.clock || !reflect.DeepEqual(fast.lines, ref.lines) || !reflect.DeepEqual(fast.rrCursor, ref.rrCursor) {
		t.Fatalf("%s/%s wa=%v: line state diverged from the scan", cfg.Placement, cfg.Replacement, cfg.WriteAllocate)
	}
}
