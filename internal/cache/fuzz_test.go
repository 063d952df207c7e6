package cache

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// FuzzCacheAccessStream checks the fast paths (the two-entry line
// record behind FastAccess/FastWrite, FastAccess1/FastWrite1 and
// RepeatHit, and the line-slot memo) against the plain placement + way
// scan. One arbitrary stream of reads, writes, bulk repeats, flushes,
// reseeds, tag/state upsets and scrubs drives, under every placement ×
// replacement policy with and without write-allocate, both a normal
// cache and a reference whose fast paths are off (mruOff). Every
// hit/miss outcome, the final Stats (less MRUHits, which only the fast
// paths count) and the final line state must agree exactly, and
// MRUHits must count exactly the hits on the line touched by the
// previous hit or fill (mruModel).
//
// Each op is three bytes: an opcode and a 16-bit operand. The opcode's
// low 4 bits pick the operation and bits 4-5 its variant; the operand's
// low 10 bits address a 1 KiB window (4x the cache); its top 6 bits
// pick one of 64 regions 64 KiB apart, whose lines alias in every memo
// slot and, under modulo placement, in every set.
func FuzzCacheAccessStream(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 1, 0, 0, 8, 4, 0, 1, 32, 0, 1, 0, 4})
	f.Add(uint64(7), []byte{0, 0, 0, 0, 0, 4, 0, 0, 8, 0, 0, 12, 0, 0, 0, 13, 9, 0, 0, 0, 0, 14, 3, 0, 0, 0, 0})
	f.Add(uint64(42), []byte{2, 16, 0, 3, 16, 0, 9, 16, 0, 12, 0, 0, 2, 16, 0, 15, 0, 0, 2, 16, 0})
	// Two lines alternating through the second record, reads and
	// writes, then bulk repeats on the most recent one.
	f.Add(uint64(3), []byte{16, 0, 0, 16, 0, 1, 16, 0, 0, 20, 0, 1, 20, 0, 0, 16, 0, 1, 24, 0, 0x30, 24, 0, 0x10, 40, 0, 0, 16, 0, 0})
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

// mruModel counts the hits MRUHits means: those on the line touched by
// the previous hit or fill, while the fast paths are on.
type mruModel struct {
	valid, off bool
	la         uint64
	hits       uint64
}

// access notes an access to line la that hit or was filled (touched).
func (m *mruModel) access(la uint64, hit, touched bool) {
	if hit && m.valid && la == m.la {
		m.hits++
	}
	if touched && !m.off {
		m.valid, m.la = true, la
	}
}

func checkCacheStream(t *testing.T, cfg Config, seed uint64, ops []byte) {
	fast, err := New(cfg, rng.NewXoroshiro128(seed))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := New(cfg, rng.NewXoroshiro128(seed))
	ref.disableFast()
	var mru mruModel
	for i := 0; i+3 <= len(ops); i += 3 {
		op, v := ops[i], uint64(ops[i+1])|uint64(ops[i+2])<<8
		addr := v&0x3ff | (v>>10)<<16
		la := addr >> fast.lineShift
		var got, want bool
		switch op % 16 {
		case 0, 1, 2, 3:
			// Reads through the core's probe chain, the one-record probe
			// first, or Access alone.
			switch {
			case op&16 != 0:
				got = fast.FastAccess(addr) || fast.FastAccess1(addr) || fast.Access(addr)
			case op&1 == 0:
				got = fast.FastAccess(addr) || fast.Access(addr)
			default:
				got = fast.Access(addr)
			}
			want = ref.Access(addr)
			mru.access(la, want, true)
		case 4, 5, 6, 7:
			switch {
			case op&16 != 0:
				got = fast.FastWrite(addr) || fast.FastWrite1(addr) || fast.Write(addr)
			case op&1 == 0:
				got = fast.FastWrite(addr) || fast.Write(addr)
			default:
				got = fast.Write(addr)
			}
			want = ref.Write(addr)
			mru.access(la, want, want || cfg.WriteAllocate)
		case 8, 9, 10, 11:
			// A pure-probe op: a declined probe must change nothing, and
			// a bulk repeat is exactly k read hits.
			switch {
			case op&16 != 0:
				k := 1 + v>>12
				if got = fast.RepeatHit(addr, k); got {
					want = true
					for j := uint64(0); j < k; j++ {
						want = ref.Access(addr) && want
						mru.access(la, true, true)
					}
				}
			case op&32 != 0:
				if got = fast.FastAccess1(addr); got {
					want = ref.Access(addr)
					mru.access(la, want, true)
				}
			default:
				if got = fast.FastAccess(addr); got {
					want = ref.Access(addr)
					mru.access(la, want, true)
				}
			}
		case 12:
			fast.Flush()
			ref.Flush()
			ref.disableFast()
			mru.valid, mru.off = false, false
		case 13:
			fast.Reseed(v)
			ref.Reseed(v)
			mru.valid = false
		case 14:
			set, way, bit := int(v>>4), int(v&3), int(v>>8)
			fast.InjectTagFault(set, way, bit)
			ref.InjectTagFault(set, way, bit)
			mru.valid, mru.off = false, true
		case 15:
			set, way := int(v>>4), int(v&3)
			if v&4 == 0 {
				fast.InjectStateFault(set, way)
				ref.InjectStateFault(set, way)
			} else {
				fast.Scrub(set, way)
				ref.Scrub(set, way)
			}
			mru.valid, mru.off = false, true
		}
		if got != want {
			t.Fatalf("%s/%s wa=%v op %d (%d @%#x): fast path %v, scan %v",
				cfg.Placement, cfg.Replacement, cfg.WriteAllocate, i/3, op, addr, got, want)
		}
	}
	gs, ws := fast.Stats(), ref.Stats()
	if gs.MRUHits != mru.hits {
		t.Fatalf("%s/%s wa=%v: %d MRUHits, want %d", cfg.Placement, cfg.Replacement, cfg.WriteAllocate, gs.MRUHits, mru.hits)
	}
	gs.MRUHits, ws.MRUHits = 0, 0
	if gs != ws {
		t.Fatalf("%s/%s wa=%v: stats %+v, scan %+v", cfg.Placement, cfg.Replacement, cfg.WriteAllocate, gs, ws)
	}
	if fast.clock != ref.clock || !reflect.DeepEqual(fast.lines, ref.lines) || !reflect.DeepEqual(fast.rrCursor, ref.rrCursor) {
		t.Fatalf("%s/%s wa=%v: line state diverged from the scan", cfg.Placement, cfg.Replacement, cfg.WriteAllocate)
	}
}
