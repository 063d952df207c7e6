package tlb

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// FuzzTLBLookupStream is the TLB twin of the cache's stream fuzzer: it
// checks the fast paths (the same-page record behind FastHit and the
// translation micro-cache) against the plain associative scan. One
// arbitrary stream of lookups, flushes, entry/state upsets and scrubs
// drives, under every replacement policy, both a normal TLB and a
// reference whose fast paths are off (mruOff). Every hit/miss outcome,
// the final Stats (less MRUHits) and the final entry state must agree
// exactly.
//
// Each op is three bytes: an opcode and a 16-bit operand. The operand's
// low 10 bits address a window of 16 pages (twice the TLB's reach); its
// top 6 bits pick one of 64 regions 1,024 pages apart, whose pages alias
// in every micro-cache slot.
func FuzzTLBLookupStream(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 0, 64, 0, 1, 0, 4, 0, 0, 0})
	f.Add(uint64(7), []byte{0, 0, 0, 0, 0, 4, 0, 0, 8, 1, 0, 4, 4, 0, 0, 0, 0, 4, 5, 0, 0, 0, 0, 4})
	f.Add(uint64(42), []byte{0, 128, 0, 2, 128, 0, 6, 3, 0, 0, 128, 0, 7, 3, 9, 0, 128, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		for _, r := range []Replacement{ReplaceLRU, ReplaceRandom, ReplaceFIFO} {
			c := Config{Name: "fuzz", Entries: 8, PageBytes: 64, Replacement: r, WalkAccesses: 1}
			checkTLBStream(t, c, seed, ops)
		}
	})
}

func checkTLBStream(t *testing.T, c Config, seed uint64, ops []byte) {
	fast, err := New(c, rng.NewXoroshiro128(seed))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := New(c, rng.NewXoroshiro128(seed))
	ref.disableFast()
	for i := 0; i+3 <= len(ops); i += 3 {
		op, v := ops[i], uint64(ops[i+1])|uint64(ops[i+2])<<8
		addr := v&0x3ff | (v>>10)<<16
		var got, want bool
		switch op % 8 {
		case 0, 1, 2:
			// Half through the probe-first call pattern the core uses,
			// half through Lookup alone.
			if op&1 == 0 {
				got = fast.FastHit(addr) || fast.Lookup(addr)
			} else {
				got = fast.Lookup(addr)
			}
			want = ref.Lookup(addr)
		case 3:
			// A pure-probe op: a declined probe must change nothing.
			if got = fast.FastHit(addr); got {
				want = ref.Lookup(addr)
			}
		case 4:
			fast.Flush()
			ref.Flush()
			ref.disableFast()
		case 5:
			fast.InjectEntryFault(int(v), int(v>>8))
			ref.InjectEntryFault(int(v), int(v>>8))
		case 6:
			fast.InjectStateFault(int(v))
			ref.InjectStateFault(int(v))
		case 7:
			fast.Scrub(int(v))
			ref.Scrub(int(v))
		}
		if got != want {
			t.Fatalf("%s op %d (%d @%#x): fast path %v, scan %v", c.Replacement, i/3, op%8, addr, got, want)
		}
	}
	gs, ws := fast.Stats(), ref.Stats()
	gs.MRUHits, ws.MRUHits = 0, 0
	if gs != ws {
		t.Fatalf("%s: stats %+v, scan %+v", c.Replacement, gs, ws)
	}
	if fast.clock != ref.clock || !reflect.DeepEqual(fast.entries, ref.entries) {
		t.Fatalf("%s: entry state diverged from the scan", c.Replacement)
	}
}
