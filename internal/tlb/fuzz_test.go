package tlb

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// FuzzTLBLookupStream is the TLB twin of the cache's stream fuzzer: it
// checks the fast paths (the two-entry page record behind FastHit,
// FastHit1 and RepeatHit, and the translation micro-cache) against the
// plain associative scan. One arbitrary stream of lookups, bulk repeats,
// flushes, entry/state upsets and scrubs drives, under every
// replacement policy, both a normal TLB and a reference whose fast
// paths are off (mruOff). Every hit/miss outcome, the final Stats (less
// MRUHits) and the final entry state must agree exactly, and MRUHits
// must count exactly the hits on the previous lookup's page or through
// the micro-cache (mruModel).
//
// Each op is three bytes: an opcode and a 16-bit operand. The opcode's
// low 3 bits pick the operation and bits 3-4 its variant; the operand's
// low 10 bits address a window of 16 pages (twice the TLB's reach); its
// top 6 bits pick one of 64 regions 1,024 pages apart, whose pages alias
// in every micro-cache slot.
func FuzzTLBLookupStream(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 0, 64, 0, 1, 0, 4, 0, 0, 0})
	f.Add(uint64(7), []byte{0, 0, 0, 0, 0, 4, 0, 0, 8, 1, 0, 4, 4, 0, 0, 0, 0, 4, 5, 0, 0, 0, 0, 4})
	f.Add(uint64(42), []byte{0, 128, 0, 2, 128, 0, 6, 3, 0, 0, 128, 0, 7, 3, 9, 0, 128, 0})
	// Two pages alternating through the second record, two pages sharing
	// a micro-cache slot, then bulk repeats on the most recent page.
	f.Add(uint64(5), []byte{8, 0, 0, 8, 64, 0, 8, 0, 0, 8, 64, 0, 8, 0, 4, 8, 0, 0, 8, 0, 4, 11, 0, 0x30, 11, 64, 0x10, 19, 0, 0, 8, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		for _, r := range []Replacement{ReplaceLRU, ReplaceRandom, ReplaceFIFO} {
			c := Config{Name: "fuzz", Entries: 8, PageBytes: 64, Replacement: r, WalkAccesses: 1}
			checkTLBStream(t, c, seed, ops)
		}
	})
}

// mruModel counts the hits MRUHits means while the fast paths are on:
// those on the page of the previous lookup, and those the micro-cache
// serves — its slot (the page's low bits) still names the page, which
// every lookup writes into its slot.
type mruModel struct {
	off   bool
	last  uint64
	valid bool
	slot  [mruSlots]uint64
	full  [mruSlots]bool
	hits  uint64
}

// lookup notes a lookup of vpn; resident reports whether it hits.
func (m *mruModel) lookup(vpn uint64, resident bool) {
	if m.off {
		return
	}
	h := vpn & (mruSlots - 1)
	if resident && ((m.valid && vpn == m.last) || (m.full[h] && m.slot[h] == vpn)) {
		m.hits++
	}
	m.valid, m.last = true, vpn
	m.slot[h], m.full[h] = vpn, true
}

// reset drops every record; off bypasses them until the next reset.
func (m *mruModel) reset(off bool) {
	hits := m.hits
	*m = mruModel{off: off, hits: hits}
}

func checkTLBStream(t *testing.T, c Config, seed uint64, ops []byte) {
	fast, err := New(c, rng.NewXoroshiro128(seed))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := New(c, rng.NewXoroshiro128(seed))
	ref.disableFast()
	var mru mruModel
	for i := 0; i+3 <= len(ops); i += 3 {
		op, v := ops[i], uint64(ops[i+1])|uint64(ops[i+2])<<8
		addr := v&0x3ff | (v>>10)<<16
		vpn := addr >> fast.pageShift
		var got, want bool
		switch op % 8 {
		case 0, 1, 2:
			// Through the core's probe chain, the one-record probe first,
			// or Lookup alone.
			switch {
			case op&8 != 0:
				got = fast.FastHit(addr) || fast.FastHit1(addr) || fast.Lookup(addr)
			case op&1 == 0:
				got = fast.FastHit(addr) || fast.Lookup(addr)
			default:
				got = fast.Lookup(addr)
			}
			mru.lookup(vpn, ref.Probe(addr))
			want = ref.Lookup(addr)
		case 3:
			// A pure-probe op: a declined probe must change nothing, and
			// a bulk repeat is exactly k hits.
			switch {
			case op&8 != 0:
				k := 1 + v>>12
				if got = fast.RepeatHit(addr, k); got {
					want = true
					for j := uint64(0); j < k; j++ {
						mru.lookup(vpn, ref.Probe(addr))
						want = ref.Lookup(addr) && want
					}
				}
			case op&16 != 0:
				if got = fast.FastHit1(addr); got {
					mru.lookup(vpn, ref.Probe(addr))
					want = ref.Lookup(addr)
				}
			default:
				if got = fast.FastHit(addr); got {
					mru.lookup(vpn, ref.Probe(addr))
					want = ref.Lookup(addr)
				}
			}
		case 4:
			fast.Flush()
			ref.Flush()
			ref.disableFast()
			mru.reset(false)
		case 5:
			fast.InjectEntryFault(int(v), int(v>>8))
			ref.InjectEntryFault(int(v), int(v>>8))
			mru.reset(true)
		case 6:
			fast.InjectStateFault(int(v))
			ref.InjectStateFault(int(v))
			mru.reset(true)
		case 7:
			fast.Scrub(int(v))
			ref.Scrub(int(v))
			mru.reset(true)
		}
		if got != want {
			t.Fatalf("%s op %d (%d @%#x): fast path %v, scan %v", c.Replacement, i/3, op, addr, got, want)
		}
	}
	gs, ws := fast.Stats(), ref.Stats()
	if gs.MRUHits != mru.hits {
		t.Fatalf("%s: %d MRUHits, want %d", c.Replacement, gs.MRUHits, mru.hits)
	}
	gs.MRUHits, ws.MRUHits = 0, 0
	if gs != ws {
		t.Fatalf("%s: stats %+v, scan %+v", c.Replacement, gs, ws)
	}
	if fast.clock != ref.clock || !reflect.DeepEqual(fast.entries, ref.entries) {
		t.Fatalf("%s: entry state diverged from the scan", c.Replacement)
	}
}
