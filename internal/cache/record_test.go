package cache

import (
	"testing"

	"repro/internal/rng"
)

// TestMRUHitsPinned pins the counters of a fixed FIR-like access stream
// — loads alternating between a coefficient and a history array, every
// other one followed by a second load and a store to the same history
// line and a store that misses, and a far access every 64 — on the
// platform's DL1
// geometry under both policy builds. MRUHits counts the hits on the
// line touched by the previous hit or fill; the values were measured
// before the two-entry record existed, so hits the second record
// serves must not leak into MRUHits.
func TestMRUHitsPinned(t *testing.T) {
	for _, tc := range []struct {
		p    Placement
		r    Replacement
		want Stats
	}{
		{PlacementModulo, ReplaceLRU, Stats{Hits: 49527, Misses: 786, Evictions: 463, WriteHits: 10000, WriteMisses: 10000, MRUHits: 20000}},
		{PlacementRandomModulo, ReplaceRandom, Stats{Hits: 49500, Misses: 813, Evictions: 342, WriteHits: 10000, WriteMisses: 10000, MRUHits: 20000}},
	} {
		c, err := New(Config{Name: "DL1", SizeBytes: 16 << 10, LineBytes: 32, Ways: 4,
			Placement: tc.p, Replacement: tc.r}, rng.NewXoroshiro128(11))
		if err != nil {
			t.Fatal(err)
		}
		c.Reseed(0x5eed)
		for i := uint64(0); i < 20000; i++ {
			coef, hist := 0x10000+(i%512)*8, 0x24000+(i*8)%6144
			if !c.FastAccess(coef) {
				c.Access(coef)
			}
			c.Access(hist)
			if i%2 == 1 {
				c.Access(hist + 4)
				c.Write(hist)
				c.Write(0x30000 + (i%256)*4)
			}
			if i%64 == 0 {
				c.Access(0x80000 + i*32)
			}
		}
		if got := c.Stats(); got != tc.want {
			t.Errorf("%s/%s: stats %+v, want %+v", tc.p, tc.r, got, tc.want)
		}
	}
}
