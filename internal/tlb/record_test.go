package tlb

import (
	"testing"

	"repro/internal/rng"
)

// TestMRUHitsPinned pins the counters of a fixed access stream on the
// platform's DTLB geometry under every policy: lookups alternating
// between two pages, repeats on one, a third page that shares the
// first one's micro-cache slot, and a sweep over more pages than the
// TLB holds. MRUHits counts the hits on the previous lookup's page or
// through the micro-cache; the values were measured before the
// two-entry record existed, so hits the second record serves count
// exactly when the micro-cache would have served them.
func TestMRUHitsPinned(t *testing.T) {
	for _, tc := range []struct {
		r    Replacement
		want Stats
	}{
		{ReplaceLRU, Stats{Hits: 53328, Misses: 406, MRUHits: 46377}},
		{ReplaceRandom, Stats{Hits: 53479, Misses: 255, MRUHits: 46363}},
		{ReplaceFIFO, Stats{Hits: 53292, Misses: 442, MRUHits: 46361}},
	} {
		tl, err := New(Config{Name: "DTLB", Entries: 64, PageBytes: 4096, Replacement: tc.r, WalkAccesses: 2},
			rng.NewXoroshiro128(11))
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 20000; i++ {
			coef, hist := 0x10000+(i%1024)*8, 0x24000+(i*8)%12288
			if !tl.FastHit(coef) {
				tl.Lookup(coef)
			}
			tl.Lookup(hist)
			if i%3 == 0 {
				tl.Lookup(hist + 8)
				tl.Lookup(0x10000 + 16*4096)
			}
			if i%50 == 0 {
				tl.Lookup(0x100000 + (i%4000)*4096)
			}
		}
		if got := tl.Stats(); got != tc.want {
			t.Errorf("%s: stats %+v, want %+v", tc.r, got, tc.want)
		}
	}
}
