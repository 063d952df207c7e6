// Package tlb models the instruction and data translation lookaside
// buffers of the platform: 64-entry fully-associative TLBs whose
// replacement policy was changed to random in the MBPTA-compliant build
// of the processor (the paper randomizes ITLB and DTLB replacement).
//
// Address translation itself is identity (the case study runs bare-metal
// with a flat mapping); what matters for timing is hit/miss behaviour
// and the page-table-walk cost on a miss.
package tlb

import (
	"fmt"

	"repro/internal/rng"
)

// Replacement selects the victim policy.
type Replacement string

// Replacement policies.
const (
	ReplaceLRU    Replacement = "lru"
	ReplaceRandom Replacement = "random"
	ReplaceFIFO   Replacement = "fifo"
)

// Config describes one TLB.
type Config struct {
	Name        string
	Entries     int
	PageBytes   int
	Replacement Replacement
	// WalkAccesses is the number of memory accesses a miss costs (the
	// depth of the page-table walk); each goes to the bus/DRAM.
	WalkAccesses int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("tlb %q: non-positive entries %d", c.Name, c.Entries)
	}
	if c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("tlb %q: page size %d not a positive power of two", c.Name, c.PageBytes)
	}
	if c.WalkAccesses < 1 {
		return fmt.Errorf("tlb %q: walk accesses %d < 1", c.Name, c.WalkAccesses)
	}
	switch c.Replacement {
	case ReplaceLRU, ReplaceRandom, ReplaceFIFO:
	default:
		return fmt.Errorf("tlb %q: unknown replacement %q", c.Name, c.Replacement)
	}
	return nil
}

// Stats counts TLB events.
type Stats struct {
	Hits    uint64
	Misses  uint64
	MRUHits uint64 // hits served by the last-page or micro-cache fast paths
}

// MissRatio returns misses / total.
func (s Stats) MissRatio() float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Misses) / float64(tot)
}

type entry struct {
	valid bool
	vpn   uint64
	stamp uint64 // recency (LRU) or insertion order (FIFO)
}

// replKind is the pre-resolved replacement dispatch tag, so the per-
// instruction Lookup path compares integers instead of policy strings.
type replKind uint8

const (
	replLRU replKind = iota
	replRandom
	replFIFO
)

// mruSlots sizes the direct-mapped translation micro-cache (vpn ->
// entry index). It is a pure software acceleration: every slot is
// verified against the backing entry before use, so a hit through the
// micro-cache is exactly a hit the associative scan would have found.
const mruSlots = 16

// TLB is one translation buffer. Not safe for concurrent use; each core
// owns its TLBs.
type TLB struct {
	cfg       Config
	entries   []entry
	clock     uint64
	rnd       rng.Source
	stats     Stats
	pageShift uint
	repl      replKind

	// Translation micro-cache: maps vpn (direct-mapped on its low bits)
	// to the entry index where it was last found. Entries are verified
	// on use, so stale slots cost nothing but a fallback scan. The
	// associative scan always finds the FIRST matching entry, and absent
	// fault injection valid vpns are unique, so replaying the recorded
	// index is behaviourally identical to the scan. Fault injection can
	// forge duplicate vpns (a flipped tag aliasing another page), where
	// first-match order matters for LRU stamping — mruOff disables the
	// micro-cache from the first injected upset until the next Flush.
	mruVPN [mruSlots]uint64
	mruIdx [mruSlots]int32
	mruOff bool

	// Two-entry record of the preceding lookups: vpn0 is the page of the
	// immediately preceding lookup, vpn1 the distinct page looked up
	// before it; idx0/idx1 are their entry indices + 1, 0 = no record.
	// If the current vpn equals vpn0, the previous Lookup hit or filled
	// this very vpn and nothing has run since that could evict it, so
	// this lookup is a hit at the recorded index with no verification
	// load needed (vpns are unique absent faults; mruOff covers faults).
	// vpn1's entry is just as resident: the one fill since its lookup
	// (the one that made vpn0 current) drops the record if it replaced
	// idx1 (see noteMRU). Instruction fetch streams stay on one 4 KiB
	// page for ~1k instructions, and data streams alternate between a
	// few pages, making these the dominant paths. Indices rather than
	// entry pointers keep record updates free of GC write barriers.
	vpn0, vpn1 uint64
	idx0, idx1 uint32

	// Same-page hits served by FastHit (and RepeatHit) on the vpn0
	// record, folded into Hits and MRUHits by Stats so the probe stays
	// within the inliner's budget.
	fastHits uint64
}

// New builds a TLB. src is required for random replacement.
func New(cfg Config, src rng.Source) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Replacement == ReplaceRandom && src == nil {
		return nil, fmt.Errorf("tlb %q: random replacement requires an rng source", cfg.Name)
	}
	shift := uint(0)
	for p := cfg.PageBytes; p > 1; p >>= 1 {
		shift++
	}
	t := &TLB{cfg: cfg, entries: make([]entry, cfg.Entries), rnd: src, pageShift: shift}
	switch cfg.Replacement {
	case ReplaceRandom:
		t.repl = replRandom
	case ReplaceFIFO:
		t.repl = replFIFO
	default:
		t.repl = replLRU
	}
	t.clearMRU()
	return t, nil
}

func (t *TLB) clearMRU() {
	for i := range t.mruIdx {
		t.mruIdx[i] = -1
	}
	t.idx0, t.idx1 = 0, 0
}

// Config returns the TLB configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a copy of the counters, with the probe's same-page hits
// folded in.
func (t *TLB) Stats() Stats {
	s := t.stats
	s.Hits += t.fastHits
	s.MRUHits += t.fastHits
	return s
}

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() {
	t.stats = Stats{}
	t.fastHits = 0
}

// Flush invalidates all entries (per-run protocol).
func (t *TLB) Flush() {
	clear(t.entries)
	t.clearMRU()
	t.mruOff = false
}

// FastHit is the inlinable same-page probe of Lookup: when addr lies on
// the page the previous lookup hit or filled — a guaranteed hit at the
// recorded entry (see the vpn0 invariant) — it performs that hit and
// returns true; otherwise it changes nothing and returns false, and the
// caller tries FastHit1 and then falls back to Lookup.
func (t *TLB) FastHit(addr uint64) bool {
	if addr>>t.pageShift != t.vpn0 || t.idx0 == 0 {
		return false
	}
	t.clock++
	if t.repl == replLRU {
		t.entries[t.idx0-1].stamp = t.clock
	}
	t.fastHits++
	return true
}

// FastHit1 is the inlinable probe of the vpn1 record: when addr lies on
// the distinct page looked up before the previous lookup's, it performs
// that hit exactly as Lookup would, makes the page the most recent and
// returns true; otherwise it changes nothing and returns false. Lookup
// would serve the hit from the micro-cache, an MRUHit: vpn1's last
// lookup wrote its slot, and only lookups of vpn0, which noteMRU keeps
// in a different slot, ran since.
func (t *TLB) FastHit1(addr uint64) bool {
	if addr>>t.pageShift != t.vpn1 || t.idx1 == 0 {
		return false
	}
	t.clock++
	if t.repl == replLRU {
		t.entries[t.idx1-1].stamp = t.clock
	}
	t.fastHits++
	t.vpn0, t.vpn1, t.idx0, t.idx1 = t.vpn1, t.vpn0, t.idx1, t.idx0
	return true
}

// Recorded reports whether addr lies on the page of the immediately
// preceding lookup (the vpn0 record), so RepeatHit would apply.
func (t *TLB) Recorded(addr uint64) bool {
	return t.idx0 != 0 && addr>>t.pageShift == t.vpn0
}

// RepeatHit performs k hits on addr's page in bulk when it is the page
// of the immediately preceding lookup, leaving the clock, the entry's
// stamp and the counters exactly as k FastHit calls would, and returns
// true; otherwise it changes nothing and returns false.
func (t *TLB) RepeatHit(addr uint64, k uint64) bool {
	if !t.Recorded(addr) {
		return false
	}
	t.clock += k
	if t.repl == replLRU {
		t.entries[t.idx0-1].stamp = t.clock
	}
	t.fastHits += k
	return true
}

// Lookup translates addr, returning true on hit. On a miss the entry is
// filled (the walk cost is charged by the timing model, which sees the
// miss and issues Config().WalkAccesses memory accesses).
func (t *TLB) Lookup(addr uint64) bool {
	if t.FastHit(addr) || t.FastHit1(addr) {
		return true
	}
	vpn := addr >> t.pageShift
	t.clock++
	// Fast path: the micro-cache remembers where this vpn was last
	// found. The slot is verified against the live entry, so a hit here
	// is exactly the hit the scan below would return. Under mruOff the
	// micro-cache is empty (disableFast, noteMRU), so it needs no test.
	h := int(vpn) & (mruSlots - 1)
	if idx := t.mruIdx[h]; idx >= 0 && t.mruVPN[h] == vpn {
		e := &t.entries[idx]
		if e.valid && e.vpn == vpn {
			if t.repl == replLRU {
				e.stamp = t.clock
			}
			t.stats.Hits++
			t.stats.MRUHits++
			t.noteMRU(vpn, idx)
			return true
		}
	}
	free := -1
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			if t.repl == replLRU {
				e.stamp = t.clock
			}
			t.stats.Hits++
			t.noteMRU(vpn, int32(i))
			return true
		}
		if !e.valid && free < 0 {
			free = i
		}
	}
	t.stats.Misses++
	if free >= 0 {
		t.entries[free] = entry{valid: true, vpn: vpn, stamp: t.clock}
		t.noteMRU(vpn, int32(free))
		return false
	}
	var victim int
	switch t.repl {
	case replRandom:
		victim = rng.Intn(t.rnd, len(t.entries))
	default: // LRU and FIFO both evict the oldest stamp; they differ in
		// whether Lookup refreshes it (LRU does, FIFO does not).
		victim = 0
		for i := 1; i < len(t.entries); i++ {
			if t.entries[i].stamp < t.entries[victim].stamp {
				victim = i
			}
		}
	}
	t.entries[victim] = entry{valid: true, vpn: vpn, stamp: t.clock}
	t.noteMRU(vpn, int32(victim))
	return false
}

// noteMRU records where vpn lives, in both the direct-mapped slot table
// and the two-entry lookup record (which every lookup must refresh for
// its invariant to hold). A new page pushes the vpn0 record down to
// vpn1. The vpn1 record is dropped when it names the same entry as
// vpn0 (a page that a fill has just replaced) and when the two pages
// share a micro-cache slot (vpn0's lookup has just overwritten vpn1's
// slot, so Lookup would no longer count vpn1's next hit as an MRUHit).
// The scan finds first matches, and a fill only ever happens when no
// valid entry holds vpn, so the recorded index is always the first (and
// only) match while faults are absent. Under mruOff neither is read, so
// neither is kept.
func (t *TLB) noteMRU(vpn uint64, idx int32) {
	if t.mruOff {
		return
	}
	h := int(vpn) & (mruSlots - 1)
	t.mruVPN[h] = vpn
	t.mruIdx[h] = idx
	i := uint32(idx) + 1
	if vpn != t.vpn0 || t.idx0 == 0 {
		t.vpn1, t.idx1 = t.vpn0, t.idx0
	}
	t.vpn0, t.idx0 = vpn, i
	if t.idx1 == i || (t.vpn1^vpn)&(mruSlots-1) == 0 {
		t.idx1 = 0
	}
}

// InjectEntryFault flips bit number bit of the virtual page number
// stored in entry idx — a single-event upset in the TLB tag array. For
// a valid entry this both drops the original translation (a later
// lookup re-walks) and may alias a different page onto the entry. As
// translation is identity in the model, the upset perturbs timing only.
// Coordinates are reduced modulo the geometry so any values are safe.
func (t *TLB) InjectEntryFault(idx, bit int) {
	e := t.faultEntry(idx)
	e.vpn ^= 1 << (uint(bit) % 64)
	// A flipped tag can alias an existing vpn; duplicate matches must
	// resolve in scan order, so bypass the micro-cache until re-flushed.
	t.disableFast()
}

// InjectStateFault flips the valid bit of entry idx — an upset in the
// state array (a translation vanishes, or a stale frame resurfaces).
func (t *TLB) InjectStateFault(idx int) {
	e := t.faultEntry(idx)
	e.valid = !e.valid
	t.disableFast()
}

// Scrub invalidates entry idx — the scrubbing engine's repair action
// for an entry flagged by a parity/ECC sweep. Dropping a translation is
// always architecturally safe (the worst case is a re-walk), so
// scrubbing converts a potentially aliased upset into a bounded timing
// effect. Idempotent; the index is reduced modulo the geometry like the
// fault injectors'.
func (t *TLB) Scrub(idx int) {
	t.faultEntry(idx).valid = false
	t.disableFast()
}

// disableFast bypasses the lookup records and the micro-cache until the
// next Flush.
func (t *TLB) disableFast() {
	t.mruOff = true
	t.clearMRU()
}

func (t *TLB) faultEntry(idx int) *entry {
	if idx < 0 {
		idx = -idx
	}
	return &t.entries[idx%len(t.entries)]
}

// Probe reports residency without side effects.
func (t *TLB) Probe(addr uint64) bool {
	vpn := addr >> t.pageShift
	for _, e := range t.entries {
		if e.valid && e.vpn == vpn {
			return true
		}
	}
	return false
}
