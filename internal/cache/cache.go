// Package cache models the first-level set-associative caches of the
// platform, in both the baseline deterministic flavour (modulo placement
// + LRU replacement) and the MBPTA-compliant time-randomized flavour
// (random-modulo placement, Hernandez et al. DAC 2016, + random
// replacement, Kosmidis et al. DATE 2013).
//
// Random modulo keeps the key property of modulo placement — a sequence
// of addresses with consecutive line indices and the same tag never
// conflicts with itself — while making the concrete set of any given
// line a per-run random variable: the set index is the modulo index
// rotated by a hash of (seed, tag). A fresh seed per run therefore
// re-rolls the program's cache layout exactly as the paper's protocol
// prescribes ("we set a new seed for each experiment after the binary
// has been reloaded").
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/rng"
)

// Placement selects the set-index function.
type Placement string

// Placement policies.
const (
	PlacementModulo       Placement = "modulo"        // deterministic: index bits
	PlacementRandomModulo Placement = "random-modulo" // DAC'16 random modulo
	PlacementRandomHash   Placement = "random-hash"   // pure hash of line address (ablation)
)

// Replacement selects the victim-way policy.
type Replacement string

// Replacement policies.
const (
	ReplaceLRU        Replacement = "lru"
	ReplaceRandom     Replacement = "random"
	ReplaceRoundRobin Replacement = "round-robin"
)

// Config is the geometry and policy of one cache.
type Config struct {
	Name        string
	SizeBytes   int
	LineBytes   int
	Ways        int
	Placement   Placement
	Replacement Replacement
	// WriteAllocate selects whether stores allocate on miss. The
	// platform's DL1 is write-through no-write-allocate, so this is
	// false there; it is configurable for ablations.
	WriteAllocate bool
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry %+v", c.Name, c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*line (%d)",
			c.Name, c.SizeBytes, c.LineBytes*c.Ways)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	switch c.Placement {
	case PlacementModulo, PlacementRandomModulo, PlacementRandomHash:
	default:
		return fmt.Errorf("cache %q: unknown placement %q", c.Name, c.Placement)
	}
	switch c.Replacement {
	case ReplaceLRU, ReplaceRandom, ReplaceRoundRobin:
	default:
		return fmt.Errorf("cache %q: unknown replacement %q", c.Name, c.Replacement)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Stats counts cache events since the last ResetStats.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	WriteHits   uint64 // write-through stores that hit
	WriteMisses uint64 // write-through stores that missed (no allocate)
	MRUHits     uint64 // hits (read or write) served by the same-line fast path
}

// Accesses returns total demand accesses.
func (s Stats) Accesses() uint64 {
	return s.Hits + s.Misses + s.WriteHits + s.WriteMisses
}

// MissRatio returns misses/(hits+misses) over read accesses.
func (s Stats) MissRatio() float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Misses) / float64(tot)
}

type line struct {
	valid bool
	tag   uint64
	// lru is a recency stamp for LRU; for round-robin the set keeps a
	// cursor instead.
	lru uint64
}

// placeKind is the pre-resolved placement dispatch tag: Access/Write run
// once per simulated instruction, so the policy switch must be an integer
// compare, not a string compare on Config.Placement.
type placeKind uint8

const (
	placeModulo placeKind = iota
	placeRandomModulo
	placeRandomHash
)

// replKind is the pre-resolved replacement dispatch tag.
type replKind uint8

const (
	replLRU replKind = iota
	replRandom
	replRoundRobin
)

// Cache is one level-one cache instance. It is not safe for concurrent
// use; each core owns its caches, as in the modeled hardware.
//
// The line array is a single flat slab indexed by set*ways+way (rather
// than a per-set slice-of-slices), so a lookup is one bounds-checked
// slice access with no pointer chase and Flush is one slab-wide clear.
type Cache struct {
	cfg       Config
	lines     []line // flat slab: lines[set*ways+way]
	rrCursor  []int  // round-robin cursor per set
	clock     uint64
	seed      uint64
	rnd       rng.Source
	stats     Stats
	lineShift uint
	setMask   uint64
	ways      int
	indexBits uint // number of set-index bits (popcount of setMask)
	place     placeKind
	repl      replKind

	// Two-entry line record: la0 is the line touched by the last hit or
	// fill, la1 the distinct line touched before it; idx0/idx1 are their
	// slab indices + 1, 0 = no record. Both lines are necessarily still
	// resident when the next access arrives: nothing since their last
	// touch could evict la0, and the one fill since la1's (the one that
	// made la0 current) drops the record if it landed on idx1 (see
	// note). An access to either line therefore short-circuits placement
	// hashing and the way scan with identical side effects. Tag-array
	// fault injection can invalidate the "tag matches line address"
	// premise, so mruOff bypasses both records from the first upset until
	// Flush. Indices rather than slab pointers keep record updates free
	// of GC write barriers.
	la0, la1   uint64
	idx0, idx1 uint32
	mruOff     bool

	// Same-line hits served by FastAccess/FastWrite (and RepeatHit) on
	// the la0 record. They are kept out of stats so the probes stay
	// within the inliner's budget, and are folded into Hits, WriteHits
	// and MRUHits by Stats. Hits on the la1 record are ordinary Hits
	// and WriteHits, like memo hits.
	fastReads  uint64
	fastWrites uint64

	// Line-slot memo: line address (direct-mapped on its low bits) ->
	// slab index + 1 where it was last hit or filled; 0 = empty. A slot
	// is trusted only when the slab line it names is valid and tagged
	// with the probed line address, which is then the scan's unique
	// match (see memoIdx), so a memo hit skips placement hashing and the
	// way scan with identical side effects.
	memo [memoSlots]uint32
}

// memoSlots sizes the line-slot memo (a power of two).
const memoSlots = 256

// New builds a cache from cfg, drawing placement/replacement randomness
// from src (may be nil for fully deterministic configurations; required
// for random placement or replacement).
func New(cfg Config, src rng.Source) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	needsRand := cfg.Placement != PlacementModulo || cfg.Replacement == ReplaceRandom
	if needsRand && src == nil {
		return nil, fmt.Errorf("cache %q: randomized policy requires an rng source", cfg.Name)
	}
	c := &Cache{
		cfg:      cfg,
		rnd:      src,
		lines:    make([]line, cfg.Sets()*cfg.Ways),
		rrCursor: make([]int, cfg.Sets()),
		ways:     cfg.Ways,
	}
	c.lineShift = uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
	c.setMask = uint64(cfg.Sets() - 1)
	c.indexBits = uint(bits.OnesCount64(c.setMask))
	switch cfg.Placement {
	case PlacementModulo:
		c.place = placeModulo
	case PlacementRandomModulo:
		c.place = placeRandomModulo
	case PlacementRandomHash:
		c.place = placeRandomHash
	}
	switch cfg.Replacement {
	case ReplaceLRU:
		c.repl = replLRU
	case ReplaceRandom:
		c.repl = replRandom
	case ReplaceRoundRobin:
		c.repl = replRoundRobin
	}
	return c, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters, with the probes' same-line
// hits folded in.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Hits += c.fastReads
	s.WriteHits += c.fastWrites
	s.MRUHits += c.fastReads + c.fastWrites
	return s
}

// ResetStats zeroes the counters without touching contents.
func (c *Cache) ResetStats() {
	c.stats = Stats{}
	c.fastReads, c.fastWrites = 0, 0
}

// Flush invalidates every line — the paper's protocol flushes caches
// between measurement runs. With the flat slab this is a few bulk
// clears (compiled to memclr) instead of a per-set loop nest.
func (c *Cache) Flush() {
	clear(c.lines)
	clear(c.rrCursor)
	clear(c.memo[:])
	c.idx0, c.idx1 = 0, 0
	c.mruOff = false
}

// Reseed installs the per-run placement seed. Under random modulo this
// re-rolls the memory layout's cache mapping; under modulo placement it
// has no effect (kept so callers can treat both platforms uniformly).
func (c *Cache) Reseed(seed uint64) {
	c.seed = seed
	// The records' and the memo's exactness arguments assume a fixed
	// placement mapping; after a reseed the same line address maps
	// elsewhere.
	c.idx0, c.idx1 = 0, 0
	clear(c.memo[:])
}

// lineAddr strips the offset bits.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// tagOf returns the tag: the line address above the index bits. Note
// that under randomized placement the full line address must be stored
// (two different line addresses may share tag bits but map to the same
// set only under one seed), so we conservatively tag with the whole
// line address in all configurations.
func (c *Cache) tagOf(addr uint64) uint64 { return c.lineAddr(addr) }

// setOf implements the placement function on a line address.
func (c *Cache) setOf(la uint64) int {
	index := la & c.setMask
	switch c.place {
	case placeModulo:
		return int(index)
	case placeRandomModulo:
		// DAC'16 random modulo: rotate the modulo index by a hash of the
		// seed and the tag (the bits above the index). Lines sharing a
		// tag keep their relative order, so a contiguous region up to
		// Sets()*LineBytes never self-conflicts; distinct tags receive
		// independent rotations per seed.
		tag := la >> c.indexBits
		return int((index + hash64(c.seed, tag)) & c.setMask)
	default:
		// Pure hash placement: every line lands in an independent
		// random set; sacrifices the modulo non-conflict property
		// (provided for the E7 ablation).
		return int(hash64(c.seed, la) & c.setMask)
	}
}

// hash64 is a strong 64-bit mix of seed and value (splitmix64 finalizer
// over the xor), standing in for the parametric hardware hash of the
// random-modulo design.
func hash64(seed, v uint64) uint64 {
	z := seed ^ (v * 0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// setWays returns the slab window of one set.
func (c *Cache) setWays(set int) []line {
	base := set * c.ways
	return c.lines[base : base+c.ways]
}

// FastAccess is the inlinable record probe of Access: when addr lies
// in the line the previous access hit or filled (the la0 record), it
// performs that read hit and returns true; otherwise it changes nothing
// and returns false, and the caller tries FastAccess1 and then falls
// back to Access. Callers on the per-instruction path test the probes
// first so the common case costs no call.
func (c *Cache) FastAccess(addr uint64) bool {
	if addr>>c.lineShift != c.la0 || c.idx0 == 0 {
		return false
	}
	c.clock++
	c.lines[c.idx0-1].lru = c.clock
	c.fastReads++
	return true
}

// FastWrite is FastAccess for stores: a same-line write hit.
func (c *Cache) FastWrite(addr uint64) bool {
	if addr>>c.lineShift != c.la0 || c.idx0 == 0 {
		return false
	}
	c.clock++
	c.lines[c.idx0-1].lru = c.clock
	c.fastWrites++
	return true
}

// FastAccess1 is the inlinable probe of the la1 record: when addr lies
// in the distinct line touched before the previous access's, it
// performs that read hit — an ordinary hit, not an MRUHit — makes the
// line the most recent and returns true; otherwise it changes nothing
// and returns false.
func (c *Cache) FastAccess1(addr uint64) bool {
	if addr>>c.lineShift != c.la1 || c.idx1 == 0 {
		return false
	}
	c.clock++
	c.lines[c.idx1-1].lru = c.clock
	c.stats.Hits++
	c.la0, c.la1, c.idx0, c.idx1 = c.la1, c.la0, c.idx1, c.idx0
	return true
}

// FastWrite1 is FastAccess1 for stores.
func (c *Cache) FastWrite1(addr uint64) bool {
	if addr>>c.lineShift != c.la1 || c.idx1 == 0 {
		return false
	}
	c.clock++
	c.lines[c.idx1-1].lru = c.clock
	c.stats.WriteHits++
	c.la0, c.la1, c.idx0, c.idx1 = c.la1, c.la0, c.idx1, c.idx0
	return true
}

// Recorded reports whether addr lies in the most recently touched line
// (the la0 record), so RepeatHit would apply.
func (c *Cache) Recorded(addr uint64) bool {
	return c.idx0 != 0 && addr>>c.lineShift == c.la0
}

// RepeatHit performs k read hits on addr's line in bulk when it is the
// most recently touched line, leaving the clock, the line's recency
// stamp and the counters exactly as k FastAccess calls would, and
// returns true; otherwise it changes nothing and returns false.
func (c *Cache) RepeatHit(addr uint64, k uint64) bool {
	if !c.Recorded(addr) {
		return false
	}
	c.clock += k
	c.lines[c.idx0-1].lru = c.clock
	c.fastReads += k
	return true
}

// Access performs a read access (instruction fetch or load). It returns
// true on hit; on miss the line is allocated, evicting per policy.
func (c *Cache) Access(addr uint64) bool {
	if c.FastAccess(addr) || c.FastAccess1(addr) {
		return true
	}
	la := c.lineAddr(addr)
	c.clock++
	if i := c.memoIdx(la); i >= 0 {
		c.lines[i].lru = c.clock
		c.note(la, i)
		c.stats.Hits++
		return true
	}
	// One placement per miss: the fill goes to the set the scan missed.
	set := c.setOf(la)
	if c.scanSet(set, la) {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	c.note(la, set*c.ways+c.fill(set, la))
	return false
}

// Write performs a store access. With write-through no-write-allocate
// (the platform's DL1 configuration) a write hit refreshes recency and a
// write miss does not allocate. With WriteAllocate it behaves like a
// read access for allocation purposes. Returns true on hit.
func (c *Cache) Write(addr uint64) bool {
	if c.FastWrite(addr) || c.FastWrite1(addr) {
		return true
	}
	la := c.lineAddr(addr)
	c.clock++
	if i := c.memoIdx(la); i >= 0 {
		c.lines[i].lru = c.clock
		c.note(la, i)
		c.stats.WriteHits++
		return true
	}
	if c.scan(la) {
		c.stats.WriteHits++
		return true
	}
	c.stats.WriteMisses++
	if c.cfg.WriteAllocate {
		set := c.setOf(la)
		c.note(la, set*c.ways+c.fill(set, la))
	}
	return false
}

// memoIdx returns the slab index the memo holds for line address la,
// verified to be valid and tagged la, or -1 (a memo hit is then a hit
// on that line, which the caller applies).
//
// The memo is exact: fills place la only in setOf(la) and only when the
// set does not already hold it, so absent faults a line address sits in
// at most one way, and only in its current set. A slot is written from
// a hit or fill in setOf(la) and cleared whenever the mapping changes
// (Reseed) or the slab is emptied (Flush), so a verified slot names the
// way the scan would have returned. Faults can forge a second copy of
// la, where scan order matters; disableFast empties the memo and note
// stops filling it until Flush, so the memo is bypassed under mruOff
// without a test here.
func (c *Cache) memoIdx(la uint64) int {
	i := c.memo[la&(memoSlots-1)]
	if i == 0 {
		return -1
	}
	if l := &c.lines[i-1]; !l.valid || l.tag != la {
		return -1
	}
	return int(i - 1)
}

// scan finds line address la by placement and the way scan, refreshing
// its recency stamp on a hit.
func (c *Cache) scan(la uint64) bool { return c.scanSet(c.setOf(la), la) }

// scanSet is scan with the placement of la already computed.
func (c *Cache) scanSet(set int, la uint64) bool {
	ways := c.setWays(set)
	for w := range ways {
		if ways[w].valid && ways[w].tag == la {
			ways[w].lru = c.clock
			c.note(la, set*c.ways+w)
			return true
		}
	}
	return false
}

// note records the slab line touched by a hit or fill in the records
// and the memo. A new line pushes the la0 record down to la1; a record
// left naming the same slab slot as la0 is a line that a fill has just
// evicted, so it is dropped. Under mruOff neither the records nor the
// memo is read, so neither is kept.
func (c *Cache) note(la uint64, idx int) {
	if c.mruOff {
		return
	}
	i := uint32(idx) + 1
	if la != c.la0 || c.idx0 == 0 {
		c.la1, c.idx1 = c.la0, c.idx0
	}
	c.la0, c.idx0 = la, i
	if c.idx1 == i {
		c.idx1 = 0
	}
	c.memo[la&(memoSlots-1)] = i
}

// Probe reports whether addr is present without updating state or
// counters (test/debug aid).
func (c *Cache) Probe(addr uint64) bool {
	set := c.setOf(c.lineAddr(addr))
	tag := c.tagOf(addr)
	for _, l := range c.setWays(set) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// fill allocates tag into set, choosing a victim per policy, and
// returns the way the line landed in.
func (c *Cache) fill(set int, tag uint64) int {
	ways := c.setWays(set)
	// Prefer an invalid way.
	for w := range ways {
		if !ways[w].valid {
			ways[w] = line{valid: true, tag: tag, lru: c.clock}
			return w
		}
	}
	var victim int
	switch c.repl {
	case replLRU:
		victim = 0
		for w := 1; w < len(ways); w++ {
			if ways[w].lru < ways[victim].lru {
				victim = w
			}
		}
	case replRandom:
		victim = rng.Intn(c.rnd, len(ways))
	case replRoundRobin:
		victim = c.rrCursor[set]
		c.rrCursor[set] = (victim + 1) % len(ways)
	}
	c.stats.Evictions++
	ways[victim] = line{valid: true, tag: tag, lru: c.clock}
	return victim
}

// SetOfForTest exposes the placement function for property tests.
func (c *Cache) SetOfForTest(addr uint64) int { return c.setOf(c.lineAddr(addr)) }

// InjectTagFault flips bit number bit of the tag stored at (set, way) —
// a single-event upset in the tag array. A flipped tag of a valid line
// turns later accesses to the original address into misses and may
// alias a different address onto stale contents; because the model
// carries no data, a tag upset can only perturb timing, never
// architectural results. Coordinates are reduced modulo the geometry so
// any values are safe.
func (c *Cache) InjectTagFault(set, way, bit int) {
	l := c.faultLine(set, way)
	l.tag ^= 1 << (uint(bit) % 64)
	// A flipped tag can break the record's "tag == line address" premise
	// and forge duplicate tags where scan order matters; bypass the
	// fast path until the next Flush.
	c.disableFast()
}

// InjectStateFault flips the valid bit at (set, way) — an upset in the
// state array. A valid line silently vanishes (spurious miss later) or
// an invalid frame becomes visible with whatever tag the array held.
func (c *Cache) InjectStateFault(set, way int) {
	l := c.faultLine(set, way)
	l.valid = !l.valid
	c.disableFast()
}

// Scrub invalidates the line at (set, way) — the scrubbing engine's
// repair action for a cell flagged by a parity/ECC sweep. Invalidation
// is always architecturally safe for a transparent cache (the worst
// case is a future miss), so scrubbing converts a potentially aliased
// upset into a bounded timing effect. Idempotent; coordinates are
// reduced modulo the geometry like the fault injectors'.
func (c *Cache) Scrub(set, way int) {
	c.faultLine(set, way).valid = false
	c.disableFast()
}

// disableFast bypasses the records and the memo until the next Flush.
func (c *Cache) disableFast() {
	c.mruOff = true
	c.idx0, c.idx1 = 0, 0
	clear(c.memo[:])
}

func (c *Cache) faultLine(set, way int) *line {
	if set < 0 {
		set = -set
	}
	if way < 0 {
		way = -way
	}
	return &c.lines[(set&int(c.setMask))*c.ways+way%c.ways]
}
