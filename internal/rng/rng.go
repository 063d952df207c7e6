// Package rng provides the pseudo-random number generators that drive the
// time-randomized hardware of the MBPTA-compliant platform.
//
// The paper builds on a pseudo-random number generator "that has been shown
// to provide enough randomization for MBPTA" and that is IEC-61508 SIL3
// compliant (Agirre et al., DSD 2015). That generator is a hardware block;
// here we provide software generators with the same contract:
//
//   - deterministic reseeding per run (the measurement protocol sets a new
//     seed after each binary reload),
//   - statistical quality sufficient for randomized placement/replacement,
//   - online health tests in the style of safety standards (monobit, poker,
//     runs, long-run, repetition count) so a failed generator is detected
//     rather than silently degrading the probabilistic argument.
//
// All generators implement Source and are deliberately NOT safe for
// concurrent use: each simulated hardware block owns its own generator,
// mirroring the per-resource PRNG instances of the real design.
package rng

import (
	"errors"
	"fmt"
)

// Source is the interface implemented by all generators in this package.
// It is a subset of math/rand.Source64 plus convenience helpers used by
// the hardware models.
type Source interface {
	// Uint64 returns the next 64 pseudo-random bits.
	Uint64() uint64
	// Seed re-initializes the generator deterministically from seed.
	Seed(seed uint64)
}

// Uint32 derives 32 bits from a Source.
func Uint32(s Source) uint32 { return uint32(s.Uint64() >> 32) }

// Intn returns a uniformly distributed integer in [0, n) drawn from s.
// It panics if n <= 0. Uses Lemire's multiply-shift rejection method to
// avoid modulo bias, which matters because cache set counts are powers of
// two but way counts and arbitration windows need not be.
func Intn(s Source, n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	un := uint64(n)
	// Fast path for powers of two: mask.
	if un&(un-1) == 0 {
		return int(s.Uint64() & (un - 1))
	}
	// Rejection sampling on the high bits.
	for {
		v := s.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func Float64(s Source) float64 {
	// 53 random bits scaled into [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func Bool(s Source) bool { return s.Uint64()&1 == 1 }

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + lo1>>32
	lo = a * b
	return hi, lo
}

// SplitMix64 is the seeding generator recommended for initializing the
// state of other generators. It is itself a full-period 2^64 generator.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Seed resets the generator state.
func (s *SplitMix64) Seed(seed uint64) { s.state = seed }

// Uint64 advances the generator and returns 64 pseudo-random bits.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Xoroshiro128 implements xoroshiro128** — small state, excellent
// statistical quality, and cheap enough to model a per-resource hardware
// PRNG. This is the default generator for the randomized caches and TLBs.
type Xoroshiro128 struct {
	s0, s1 uint64
}

// NewXoroshiro128 returns a generator seeded from seed via SplitMix64,
// following the reference seeding procedure.
func NewXoroshiro128(seed uint64) *Xoroshiro128 {
	x := &Xoroshiro128{}
	x.Seed(seed)
	return x
}

// Seed re-initializes the state from seed, guaranteeing a non-zero state.
// The seeding SplitMix64 is a stack value so reseeding allocates nothing
// (platforms reseed every run).
func (x *Xoroshiro128) Seed(seed uint64) {
	sm := SplitMix64{state: seed}
	x.s0 = sm.Uint64()
	x.s1 = sm.Uint64()
	if x.s0 == 0 && x.s1 == 0 {
		// The all-zero state is the one fixed point; perturb it.
		x.s0 = 0x9E3779B97F4A7C15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 advances the generator and returns 64 pseudo-random bits.
func (x *Xoroshiro128) Uint64() uint64 {
	s0, s1 := x.s0, x.s1
	result := rotl(s0*5, 7) * 9
	s1 ^= s0
	x.s0 = rotl(s0, 24) ^ s1 ^ (s1 << 16)
	x.s1 = rotl(s1, 37)
	return result
}

// Float64 is the concrete-receiver variant of the package-level helper:
// callers holding a stack-allocated Xoroshiro128 avoid the interface
// conversion (and the resulting heap escape) in allocation-free paths.
// Must stay in lockstep with Float64(Source).
func (x *Xoroshiro128) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Uint32 is the concrete-receiver variant of Uint32(Source). Must stay
// in lockstep with Uint32(Source).
func (x *Xoroshiro128) Uint32() uint32 { return uint32(x.Uint64() >> 32) }

// Intn is the concrete-receiver variant of Intn(Source, int): same
// algorithm, same draw sequence, no interface escape. Must stay in
// lockstep with Intn(Source, int).
func (x *Xoroshiro128) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	un := uint64(n)
	if un&(un-1) == 0 {
		return int(x.Uint64() & (un - 1))
	}
	for {
		v := x.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// MWC is a multiply-with-carry generator. MWC designs are popular for
// hardware PRNGs because they need one multiplier and one adder; the
// IEC-61508 study evaluated generators of this complexity class.
type MWC struct {
	x, c uint64
}

// mwcA is the MWC multiplier; chosen so that a*2^64-1 and (a*2^64-2)/2 are
// prime, giving a period near 2^127.
const mwcA = 0xFFEBB71D94FCDAF9

// NewMWC returns an MWC generator seeded from seed.
func NewMWC(seed uint64) *MWC {
	m := &MWC{}
	m.Seed(seed)
	return m
}

// Seed re-initializes the state from seed, avoiding the degenerate
// all-zero and all-ones states.
func (m *MWC) Seed(seed uint64) {
	sm := SplitMix64{state: seed}
	m.x = sm.Uint64()
	m.c = sm.Uint64() % (mwcA - 1)
	if m.x == 0 && m.c == 0 {
		m.x = 1
	}
}

// Uint64 advances the generator and returns 64 pseudo-random bits.
func (m *MWC) Uint64() uint64 {
	hi, lo := mul64(m.x, mwcA)
	lo += m.c
	if lo < m.c {
		hi++
	}
	m.x, m.c = lo, hi
	return lo
}

// LFSR is a 64-bit Galois linear-feedback shift register. It is the
// weakest generator here — provided because LFSRs are the classic hardware
// randomization primitive and the health tests must be able to flag
// structured output when an LFSR is misused bit-serially.
type LFSR struct {
	state uint64
}

// lfsrTaps is the feedback polynomial x^64+x^63+x^61+x^60+1 (maximal).
const lfsrTaps = 0xD800000000000000

// NewLFSR returns an LFSR seeded with seed (zero is mapped to 1, as the
// zero state is absorbing).
func NewLFSR(seed uint64) *LFSR {
	l := &LFSR{}
	l.Seed(seed)
	return l
}

// Seed re-initializes the register; the absorbing zero state is avoided.
func (l *LFSR) Seed(seed uint64) {
	if seed == 0 {
		seed = 1
	}
	l.state = seed
}

// Uint64 clocks the register 64 times and returns the collected bits.
func (l *LFSR) Uint64() uint64 {
	var out uint64
	s := l.state
	for i := 0; i < 64; i++ {
		bit := s & 1
		s >>= 1
		if bit != 0 {
			s ^= lfsrTaps
		}
		out = out<<1 | bit
	}
	l.state = s
	return out
}

// Kind names a generator family for construction by configuration.
type Kind string

// Generator families available to platform configurations.
const (
	KindXoroshiro Kind = "xoroshiro128**"
	KindMWC       Kind = "mwc"
	KindLFSR      Kind = "lfsr"
	KindSplitMix  Kind = "splitmix64"
)

// New constructs a generator of the given kind seeded with seed.
func New(kind Kind, seed uint64) (Source, error) {
	switch kind {
	case KindXoroshiro, "":
		return NewXoroshiro128(seed), nil
	case KindMWC:
		return NewMWC(seed), nil
	case KindLFSR:
		return NewLFSR(seed), nil
	case KindSplitMix:
		return NewSplitMix64(seed), nil
	default:
		return nil, fmt.Errorf("rng: unknown generator kind %q", kind)
	}
}

// ErrUnhealthy is returned by Checked sources whose online health tests
// have tripped.
var ErrUnhealthy = errors.New("rng: generator failed online health tests")
