// Package rng provides small, fast, deterministic pseudo-random number
// generators for simulation use.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 so that any 64-bit seed — including 0 — yields a well-mixed
// state. Independent replications obtain their own streams by deriving
// child sources with Split (hash-based).
//
// Uniforms take one Uint64 each. The exponential and the normal are exact
// rejection samplers on 256-layer ziggurats (ziggurat.go): one Uint64 and
// no Log/Exp on ~99 % of draws, more words on the rest. A variate
// therefore consumes a VARIABLE number of Uint64s, and so do the
// internal/dist samplers built on them. What a Source guarantees is that
// the sequence of variates it returns is a function of its seed and of the
// sequence of calls made on it — nothing about how many words any one
// call takes, and no alignment between two Sources that are asked for
// different things.
//
// That is why simulations in this module create one Source per
// replication and one derived Source per stochastic component (class i's
// arrival process on stream 2i+1, its size process on stream 2i+2, …): a
// component that draws more, fewer or different variates — or a draw that
// rejects — never perturbs a sibling's stream. This is the "common random
// numbers" discipline used throughout internal/simsrv: under the same
// seed every allocation policy is offered identical per-class arrival
// times and sizes (pinned by simsrv's
// TestCommonRandomNumbersAcrossPolicies).
package rng

import "math/bits"

// Source is a xoshiro256** PRNG. It is NOT safe for concurrent use; create
// one Source per goroutine (see Split).
type Source struct {
	s [4]uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds
// yield (with overwhelming probability) uncorrelated streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed re-initializes the Source in place from the given seed, exactly
// as New would. It lets long-lived simulation arenas re-arm their streams
// for a new replication without allocating.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro256** requires a non-zero state; splitmix64 guarantees this
	// except with negligible probability, but be defensive anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent child Source from the parent and a stream
// identifier. The parent's state is not advanced, so components created
// from the same parent with distinct ids have reproducible, decoupled
// streams.
func (r *Source) Split(id uint64) *Source {
	var src Source
	r.SplitInto(&src, id)
	return &src
}

// SplitInto is Split writing into a caller-owned Source, for arenas that
// re-derive their component streams every replication without allocating.
// dst may be any Source (its previous state is overwritten); splitting
// into the parent itself is allowed.
func (r *Source) SplitInto(dst *Source, id uint64) {
	// Mix the parent state with the id through SplitMix64.
	sm := r.s[0] ^ (r.s[1] << 1) ^ (r.s[2] << 2) ^ (r.s[3] << 3) ^ (id * 0xd1342543de82ef95)
	for i := range dst.s {
		dst.s[i] = splitmix64(&sm)
	}
	if dst.s[0]|dst.s[1]|dst.s[2]|dst.s[3] == 0 {
		dst.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	x, s0, s1, s2, s3 := step(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return x
}

// step is one xoshiro256** step on a state held in four words: the
// output and the next state. A loop that draws many words keeps the
// state in locals through it (FillExp).
func step(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	s2 ^= s0
	s3 ^= s1
	return bits.RotateLeft64(s1*5, 7) * 9, s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)
}

// Float64 returns a uniformly distributed float64 in [0, 1) with 53 bits of
// precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniformly distributed float64 in the open interval
// (0, 1), suitable for inverse-CDF transforms that must avoid log(0) or
// division by zero.
func (r *Source) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo32 := t & mask32
	carry := t >> 32
	t = aHi*bLo + carry
	mid := t & mask32
	hiPart := t >> 32
	t = aLo*bHi + mid
	hi = aHi*bHi + hiPart + t>>32
	lo = t<<32 | lo32
	return hi, lo
}
