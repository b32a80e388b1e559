// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the annealer.
//
// Reproducibility matters for this repository: every experiment in the
// paper reproduction must yield identical numbers run-to-run so the tables
// in EXPERIMENTS.md are stable. The standard library's math/rand/v2 would
// work, but a local implementation gives us (a) a guaranteed-stable stream
// across Go releases and (b) cheap SplitMix-style sub-stream derivation so
// that parallel cluster updates, Monte Carlo device sampling and workload
// generation each draw from independent streams derived from one master
// seed.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64. It is not cryptographically secure and is not meant to be.
package rng

import "math"

// Rand is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, following the xoshiro authors' advice.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed. Two
// generators constructed with the same seed produce identical streams.
func New(seed uint64) *Rand {
	sm := seed
	r := &Rand{}
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// State returns the generator's four xoshiro256** state words. The
// layout (s0..s3 in order) is part of the package's stability contract:
// checkpoint files persist New(seed).State() as the seed's fingerprint,
// and a reader whose generator drifted would compute different words.
func (r *Rand) State() [4]uint64 {
	return [4]uint64{r.s0, r.s1, r.s2, r.s3}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent generator from the current stream. The
// parent and child streams do not overlap in practice: the child is
// re-seeded through SplitMix64 from fresh parent output.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using
// the polar Box-Muller method. A cached second variate is intentionally
// not kept, so the stream position depends only on the number of calls'
// rejections, keeping Split semantics simple.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Bool returns a fair random boolean.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }
