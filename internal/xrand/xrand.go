// Package xrand provides deterministic, splittable pseudo-random number
// generation for the whole library.
//
// Every randomized component (graph generators, cascade simulation, RR-set
// sampling, budget synthesis) takes an *xrand.RNG so that experiments are
// reproducible bit-for-bit under a fixed seed, and parallel workers can each
// receive an independent stream derived from a parent seed via Split.
//
// The core generator is xoshiro256**, seeded through splitmix64, following
// the reference constructions of Blackman & Vigna. Both are tiny, fast and
// statistically strong enough for Monte-Carlo simulation.
package xrand

import "math"

// splitmix64 advances the seed-expansion state and returns the next value.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** generator. It is not safe for concurrent use; use
// Split to derive independent generators for concurrent workers.
type RNG struct {
	s [4]uint64
}

// New returns an RNG seeded from the given seed. Distinct seeds yield
// decorrelated streams thanks to splitmix64 expansion.
func New(seed uint64) *RNG {
	var r RNG
	r.Seed(seed)
	return &r
}

// Seed resets r to the state New(seed) starts from, so a hot loop can
// reseed one generator instead of allocating one per seed.
func (r *RNG) Seed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives a new independent generator from r, advancing r.
// The derived stream is seeded from r's output so that sequential Split
// calls produce decorrelated children.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// SlotSeed derives the RNG seed of item k (an RR-set slot, a Monte-Carlo
// run, a singleton's node) under seed: seed ^ (k+1)·0x9e3779b97f4a7c15,
// the splitmix64 increment. An item's draws then depend only on (seed,
// k) — never on how many workers drew it, which worker took it, or
// which other items were drawn — so a parallel estimate equals a
// sequential one bit for bit. The mix is XOR-linear, so nesting it is
// symmetric (SlotSeed(SlotSeed(s, i), j) == SlotSeed(SlotSeed(s, j), i)):
// derive a two-level seed through a splitmix step, e.g.
// New(s).Split().Uint64(), instead.
func SlotSeed(seed uint64, k int) uint64 {
	return seed ^ (uint64(k)+1)*0x9e3779b97f4a7c15
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Next is one xoshiro256** step on an explicit state: it returns the
// output and the successor state. It is the only xoshiro implementation —
// Uint64 is Next applied to the RNG's own state — and is small enough to
// inline, so a hot loop can keep the state in four locals (registers) for
// many draws and write it back once with SetState, instead of loading and
// storing it through the *RNG on every draw. Such a loop consumes exactly
// the stream the RNG methods would.
func Next(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return x, s0, s1, s2, rotl(s3, 45)
}

// State returns the generator's xoshiro256** state for a loop that steps
// it with Next.
func (r *RNG) State() (s0, s1, s2, s3 uint64) { return r.s[0], r.s[1], r.s[2], r.s[3] }

// SetState stores a state obtained from State and advanced with Next.
func (r *RNG) SetState(s0, s1, s2, s3 uint64) { r.s = [4]uint64{s0, s1, s2, s3} }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	var x uint64
	x, r.s[0], r.s[1], r.s[2], r.s[3] = Next(r.s[0], r.s[1], r.s[2], r.s[3])
	return x
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int31n returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *RNG) Int31n(n int32) int32 {
	if n <= 0 {
		panic("xrand: Int31n with non-positive n")
	}
	return int32(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits to avoid modulo bias.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf returns an integer in [1, imax] following an (approximate) Zipf
// distribution with exponent s > 1, via inverse-CDF rejection
// (Devroye's method for the Riemann zeta distribution, truncated).
func (r *RNG) Zipf(s float64, imax int) int {
	if s <= 1 {
		panic("xrand: Zipf exponent must exceed 1")
	}
	if imax < 1 {
		panic("xrand: Zipf imax must be at least 1")
	}
	b := math.Pow(2, s-1)
	for {
		u := r.Float64()
		v := r.Float64()
		x := math.Floor(math.Pow(u, -1/(s-1)))
		t := math.Pow(1+1/x, s-1)
		if x <= float64(imax) && v*x*(t-1)/(b-1) <= t/b {
			return int(x)
		}
	}
}
