// Package xrand provides a deterministic, splittable pseudo-random number
// generator with Gaussian sampling.
//
// The compressive-sensing aggregation protocol requires every node to
// generate the exact same measurement matrix Φ from a shared seed ("by a
// consensus", paper §3.1). The generator here is fully specified — a PCG
// XSL-RR 128/64 step with splitmix64 seeding — so its streams do not
// depend on the Go version's math/rand internals. Golden tests pin the
// integer and Gaussian streams to recorded constants on amd64 and 386; a
// deployment that mixes in other architectures is unverified (see
// NormPair).
//
// Sub-streams: Split derives an independent generator for a labeled
// sub-stream (for example, one stream per matrix column). This lets a node
// regenerate any single column of Φ in O(M) work without materializing the
// whole matrix, which is what makes sensing.Seeded practical for very
// large key spaces.
package xrand

import (
	"math"
	"math/bits"
)

// splitmix64 is the seed-scrambling finalizer from Steele et al.,
// "Fast Splittable Pseudorandom Number Generators" (OOPSLA 2014).
// It is used both to initialize PCG state from arbitrary seeds and to
// derive sub-stream seeds, so that correlated user seeds (0, 1, 2, ...)
// still yield decorrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RNG is a PCG XSL-RR 128/64 generator. The zero value is not valid; use
// New or Split.
type RNG struct {
	hi, lo uint64 // 128-bit LCG state

	// Box–Muller generates Gaussians in pairs; NormFloat64 caches the spare.
	haveGauss bool
	gauss     float64
}

// New returns a generator seeded from seed. Distinct seeds give
// independent-looking streams even when numerically adjacent.
func New(seed uint64) *RNG {
	r := NewValue(seed)
	return &r
}

// NewValue is New returning the generator by value. Hot loops that
// build one short-lived generator per matrix column use it to keep the
// generator on the stack — the pointer-returning New forces a heap
// allocation per call. The stream is bit-identical to New(seed)'s.
func NewValue(seed uint64) RNG {
	r := RNG{
		hi: splitmix64(seed),
		lo: splitmix64(seed ^ 0xda3e39cb94b95bdb),
	}
	// Advance once so that the first output already mixes the full state.
	r.step()
	return r
}

// Split returns a new generator for the sub-stream identified by label,
// derived from r's seed material but statistically independent of both r
// and any sibling sub-stream with a different label. Split does not
// consume randomness from r and may be called concurrently with other
// Splits of the same parent only if externally synchronized.
func (r *RNG) Split(label uint64) *RNG {
	s := r.SplitValue(label)
	return &s
}

// SplitValue is Split returning the generator by value (see NewValue).
// The derived stream is bit-identical to Split(label)'s.
func (r *RNG) SplitValue(label uint64) RNG {
	s := RNG{
		hi: splitmix64(r.hi ^ splitmix64(label)),
		lo: splitmix64(r.lo ^ splitmix64(label^0xa5a5a5a5a5a5a5a5)),
	}
	s.step()
	return s
}

// step advances the 128-bit LCG state (constants from PCG reference
// implementation: MCG multiplier 0x2360ed051fc65da44385df649fccf645).
func (r *RNG) step() {
	const (
		mulHi = 0x2360ed051fc65da4
		mulLo = 0x4385df649fccf645
		incHi = 0x5851f42d4c957f2d
		incLo = 0x14057b7ef767814f
	)
	// 128-bit multiply-add: state = state*mul + inc.
	hi, lo := mul128(r.hi, r.lo, mulHi, mulLo)
	lo, carry := bits.Add64(lo, incLo, 0)
	r.hi = hi + incHi + carry
	r.lo = lo
}

// mul128 computes (aHi:aLo) * (bHi:bLo) mod 2^128: the full product of
// the low words (one hardware multiply where the platform has one), plus
// the two cross terms that land in the high word.
func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(aLo, bLo)
	hi += aHi*bLo + aLo*bHi
	return hi, lo
}

// Uint64 returns the next 64-bit output (PCG XSL-RR output function).
func (r *RNG) Uint64() uint64 {
	r.step()
	xored := r.hi ^ r.lo
	rot := uint(r.hi >> 58)
	return (xored >> rot) | (xored << ((64 - rot) & 63))
}

// Float64 returns a uniform sample in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// NormPair returns both outputs of one Box–Muller transform: two
// independent standard normal samples, the cosine one first. It neither
// reads nor leaves NormFloat64's cached spare, so on a generator with no
// spare pending, NormPair's two values are the next two NormFloat64s.
//
// Box–Muller is chosen over ziggurat because it is short and needs no
// tables, but only math.Sqrt among its functions is correctly rounded.
// The golden tests pin its outputs on amd64, where math.Log is assembly,
// and on 386, where it is pure Go, and the two agree. On arm64, ppc64le,
// s390x and riscv64 the compiler may fuse multiply-adds inside math.Log
// and math.Sincos; no test covers those, so a deployment that mixes
// architectures is unverified.
func (r *RNG) NormPair() (float64, float64) {
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	s, c := math.Sincos(2 * math.Pi * v)
	return mag * c, mag * s
}

// NormFloat64 returns a standard normal sample: the first value of a
// NormPair, caching the second for the next call.
func (r *RNG) NormFloat64() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	z, spare := r.NormPair()
	r.gauss, r.haveGauss = spare, true
	return z
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
