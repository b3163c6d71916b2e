// Package linalg provides the dense linear-algebra kernels that the
// compressive-sensing pipeline is built on: vectors, row-major matrices,
// and an incremental Gram–Schmidt QR factorization.
//
// The paper's recovery path (§5) runs orthogonal matching pursuit with a
// QR factorization maintained one column at a time ("we optimized the
// matrix computation in the recovery using QR factorization with
// Gram-Schmidt process"); the authors call into Intel MKL, this package
// re-implements the same computation in pure Go, with the classic
// "twice is enough" re-orthogonalization pass to keep Q numerically
// orthonormal at several hundred iterations.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dot returns the inner product <v, w>. It panics if lengths differ.
//
// The loop is unrolled four-wide with independent accumulators, which
// breaks the serial FP add chain (≈4× ILP) but reassociates the sum:
// results match a naive left-fold only to ~1 ulp per term. The kernel
// itself is deterministic — equal inputs give bit-equal outputs on
// every call and platform.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		s0 += v[i] * w[i]
		s1 += v[i+1] * w[i+1]
		s2 += v[i+2] * w[i+2]
		s3 += v[i+3] * w[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(v); i++ {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm, guarding against overflow/underflow
// by scaling (as in BLAS dnrm2).
func (v Vector) Norm2() float64 {
	scale, ssq := 0.0, 1.0
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Norm1 returns the sum of absolute values.
func (v Vector) Norm1() float64 {
	s := 0.0
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the maximum absolute value (0 for an empty vector).
func (v Vector) NormInf() float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the entries.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Scale multiplies every entry by a, in place, and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// AddScaled performs v += a*w in place (BLAS axpy) and returns v.
func (v Vector) AddScaled(a float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i, x := range w {
		v[i] += a * x
	}
	return v
}

// Add performs v += w in place and returns v.
func (v Vector) Add(w Vector) Vector { return v.AddScaled(1, w) }

// Sub performs v -= w in place and returns v.
func (v Vector) Sub(w Vector) Vector { return v.AddScaled(-1, w) }

// Equal reports whether v and w agree within absolute tolerance tol.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i, x := range v {
		if math.Abs(x-w[i]) > tol {
			return false
		}
	}
	return true
}

// Fill sets every entry to a and returns v.
func (v Vector) Fill(a float64) Vector {
	for i := range v {
		v[i] = a
	}
	return v
}

// ArgMaxAbs returns the index of the entry with the largest absolute
// value, and that absolute value. For an empty vector it returns (-1, 0).
// Ties break toward the lower index, which keeps the OMP column-selection
// deterministic.
func (v Vector) ArgMaxAbs() (int, float64) {
	best, bestAbs := -1, 0.0
	for i, x := range v {
		if a := math.Abs(x); a > bestAbs {
			best, bestAbs = i, a
		} else if best == -1 {
			best = i
		}
	}
	return best, bestAbs
}

// SubCombination computes dst = c − Σᵢ z[i]·g[i], the Gram-form update
// of an OMP correlation vector (Batch-OMP, Rubinstein et al. 2008): with
// c = Φᵀy and g[i] = Φᵀφ_{sᵢ}, the result is Φᵀ(y − Σ zᵢφ_{sᵢ}) without
// touching Φ. Every vector has the length of c; dst is allocated when
// too short and must not alias c or any g[i]. Terms are taken four at a
// time, in i order, so the result is a fixed function of the arguments.
//
// The kernel does one multiply-add per 8 bytes it loads, so it runs at
// memory speed and stays on one goroutine: on the 2-CPU reference box a
// 46-term × 4097 combination split in two took 80 µs against 55 µs serial.
func SubCombination(dst, c, z Vector, g []Vector) Vector {
	if len(z) != len(g) {
		panic(fmt.Sprintf("linalg: SubCombination %d coefficients, %d vectors", len(z), len(g)))
	}
	n := len(c)
	for i := range g {
		if len(g[i]) != n {
			panic(fmt.Sprintf("linalg: SubCombination vector %d length %d, want %d", i, len(g[i]), n))
		}
	}
	if cap(dst) < n {
		dst = make(Vector, n)
	}
	dst = dst[:n]
	copy(dst, c)
	i := 0
	for ; i+4 <= len(z); i += 4 {
		z0, z1, z2, z3 := z[i], z[i+1], z[i+2], z[i+3]
		g0, g1, g2, g3 := g[i][:n], g[i+1][:n], g[i+2][:n], g[i+3][:n]
		for j := range dst {
			dst[j] -= (z0*g0[j] + z1*g1[j]) + (z2*g2[j] + z3*g3[j])
		}
	}
	for ; i < len(z); i++ {
		zi, gi := z[i], g[i][:n]
		for j := range dst {
			dst[j] -= zi * gi[j]
		}
	}
	return dst
}
