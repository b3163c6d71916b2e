// Package linalg provides the dense linear-algebra kernels that the
// compressive-sensing pipeline is built on: vectors, row-major matrices,
// the Gram-form combination recovery runs every iteration
// (SubCombination), and an incremental Gram–Schmidt QR factorization.
//
// The paper's recovery path (§5) runs orthogonal matching pursuit with a
// QR factorization maintained one column at a time ("we optimized the
// matrix computation in the recovery using QR factorization with
// Gram-Schmidt process"); the authors call into Intel MKL. Recovery here
// grows a Cholesky factor of the cached Gram instead (Batch-OMP, see
// internal/recovery), which is the same R without the M-row Q. The
// modified Gram–Schmidt QR, with its "twice is enough"
// re-orthogonalization pass, stays as the reference the engine is tested
// against.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

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

// SubCombination computes dst = c − Σᵢ z[i]·g[i], the Gram-form update
// of an OMP correlation vector (Batch-OMP, Rubinstein et al. 2008): with
// c = Φᵀy and g[i] = Φᵀφ_{sᵢ}, the result is Φᵀ(y − Σ zᵢφ_{sᵢ}) without
// touching Φ. Every vector has the length of c; dst is allocated when
// too short and must not alias c or any g[i]. Terms are taken four at a
// time, in i order, and the 0–3 left over one at a time, so the result is
// a fixed function of the arguments.
//
// It also returns the first index of the largest |dst[j]| (-1 when c is
// empty), tracked in the pass that writes dst's final values, so OMP's
// column selection costs no pass of its own.
//
// The kernel does one multiply-add per 8 bytes it loads, so it runs at
// memory speed and stays on one goroutine: on the 2-CPU reference box a
// 46-term × 4097 combination split in two took 80 µs against 55 µs serial.
func SubCombination(dst, c, z Vector, g []Vector) (Vector, int) {
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
	if n == 0 {
		return dst, -1
	}
	// Every pass but the last takes four terms; the last takes what is
	// left (none only when there are no terms) and tracks the argmax.
	tail := len(z) % 4
	if tail == 0 && len(z) > 0 {
		tail = 4
	}
	src, i := c[:n], 0
	for ; i < len(z)-tail; i += 4 {
		z0, z1, z2, z3 := z[i], z[i+1], z[i+2], z[i+3]
		g0, g1, g2, g3 := g[i][:n], g[i+1][:n], g[i+2][:n], g[i+3][:n]
		s := src[:n]
		for j := range dst {
			dst[j] = s[j] - ((z0*g0[j] + z1*g1[j]) + (z2*g2[j] + z3*g3[j]))
		}
		src = dst
	}
	src = src[:n]
	best, bestAbs := 0, 0.0
	switch tail {
	case 0:
		for j, v := range src {
			dst[j] = v
			if a := math.Abs(v); a > bestAbs {
				best, bestAbs = j, a
			}
		}
	case 1:
		z0, g0 := z[i], g[i][:n]
		for j := range dst {
			v := src[j] - z0*g0[j]
			dst[j] = v
			if a := math.Abs(v); a > bestAbs {
				best, bestAbs = j, a
			}
		}
	case 2:
		z0, z1 := z[i], z[i+1]
		g0, g1 := g[i][:n], g[i+1][:n]
		for j := range dst {
			v := src[j] - z0*g0[j]
			v -= z1 * g1[j]
			dst[j] = v
			if a := math.Abs(v); a > bestAbs {
				best, bestAbs = j, a
			}
		}
	case 3:
		z0, z1, z2 := z[i], z[i+1], z[i+2]
		g0, g1, g2 := g[i][:n], g[i+1][:n], g[i+2][:n]
		for j := range dst {
			v := src[j] - z0*g0[j]
			v -= z1 * g1[j]
			v -= z2 * g2[j]
			dst[j] = v
			if a := math.Abs(v); a > bestAbs {
				best, bestAbs = j, a
			}
		}
	case 4:
		z0, z1, z2, z3 := z[i], z[i+1], z[i+2], z[i+3]
		g0, g1, g2, g3 := g[i][:n], g[i+1][:n], g[i+2][:n], g[i+3][:n]
		for j := range dst {
			v := src[j] - ((z0*g0[j] + z1*g1[j]) + (z2*g2[j] + z3*g3[j]))
			dst[j] = v
			if a := math.Abs(v); a > bestAbs {
				best, bestAbs = j, a
			}
		}
	}
	return dst, best
}
