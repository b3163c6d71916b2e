package linalg

import (
	"math"
	"testing"

	"csoutlier/internal/xrand"
)

// TestMulMatTMatchesMulVecT pins the blocked GEMM's bit-identity
// contract: every output column of MulMatT (and its parallel form) must
// equal the per-residual MulVecT result bit-for-bit, across shapes that
// exercise the 4-row blocking remainder and the zero-skip path.
func TestMulMatTMatchesMulVecT(t *testing.T) {
	r := xrand.New(11)
	shapes := []struct{ rows, cols, q int }{
		{1, 1, 1},
		{4, 8, 2},
		{7, 33, 3},   // rows%4 != 0: remainder loop
		{64, 257, 5}, // odd column count
		{129, 512, 9},
	}
	for _, sh := range shapes {
		m := randMat(r, sh.rows, sh.cols)
		rs := make([]Vector, sh.q)
		for q := range rs {
			rs[q] = randVec(r, sh.rows)
			// Zero out stretches so the zero-skip branches fire, including
			// a fully zero residual.
			if q == 0 {
				clear(rs[q])
			} else {
				for i := 0; i+q < sh.rows; i += q + 1 {
					rs[q][i] = 0
				}
			}
		}
		for _, parallel := range []bool{false, true} {
			dsts := make([]Vector, sh.q)
			for q := range dsts {
				dsts[q] = make(Vector, sh.cols)
			}
			if parallel {
				m.ParallelMulMatT(rs, dsts)
			} else {
				m.MulMatT(rs, dsts)
			}
			for q := range rs {
				want := m.MulVecT(rs[q], nil)
				for j := range want {
					if math.Float64bits(dsts[q][j]) != math.Float64bits(want[j]) {
						t.Fatalf("%dx%d q=%d parallel=%v: dst[%d]=%v, MulVecT gives %v (bit-exact)",
							sh.rows, sh.cols, q, parallel, j, dsts[q][j], want[j])
					}
				}
			}
		}
	}
}

// TestMulMatTDimensionPanics checks the GEMM rejects mismatched blocks.
func TestMulMatTDimensionPanics(t *testing.T) {
	m := NewMatrix(4, 6)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("count mismatch", func() {
		m.MulMatT([]Vector{make(Vector, 4)}, nil)
	})
	expectPanic("residual length", func() {
		m.MulMatT([]Vector{make(Vector, 3)}, []Vector{make(Vector, 6)})
	})
	expectPanic("output length", func() {
		m.MulMatT([]Vector{make(Vector, 4)}, []Vector{make(Vector, 5)})
	})
}

// TestParallelWorkersScaling pins the work/worker gate: tiny products
// run serial, and the worker count never exceeds work/minParallelWork,
// so no goroutine is dispatched for less work than the fork costs.
func TestParallelWorkersScaling(t *testing.T) {
	if w := parallelWorkers(0); w >= 2 {
		t.Fatalf("zero work got %d workers", w)
	}
	if w := parallelWorkers(minParallelWork * 2); w > 2 {
		t.Fatalf("2 units of work got %d workers", w)
	}
	if w := parallelWorkers(1 << 30); w < 1 {
		t.Fatalf("large work got %d workers", w)
	}
}

// TestSubCombination pins the Gram-form kernel against the
// one-term-at-a-time definition within round-off, covering the 4-term
// blocking remainder (len(z) % 4 != 0), the zero-term copy and the reuse
// of a long-enough dst.
func TestSubCombination(t *testing.T) {
	r := xrand.New(23)
	var dst Vector
	for _, sh := range []struct{ terms, n int }{
		{0, 5}, {1, 1}, {3, 33}, {4, 64}, {9, 257}, {46, 4097},
	} {
		c := randVec(r, sh.n)
		z := randVec(r, sh.terms)
		g := make([]Vector, sh.terms)
		for i := range g {
			g[i] = randVec(r, sh.n)
		}
		dst = SubCombination(dst, c, z, g)
		if len(dst) != sh.n {
			t.Fatalf("%d terms × %d: len(dst)=%d", sh.terms, sh.n, len(dst))
		}
		for j := range dst {
			want := c[j]
			for i := range g {
				want -= z[i] * g[i][j]
			}
			if math.Abs(dst[j]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("%d terms × %d: dst[%d]=%v, definition gives %v", sh.terms, sh.n, j, dst[j], want)
			}
		}
	}
}
