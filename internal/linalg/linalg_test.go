package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"csoutlier/internal/xrand"
)

func randVec(r *xrand.RNG, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func randMat(r *xrand.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func TestDotAndNorm(t *testing.T) {
	v := Vector{3, 4}
	if v.Dot(v) != 25 {
		t.Fatalf("Dot = %v", v.Dot(v))
	}
	if v.Norm2() != 5 {
		t.Fatalf("Norm2 = %v", v.Norm2())
	}
	if v.NormInf() != 4 {
		t.Fatalf("NormInf = %v", v.NormInf())
	}
}

func TestNorm2Extremes(t *testing.T) {
	// The scaled dnrm2 must not overflow for huge entries or lose tiny ones.
	big := Vector{1e200, 1e200}
	if got := big.Norm2(); math.IsInf(got, 0) || math.Abs(got-1e200*math.Sqrt2) > 1e186 {
		t.Fatalf("huge Norm2 = %v", got)
	}
	tiny := Vector{1e-200, 1e-200}
	if got := tiny.Norm2(); got == 0 || math.Abs(got-1e-200*math.Sqrt2) > 1e-214 {
		t.Fatalf("tiny Norm2 = %v", got)
	}
	if (Vector{}).Norm2() != 0 {
		t.Fatal("empty Norm2 != 0")
	}
}

func TestAddScaledAndScale(t *testing.T) {
	v := Vector{1, 2, 3}
	v.AddScaled(2, Vector{10, 20, 30})
	want := Vector{21, 42, 63}
	if !v.Equal(want, 0) {
		t.Fatalf("AddScaled = %v", v)
	}
	v.Scale(0.5)
	if !v.Equal(Vector{10.5, 21, 31.5}, 0) {
		t.Fatalf("Scale = %v", v)
	}
}

// argMaxAbs is SubCombination's argmax reference: the index of the entry
// with the largest absolute value, and that value; ties break toward the
// lower index, an all-zero vector gives index 0 and an empty one -1.
func argMaxAbs(v Vector) (int, float64) {
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

// TestArgMaxAbs pins the reference's tie rules, which
// TestSubCombinationArgMaxBits holds the kernel to.
func TestArgMaxAbs(t *testing.T) {
	idx, val := argMaxAbs(Vector{1, -7, 7, 3})
	if idx != 1 || val != 7 {
		t.Fatalf("argMaxAbs = (%d, %v), want (1, 7) with low-index tie-break", idx, val)
	}
	if idx, _ := argMaxAbs(Vector{}); idx != -1 {
		t.Fatalf("empty argMaxAbs idx = %d", idx)
	}
	if idx, val := argMaxAbs(Vector{0, 0}); idx != 0 || val != 0 {
		t.Fatalf("zero-vector argMaxAbs = (%d, %v)", idx, val)
	}
}

func TestMulVecKnown(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	gotT := m.MulVecT(Vector{1, 1}, nil)
	if !gotT.Equal(Vector{5, 7, 9}, 1e-12) {
		t.Fatalf("MulVecT = %v", gotT)
	}
}

// Property: linearity Mᵀ(ax + by) = a·Mᵀx + b·Mᵀy — the algebra the
// whole distributed-aggregation paradigm rests on.
func TestMulVecLinearityProperty(t *testing.T) {
	r := xrand.New(2)
	m := randMat(r, 17, 10)
	check := func(seed uint64, a8, b8 int8) bool {
		rr := xrand.New(seed)
		a, b := float64(a8)/16, float64(b8)/16
		x, y := randVec(rr, 17), randVec(rr, 17)
		combo := x.Clone().Scale(a).AddScaled(b, y)
		lhs := m.MulVecT(combo, nil)
		rhs := m.MulVecT(x, nil).Scale(a).AddScaled(b, m.MulVecT(y, nil))
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRow(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	rw := m.Row(1)
	if !rw.Equal(Vector{4, 5, 6}, 0) {
		t.Fatalf("Row = %v", rw)
	}
	// Row aliases the matrix storage.
	rw[0] = -4
	if m.Data[3] != -4 {
		t.Fatal("Row copied the storage")
	}
}

func TestIncrementalQRReconstruction(t *testing.T) {
	r := xrand.New(4)
	const m, k = 30, 10
	cols := make([]Vector, k)
	f := NewIncrementalQR(m)
	for j := range cols {
		cols[j] = randVec(r, m)
		if _, err := f.Append(cols[j]); err != nil {
			t.Fatalf("append %d: %v", j, err)
		}
	}
	if f.k != k {
		t.Fatalf("k = %d", f.k)
	}
	// Q must be orthonormal.
	if e := orthogonalityError(f); e > 1e-10 {
		t.Fatalf("orthogonality error %v", e)
	}
	// Least squares on a consistent system recovers the coefficients.
	want := randVec(r, k)
	y := make(Vector, m)
	for j, c := range cols {
		y.AddScaled(want[j], c)
	}
	f.SetTarget(y)
	z, err := f.SolveInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !z.Equal(want, 1e-8) {
		t.Fatalf("SolveInto\n got %v\nwant %v", z, want)
	}
	if rn := f.ResidualNorm(); rn > 1e-8 {
		t.Fatalf("residual on consistent system = %v", rn)
	}
	res := f.Residual(nil)
	if res.Norm2() > 1e-8 {
		t.Fatalf("materialized residual = %v", res.Norm2())
	}
}

func TestIncrementalQRResidualOrthogonal(t *testing.T) {
	r := xrand.New(5)
	const m, k = 25, 7
	f := NewIncrementalQR(m)
	for j := 0; j < k; j++ {
		if _, err := f.Append(randVec(r, m)); err != nil {
			t.Fatal(err)
		}
	}
	y := randVec(r, m)
	f.SetTarget(y)
	res := f.Residual(nil)
	for j := 0; j < k; j++ {
		if d := math.Abs(f.q[j].Dot(res)); d > 1e-10 {
			t.Fatalf("residual not orthogonal to q%d: %v", j, d)
		}
	}
	// Pythagoras: ‖y‖² = ‖proj‖² + ‖res‖², and ResidualNorm matches.
	if got, want := f.ResidualNorm(), res.Norm2(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ResidualNorm %v vs materialized %v", got, want)
	}
}

func TestIncrementalQRRankDeficient(t *testing.T) {
	f := NewIncrementalQR(3)
	if _, err := f.Append(Vector{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(Vector{2, 0, 0}); err != ErrRankDeficient {
		t.Fatalf("expected ErrRankDeficient, got %v", err)
	}
	if f.k != 1 {
		t.Fatalf("rank-deficient column was appended, k=%d", f.k)
	}
}

func TestIncrementalQRTargetBeforeAppend(t *testing.T) {
	// SetTarget first, then append: the Qᵀy cache must stay consistent.
	r := xrand.New(6)
	const m = 20
	f := NewIncrementalQR(m)
	y := randVec(r, m)
	f.SetTarget(y)
	cols := []Vector{randVec(r, m), randVec(r, m), randVec(r, m)}
	for _, c := range cols {
		if _, err := f.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	// Rebuild the same factorization appending first, target second.
	g := NewIncrementalQR(m)
	for _, c := range cols {
		if _, err := g.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	g.SetTarget(y)
	if a, b := f.ResidualNorm(), g.ResidualNorm(); math.Abs(a-b) > 1e-10 {
		t.Fatalf("order-dependent residual: %v vs %v", a, b)
	}
}

func TestIncrementalQRManyColumnsStaysOrthogonal(t *testing.T) {
	// The paper's §5 worry: floating-point drift over hundreds of
	// iterations. Re-orthogonalization must keep the basis clean.
	r := xrand.New(7)
	const m, k = 400, 300
	f := NewIncrementalQR(m)
	for j := 0; j < k; j++ {
		if _, err := f.Append(randVec(r, m)); err != nil {
			t.Fatalf("append %d: %v", j, err)
		}
	}
	if e := orthogonalityError(f); e > 1e-9 {
		t.Fatalf("after %d columns, orthogonality error %v", k, e)
	}
}

// orthogonalityError returns max |<qᵢ,qⱼ>−δᵢⱼ| over all pairs of f's
// basis columns: the numerical health of the basis.
func orthogonalityError(f *IncrementalQR) float64 {
	worst := 0.0
	for i := 0; i < f.k; i++ {
		for j := i; j < f.k; j++ {
			d := f.q[i].Dot(f.q[j])
			if i == j {
				d -= 1
			}
			worst = math.Max(worst, math.Abs(d))
		}
	}
	return worst
}

func BenchmarkMulVecT(b *testing.B) {
	r := xrand.New(1)
	m := randMat(r, 500, 2000)
	x := randVec(r, 500)
	dst := make(Vector, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecT(x, dst)
	}
}

func BenchmarkIncrementalQRAppend(b *testing.B) {
	r := xrand.New(1)
	const m = 500
	cols := make([]Vector, 100)
	for i := range cols {
		cols[i] = randVec(r, m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewIncrementalQR(m)
		for _, c := range cols {
			if _, err := f.Append(c); err != nil {
				b.Fatal(err)
			}
		}
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
		dst, _ = SubCombination(dst, c, z, g)
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

// subCombinationPasses is the combination as it was before it returned
// its argmax: a copy, a pass per four terms, then a pass per term left.
func subCombinationPasses(c, z Vector, g []Vector) Vector {
	dst := c.Clone()
	i := 0
	for ; i+4 <= len(z); i += 4 {
		for j := range dst {
			dst[j] -= (z[i]*g[i][j] + z[i+1]*g[i+1][j]) + (z[i+2]*g[i+2][j] + z[i+3]*g[i+3][j])
		}
	}
	for ; i < len(z); i++ {
		for j := range dst {
			dst[j] -= z[i] * g[i][j]
		}
	}
	return dst
}

// TestSubCombinationArgMaxBits holds the fused kernel to the separate
// passes and a scan bit for bit, for 0–13 terms (every remainder of the
// 4-term unroll, with and without whole groups before it): the same
// Float64bits in every entry and argMaxAbs's index. Ties must go to the
// lower index, an all-zero result to index 0, an empty one to -1.
func TestSubCombinationArgMaxBits(t *testing.T) {
	r := xrand.New(47)
	var dst Vector
	check := func(label string, c, z Vector, g []Vector) {
		t.Helper()
		want := subCombinationPasses(c, z, g)
		wantTop, _ := argMaxAbs(want)
		var top int
		dst, top = SubCombination(dst, c, z, g)
		for j := range want {
			if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: dst[%d] = %v, passes give %v", label, j, dst[j], want[j])
			}
		}
		if top != wantTop {
			t.Fatalf("%s: argmax %d, scan gives %d", label, top, wantTop)
		}
	}
	for terms := 0; terms <= 13; terms++ {
		for _, n := range []int{1, 7, 130} {
			c := randVec(r, n)
			z := randVec(r, terms)
			g := make([]Vector, terms)
			for i := range g {
				g[i] = randVec(r, n)
			}
			check(fmt.Sprintf("%d terms × %d", terms, n), c, z, g)

			// A tie: the same |value| at two indices, of either sign,
			// far above every other entry.
			if n > 3 {
				hi, lo := n-1, n/2
				c[hi], c[lo] = -1e3, 1e3
				for i := range g {
					g[i][hi], g[i][lo] = 0, 0
				}
				check(fmt.Sprintf("%d terms × %d, tie", terms, n), c, z, g)
				if wantTop, _ := argMaxAbs(subCombinationPasses(c, z, g)); wantTop != lo {
					t.Fatalf("tie instance has its max at %d, not %d", wantTop, lo)
				}
			}

			// All zero: c and every g zero.
			zero := make(Vector, n)
			zg := make([]Vector, terms)
			for i := range zg {
				zg[i] = make(Vector, n)
			}
			check(fmt.Sprintf("%d terms × %d, all zero", terms, n), zero, z, zg)
		}
	}
	if _, top := SubCombination(nil, Vector{}, Vector{}, nil); top != -1 {
		t.Fatalf("empty combination: argmax %d, want -1", top)
	}
}
