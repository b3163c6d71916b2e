package linalg

import (
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
	if v.Norm1() != 7 {
		t.Fatalf("Norm1 = %v", v.Norm1())
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

func TestArgMaxAbs(t *testing.T) {
	idx, val := Vector{1, -7, 7, 3}.ArgMaxAbs()
	if idx != 1 || val != 7 {
		t.Fatalf("ArgMaxAbs = (%d, %v), want (1, 7) with low-index tie-break", idx, val)
	}
	if idx, _ := (Vector{}).ArgMaxAbs(); idx != -1 {
		t.Fatalf("empty ArgMaxAbs idx = %d", idx)
	}
	if idx, val := (Vector{0, 0}).ArgMaxAbs(); idx != 0 || val != 0 {
		t.Fatalf("zero-vector ArgMaxAbs = (%d, %v)", idx, val)
	}
}

func TestMulVecKnown(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec(Vector{1, 1, 1}, nil)
	if !got.Equal(Vector{6, 15}, 1e-12) {
		t.Fatalf("MulVec = %v", got)
	}
	gotT := m.MulVecT(Vector{1, 1}, nil)
	if !gotT.Equal(Vector{5, 7, 9}, 1e-12) {
		t.Fatalf("MulVecT = %v", gotT)
	}
}

// Property: measurement linearity M(ax + by) = a·Mx + b·My — the algebra
// the whole distributed-aggregation paradigm rests on.
func TestMulVecLinearityProperty(t *testing.T) {
	r := xrand.New(2)
	m := randMat(r, 10, 17)
	check := func(seed uint64, a8, b8 int8) bool {
		rr := xrand.New(seed)
		a, b := float64(a8)/16, float64(b8)/16
		x, y := randVec(rr, 17), randVec(rr, 17)
		combo := x.Clone().Scale(a).AddScaled(b, y)
		lhs := m.MulVec(combo, nil)
		rhs := m.MulVec(x, nil).Scale(a).AddScaled(b, m.MulVec(y, nil))
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestColAndRow(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	if c := m.Col(1, nil); !c.Equal(Vector{2, 5}, 0) {
		t.Fatalf("Col = %v", c)
	}
	if rw := m.Row(1); !rw.Equal(Vector{4, 5, 6}, 0) {
		t.Fatalf("Row = %v", rw)
	}
	// Col must reuse dst capacity.
	dst := make(Vector, 0, 2)
	c := m.Col(0, dst)
	if !c.Equal(Vector{1, 4}, 0) {
		t.Fatalf("Col with dst = %v", c)
	}
}

func TestSolveDense(t *testing.T) {
	r := xrand.New(3)
	for trial := 0; trial < 20; trial++ {
		n := 1 + trial%8
		a := randMat(r, n, n)
		want := randVec(r, n)
		b := a.MulVec(want, nil)
		got, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Equal(want, 1e-7) {
			t.Fatalf("trial %d: solve mismatch\n got %v\nwant %v", trial, got, want)
		}
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := SolveDense(a, Vector{1, 1}); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

func TestSolveDensePivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{0, 1, 1, 0})
	x, err := SolveDense(a, Vector{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(Vector{7, 3}, 1e-12) {
		t.Fatalf("pivoted solve = %v", x)
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
	if f.K() != k {
		t.Fatalf("K = %d", f.K())
	}
	// Q must be orthonormal.
	if e := f.OrthogonalityError(); e > 1e-10 {
		t.Fatalf("orthogonality error %v", e)
	}
	// Least squares on a consistent system recovers the coefficients.
	want := randVec(r, k)
	y := make(Vector, m)
	for j, c := range cols {
		y.AddScaled(want[j], c)
	}
	f.SetTarget(y)
	z, err := f.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !z.Equal(want, 1e-8) {
		t.Fatalf("Solve\n got %v\nwant %v", z, want)
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
		if d := math.Abs(f.Q(j).Dot(res)); d > 1e-10 {
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
	if f.K() != 1 {
		t.Fatalf("rank-deficient column was appended, K=%d", f.K())
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
	if e := f.OrthogonalityError(); e > 1e-9 {
		t.Fatalf("after %d columns, orthogonality error %v", k, e)
	}
}

func TestSolveDenseAgainstQR(t *testing.T) {
	// Cross-validate the two solvers on the same square system.
	r := xrand.New(8)
	const n = 12
	a := randMat(r, n, n)
	b := randVec(r, n)
	direct, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f := NewIncrementalQR(n)
	for j := 0; j < n; j++ {
		if _, err := f.Append(a.Col(j, nil)); err != nil {
			t.Fatal(err)
		}
	}
	f.SetTarget(b)
	viaQR, err := f.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(viaQR, 1e-6) {
		t.Fatalf("solver disagreement:\n GE %v\n QR %v", direct, viaQR)
	}
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
