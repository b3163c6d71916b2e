package sensing

import (
	"math"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/xrand"
)

func cskMat(t testing.TB, p Params, depth int) *CountSketch {
	t.Helper()
	c, err := NewCountSketch(p, depth)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCountSketchColumnStructure(t *testing.T) {
	p := Params{M: 64, N: 150, Seed: 1}
	c := cskMat(t, p, 4)
	if c.Width() != 16 || c.Depth() != 4 {
		t.Fatalf("shape %dx%d, want 4x16", c.Depth(), c.Width())
	}
	inv := 1 / math.Sqrt(4)
	for j := 0; j < p.N; j++ {
		col := c.Col(j, nil)
		for r := 0; r < 4; r++ {
			nnz := 0
			for b := 0; b < 16; b++ {
				v := col[r*16+b]
				if v == 0 {
					continue
				}
				nnz++
				if math.Abs(v) != inv {
					t.Fatalf("col %d row %d entry %v, want ±%v", j, r, v, inv)
				}
			}
			if nnz != 1 {
				t.Fatalf("col %d row %d has %d nonzeros, want exactly 1", j, r, nnz)
			}
		}
		// Unit norm exactly: depth entries of ±1/√depth, never colliding
		// (one bucket per row).
		sumSq := 0.0
		for _, v := range col {
			sumSq += v * v
		}
		if math.Abs(sumSq-1) > 1e-12 {
			t.Fatalf("col %d squared norm %v, want 1", j, sumSq)
		}
	}
}

func TestCountSketchTailStaysZero(t *testing.T) {
	// depth=5 does not divide M=32: cells beyond depth·width must never
	// be touched by any operation.
	p := Params{M: 32, N: 90, Seed: 3}
	c := cskMat(t, p, 5)
	if c.Width() != 6 {
		t.Fatalf("width %d, want 6", c.Width())
	}
	used := c.Depth() * c.Width()
	r := xrand.New(1)
	x := make(linalg.Vector, p.N)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for _, y := range []linalg.Vector{c.Measure(x, nil), c.Col(7, nil), c.ExtensionColumn(nil)} {
		for i := used; i < p.M; i++ {
			if y[i] != 0 {
				t.Fatalf("tail cell %d is %v, want 0", i, y[i])
			}
		}
	}
}

func TestCountSketchDeterministicAndSeedSensitive(t *testing.T) {
	p := Params{M: 40, N: 60, Seed: 7}
	a := cskMat(t, p, 5)
	b := cskMat(t, p, 5)
	p2 := p
	p2.Seed++
	c := cskMat(t, p2, 5)
	diff := false
	for j := 0; j < p.N; j++ {
		ca, cb := a.Col(j, nil), b.Col(j, nil)
		if !ca.Equal(cb, 0) {
			t.Fatalf("col %d not deterministic", j)
		}
		if !ca.Equal(c.Col(j, nil), 0) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("every column identical across seeds")
	}
}

func TestCountSketchMeasureConsistency(t *testing.T) {
	p := Params{M: 48, N: 120, Seed: 3}
	c := cskMat(t, p, 6)
	r := xrand.New(1)
	x := make(linalg.Vector, p.N)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	want := make(linalg.Vector, p.M)
	col := make(linalg.Vector, p.M)
	idx := make([]int, p.N)
	for j := 0; j < p.N; j++ {
		want.AddScaled(x[j], c.Col(j, col))
		idx[j] = j
	}
	if got := c.Measure(x, nil); !got.Equal(want, 1e-9) {
		t.Fatal("Measure mismatch")
	}
	if got := c.MeasureSparse(idx, x, nil); !got.Equal(want, 1e-9) {
		t.Fatal("MeasureSparse mismatch")
	}
	rv := make(linalg.Vector, p.M)
	for i := range rv {
		rv[i] = r.NormFloat64()
	}
	lhs := c.Measure(x, nil).Dot(rv)
	rhs := linalg.Vector(x).Dot(c.Correlate(rv, nil))
	if math.Abs(lhs-rhs) > 1e-9*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestCountSketchCorrelateParallelBitIdentical(t *testing.T) {
	// N large enough to cross the parallel threshold.
	p := Params{M: 60, N: 3000, Seed: 11}
	c := cskMat(t, p, 5)
	r := xrand.New(4)
	rv := make(linalg.Vector, p.M)
	for i := range rv {
		rv[i] = r.NormFloat64()
	}
	serial := make(linalg.Vector, p.N)
	c.correlateRange(rv, serial, 0, p.N)
	par := c.Correlate(rv, nil)
	for j := range serial {
		if math.Float64bits(serial[j]) != math.Float64bits(par[j]) {
			t.Fatalf("parallel correlate diverges at %d: %v vs %v", j, par[j], serial[j])
		}
	}
	rs := []linalg.Vector{rv, rv.Clone().Scale(-1.5)}
	dsts := []linalg.Vector{make(linalg.Vector, p.N), make(linalg.Vector, p.N)}
	c.CorrelateBatch(rs, dsts)
	for q := range rs {
		want := make(linalg.Vector, p.N)
		c.correlateRange(rs[q], want, 0, p.N)
		for j := range want {
			if math.Float64bits(dsts[q][j]) != math.Float64bits(want[j]) {
				t.Fatalf("batch correlate residual %d diverges at %d", q, j)
			}
		}
	}
}

func TestCountSketchExtensionColumn(t *testing.T) {
	p := Params{M: 24, N: 60, Seed: 5}
	c := cskMat(t, p, 4)
	want := make(linalg.Vector, p.M)
	col := make(linalg.Vector, p.M)
	for j := 0; j < p.N; j++ {
		want.Add(c.Col(j, col))
	}
	want.Scale(1 / math.Sqrt(float64(p.N)))
	if got := c.ExtensionColumn(nil); !got.Equal(want, 1e-9) {
		t.Fatal("ExtensionColumn mismatch")
	}
}

func TestCountSketchLinearity(t *testing.T) {
	p := Params{M: 30, N: 80, Seed: 9}
	c := cskMat(t, p, 5)
	r := xrand.New(2)
	a := make(linalg.Vector, p.N)
	b := make(linalg.Vector, p.N)
	for i := range a {
		a[i], b[i] = r.NormFloat64(), r.NormFloat64()
	}
	sum := a.Clone().Add(b)
	ya := c.Measure(a, nil)
	yb := c.Measure(b, nil)
	AddSketch(ya, yb)
	if !ya.Equal(c.Measure(sum, nil), 1e-9) {
		t.Fatal("count-sketch ensemble broke sketch linearity")
	}
}

func TestCountSketchValidation(t *testing.T) {
	if _, err := NewCountSketch(Params{M: 0, N: 5, Seed: 1}, 2); err == nil {
		t.Fatal("bad params accepted")
	}
	if _, err := NewCountSketch(Params{M: 40, N: 50, Seed: 1}, 0); err == nil {
		t.Fatal("depth 0 accepted")
	}
	if _, err := NewCountSketch(Params{M: 40, N: 50, Seed: 1}, 65); err == nil {
		t.Fatal("depth 65 accepted")
	}
	if _, err := NewCountSketch(Params{M: 5, N: 50, Seed: 1}, 4); err == nil {
		t.Fatal("single-bucket rows accepted")
	}
}

// buildBiased returns a length-N vector that is mode everywhere except
// at the outlier indices, which carry mode+devs[i].
func buildBiased(n int, mode float64, outliers []int, devs []float64) linalg.Vector {
	x := make(linalg.Vector, n)
	for i := range x {
		x[i] = mode
	}
	for k, j := range outliers {
		x[j] = mode + devs[k]
	}
	return x
}

func TestCountSketchModeAndPointEstimates(t *testing.T) {
	p := Params{M: 350, N: 1200, Seed: 21}
	c := cskMat(t, p, 7) // width 50
	mode := 730.5
	outliers := []int{3, 250, 611, 890, 1199}
	devs := []float64{5000, -4200, 9100, 3300, -8800}
	x := buildBiased(p.N, mode, outliers, devs)
	y := c.Measure(x, nil)

	scratch := make([]float64, 0, c.Depth()*c.Width())
	got := c.EstimateMode(y, scratch)
	if math.Abs(got-mode) > 1e-6*math.Abs(mode) {
		t.Fatalf("EstimateMode = %v, want %v", got, mode)
	}
	// Outlier keys recover their exact planted value; each of the 5
	// outliers can collide with at most 4 others and the median over 7
	// rows survives up to 3 contaminated cells.
	for k, j := range outliers {
		est := c.PointEstimate(y, j, got)
		if math.Abs(est-x[j]) > 1e-6*math.Abs(devs[k]) {
			t.Fatalf("PointEstimate(%d) = %v, want %v", j, est, x[j])
		}
	}
	// A sample of clean keys estimates the mode (their cells may carry
	// outlier energy in a minority of rows; the median discards it).
	clean := 0
	for j := 0; j < p.N; j += 97 {
		skip := false
		for _, o := range outliers {
			if o == j {
				skip = true
			}
		}
		if skip {
			continue
		}
		clean++
		est := c.PointEstimate(y, j, got)
		if math.Abs(est-mode) > 1e-6*math.Abs(mode) {
			t.Fatalf("clean key %d estimates %v, want mode %v", j, est, mode)
		}
	}
	if clean == 0 {
		t.Fatal("no clean keys sampled")
	}
}

func TestCountSketchEstimatorAllocs(t *testing.T) {
	p := Params{M: 128, N: 500, Seed: 2}
	c := cskMat(t, p, 4)
	x := buildBiased(p.N, 50, []int{7, 331}, []float64{900, -700})
	y := c.Measure(x, nil)
	scratch := make([]float64, 0, c.Depth()*c.Width())
	var mode float64
	if n := testing.AllocsPerRun(100, func() { mode = c.EstimateMode(y, scratch) }); n != 0 {
		t.Fatalf("EstimateMode allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.PointEstimate(y, 7, mode) }); n != 0 {
		t.Fatalf("PointEstimate allocates %v per run", n)
	}
}

func TestCountSketchEvenDepthMedian(t *testing.T) {
	p := Params{M: 120, N: 400, Seed: 6}
	c := cskMat(t, p, 4)
	mode := -12.25
	x := buildBiased(p.N, mode, []int{10}, []float64{4000})
	y := c.Measure(x, nil)
	got := c.EstimateMode(y, nil)
	if math.Abs(got-mode) > 1e-6*math.Abs(mode) {
		t.Fatalf("even-depth EstimateMode = %v, want %v", got, mode)
	}
	if est := c.PointEstimate(y, 10, got); math.Abs(est-x[10]) > 1e-3 {
		t.Fatalf("even-depth PointEstimate = %v, want %v", est, x[10])
	}
}

// From a zero vector, a run of AddCol lands on the bits of one Col and
// one dense AddScaled per index — through repeats, cancellations that leave +0,
// negative values and products that underflow to −0.
func TestCountSketchAddColsBitIdentical(t *testing.T) {
	c := cskMat(t, Params{M: 45, N: 200, Seed: 7}, 4) // one tail cell
	rng := xrand.New(11)
	for _, n := range []int{0, 1, 9, 64} {
		idx, vals := make([]int, n), make([]float64, n)
		for k := range idx {
			idx[k] = rng.Intn(12) // collisions and repeats
			switch k % 4 {
			case 0:
				vals[k] = math.Ldexp(rng.Float64()-0.5, int(rng.Uint64()%40)-20)
			case 1:
				vals[k] = -vals[k-1] // cancels wherever idx repeats
				idx[k] = idx[k-1]
			case 2:
				vals[k] = -5e-324 // times 1/√depth: −0
			default:
				vals[k] = float64(rng.Intn(7) - 3)
			}
		}
		got, want := make(linalg.Vector, c.p.M), make(linalg.Vector, c.p.M)
		for k, j := range idx {
			c.AddCol(j, vals[k], got)
		}
		col := make(linalg.Vector, c.p.M)
		for k, j := range idx {
			want.AddScaled(vals[k], c.Col(j, col))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d columns: y[%d] = %v (%#x), Col+AddScaled gives %v (%#x)", n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}
