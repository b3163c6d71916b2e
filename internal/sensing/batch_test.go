package sensing

import (
	"math"
	"runtime/debug"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/xrand"
)

func randResiduals(rng *xrand.RNG, q, m int) []linalg.Vector {
	rs := make([]linalg.Vector, q)
	for i := range rs {
		rs[i] = make(linalg.Vector, m)
		for j := range rs[i] {
			rs[i][j] = rng.NormFloat64()
		}
	}
	// One zero residual so zero-skip branches are exercised.
	if q > 1 {
		clear(rs[q-1])
	}
	return rs
}

// TestCorrelateBlockMatchesSerial pins the batch-correlation contract
// for every ensemble: each dsts[q] out of CorrelateBlock must be
// bit-identical to an independent Correlate(rs[q], ·) call. This is the
// foundation the batched recovery engine's bit-identity proof rests on.
func TestCorrelateBlockMatchesSerial(t *testing.T) {
	p := Params{M: 64, N: 700, Seed: 99}
	dense, err := NewDense(p)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := NewSeeded(p)
	if err != nil {
		t.Fatal(err)
	}
	sketch, err := NewCountSketch(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	mats := []struct {
		name string
		m    Matrix
	}{
		{"Dense", dense},
		{"Seeded", seeded},
		{"CountSketch", sketch},
	}
	rng := xrand.New(7)
	for _, tc := range mats {
		t.Run(tc.name, func(t *testing.T) {
			mp := tc.m.Params()
			for _, q := range []int{1, 3, 8} {
				rs := randResiduals(rng, q, mp.M)
				dsts := make([]linalg.Vector, q)
				for i := range dsts {
					dsts[i] = make(linalg.Vector, mp.N)
				}
				CorrelateBlock(tc.m, rs, dsts)
				for i := range rs {
					want := tc.m.Correlate(rs[i], nil)
					for j := range want {
						if math.Float64bits(dsts[i][j]) != math.Float64bits(want[j]) {
							t.Fatalf("q=%d residual %d col %d: batch %v vs serial %v (bit-exact)",
								q, i, j, dsts[i][j], want[j])
						}
					}
				}
			}
		})
	}
}

// TestCorrelateBlockPanics checks the shared validation layer.
func TestCorrelateBlockPanics(t *testing.T) {
	p := Params{M: 8, N: 32, Seed: 1}
	m, err := NewSeeded(p)
	if err != nil {
		t.Fatal(err)
	}
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
		CorrelateBlock(m, make([]linalg.Vector, 2), make([]linalg.Vector, 1))
	})
	expectPanic("residual length", func() {
		CorrelateBlock(m, []linalg.Vector{make(linalg.Vector, 7)}, []linalg.Vector{make(linalg.Vector, 32)})
	})
	expectPanic("output length", func() {
		CorrelateBlock(m, []linalg.Vector{make(linalg.Vector, 8)}, []linalg.Vector{make(linalg.Vector, 31)})
	})
}

// TestDenseMeasureSparseScatterZeroAlloc pins MeasureSparse on an input
// that once took a scatter path through an N-length buffer: it is one
// AddCol per pair now and must run allocation-free, GC or not.
func TestDenseMeasureSparseScatterZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := Params{M: 16, N: 512, Seed: 5}
	d, err := NewDense(p)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 128)
	vals := make([]float64, 128)
	rng := xrand.New(3)
	for k := range idx {
		idx[k] = rng.Intn(p.N)
		vals[k] = rng.NormFloat64()
	}
	dst := make(linalg.Vector, p.M)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(50, func() {
		d.MeasureSparse(idx, vals, dst)
	})
	if allocs != 0 {
		t.Fatalf("MeasureSparse of %d pairs allocates %.1f/op, want 0", len(idx), allocs)
	}
}

// TestSteadyStateZeroAlloc pins the sensing calls the push and recovery
// paths make per frame or per solve: with dst allocated and each call
// made once first (Seeded's φ₀ is built on its first ExtensionColumn),
// none of them allocates.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := Params{M: 64, N: 1024, Seed: 3}
	d, err := NewDense(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSeeded(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCountSketch(p, DefaultCountSketchDepth)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	x := make(linalg.Vector, p.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make(linalg.Vector, p.M)
	// addCols16 is one 16-observation pairs frame measured from zero,
	// as a receiver measures a leaf flush.
	addCols16 := func(m Matrix) func() {
		return func() {
			clear(y)
			for k := 0; k < 16; k++ {
				m.AddCol(k*61%p.N, x[k], y)
			}
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Dense.Measure", func() { d.Measure(x, y) }},
		{"Dense.AddCol", addCols16(d)},
		{"CountSketch.AddCol", addCols16(c)},
		{"Seeded.ExtensionColumn", func() { s.ExtensionColumn(y) }},
	} {
		tc.fn()
		if n := testing.AllocsPerRun(50, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, n)
		}
	}
}
