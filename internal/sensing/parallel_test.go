package sensing

import (
	"math"
	"runtime"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/xrand"
)

// withWorkers runs body with GOMAXPROCS forced to w, restoring it after.
// On a single-CPU host this still exercises the parallel code paths
// (goroutines interleave), which is what the bit-identity tests need.
func withWorkers(t *testing.T, w int, body func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(w)
	defer runtime.GOMAXPROCS(old)
	body()
}

// bitsEqual fails unless got and want are bit-for-bit identical.
func bitsEqual(t *testing.T, name string, got, want linalg.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %x, want %x (values %v vs %v)",
				name, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

// randVec returns a deterministic pseudo-random vector of length n.
func randVec(seed uint64, n int) linalg.Vector {
	rng := xrand.New(seed)
	v := make(linalg.Vector, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// oddShapes covers the degenerate and remainder-heavy geometries the
// chunked kernels must not mishandle: single-row, single-column, fewer
// columns than workers, and column counts not divisible by any chunk.
var oddShapes = []Params{
	{M: 1, N: 1, Seed: 7},
	{M: 1, N: 257, Seed: 7},
	{M: 5, N: 1, Seed: 7},
	{M: 3, N: 2, Seed: 7},      // N < workers
	{M: 8, N: 33, Seed: 7},     // just above the seeded chunk floor
	{M: 16, N: 1000, Seed: 7},  // not divisible by foldBlock or chunks
	{M: 32, N: 4096, Seed: 11}, // even split
	{M: 7, N: 4099, Seed: 11},  // prime-ish remainder everywhere
}

// seededMeasureSerial is the single-threaded reference for
// Seeded.Measure: one regenerated column and one AddScaled per non-zero
// entry, in ascending j.
func seededMeasureSerial(s *Seeded, x linalg.Vector) linalg.Vector {
	dst := make(linalg.Vector, s.p.M)
	col := make(linalg.Vector, s.p.M)
	for j, v := range x {
		if v == 0 {
			continue
		}
		fillColumn(s.p, j, col)
		dst.AddScaled(v, col)
	}
	return dst
}

// seededMeasureSparseSerial is the same reference for MeasureSparse, in
// ascending k.
func seededMeasureSparseSerial(s *Seeded, idx []int, vals []float64) linalg.Vector {
	dst := make(linalg.Vector, s.p.M)
	col := make(linalg.Vector, s.p.M)
	for k, j := range idx {
		if vals[k] == 0 {
			continue
		}
		fillColumn(s.p, j, col)
		dst.AddScaled(vals[k], col)
	}
	return dst
}

// TestSeededParallelBitIdentical pins the protocol-critical property:
// the parallel Seeded kernels produce the exact bits of the serial
// loops for every worker count and shape. Nodes with different core
// counts must agree on sketches exactly.
func TestSeededParallelBitIdentical(t *testing.T) {
	for _, p := range oddShapes {
		s, err := NewSeeded(p)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := NewSeeded(p)
		if err != nil {
			t.Fatal(err)
		}
		r := randVec(1+p.Seed, p.M)
		x := randVec(2+p.Seed, p.N)
		// A sparse slice with repeats, zeros and out-of-order indices.
		idx := []int{p.N - 1, 0, p.N / 2, 0}
		vals := []float64{1.5, -2.25, 0, 3.5}

		wantCorr := make(linalg.Vector, p.N)
		serial.correlateRange(r, wantCorr, 0, p.N)
		wantMeas := seededMeasureSerial(serial, x)
		wantSparse := seededMeasureSparseSerial(serial, idx, vals)
		wantExt := serial.ExtensionColumn(nil)

		for _, w := range []int{1, 2, 3, 8} {
			withWorkers(t, w, func() {
				par, err := NewSeeded(p) // fresh matrix: cold φ₀ cache per worker count
				if err != nil {
					t.Fatal(err)
				}
				bitsEqual(t, "Correlate", s.Correlate(r, nil), wantCorr)
				bitsEqual(t, "Measure", s.Measure(x, nil), wantMeas)
				bitsEqual(t, "MeasureSparse", s.MeasureSparse(idx, vals, nil), wantSparse)
				bitsEqual(t, "ExtensionColumn", par.ExtensionColumn(nil), wantExt)
			})
		}
	}
}

// rowMajor copies m's columns into a row-major linalg.Matrix: the
// reference the column-major Dense kernels are pinned against.
func rowMajor(m Matrix) *linalg.Matrix {
	p := m.Params()
	ref := linalg.NewMatrix(p.M, p.N)
	col := make(linalg.Vector, p.M)
	for j := 0; j < p.N; j++ {
		for i, v := range m.Col(j, col) {
			ref.Set(i, j, v)
		}
	}
	return ref
}

// TestDenseParallelBitIdentical pins what NewDense's fanned-out fill and
// Dense.Correlate produce against the serial row-major MulVecT, at every
// worker count: each column has its own sub-stream, so the entries are
// the same bits however the columns were split.
func TestDenseParallelBitIdentical(t *testing.T) {
	p := Params{M: 64, N: 2048, Seed: 19}
	serial, err := NewSeeded(p)
	if err != nil {
		t.Fatal(err)
	}
	ref := rowMajor(serial)
	r := randVec(23, p.M)
	want := ref.MulVecT(r, nil)
	for _, w := range []int{1, 2, 3, 8} {
		withWorkers(t, w, func() {
			d, err := NewDense(p)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, "Dense.Correlate", d.Correlate(r, nil), want)
		})
	}
}

// TestDenseColumnMajorMatchesRowMajor pins every column-major Dense
// kernel to the row-major arithmetic it replaced, Float64bits-exact:
// Measure to MulVec, Correlate to MulVecT, CorrelateBatch to
// per-residual Correlate, φ₀ to the scaled row sums, AddCol to Col plus
// AddScaled. Shapes: a remainder in every unrolled loop (7×13), more
// rows than one Measure block (515×21) and the production one
// (384×4096); x carries an all-zero 8-column pass where N allows,
// residuals an all-zero 4-row block and a zero in the remainder rows,
// and one residual is zero throughout.
func TestDenseColumnMajorMatchesRowMajor(t *testing.T) {
	for _, p := range []Params{{M: 7, N: 13, Seed: 41}, {M: 515, N: 21, Seed: 47}, {M: 384, N: 4096, Seed: 43}} {
		for _, w := range []int{1, 2} {
			withWorkers(t, w, func() {
				d, err := NewDense(p)
				if err != nil {
					t.Fatal(err)
				}
				ref := rowMajor(d)
				x := randVec(3+p.Seed, p.N)
				x[1], x[4], x[5], x[6], x[7] = 0, 0, 0, 0, 0 // one zero quad, one lone zero
				if p.N >= 24 {
					clear(x[16:24]) // a skipped pass
				}
				bitsEqual(t, "Measure", d.Measure(x, nil), ref.MulVec(x, nil))

				rs := []linalg.Vector{randVec(5+p.Seed, p.M), randVec(7+p.Seed, p.M), make(linalg.Vector, p.M)}
				clear(rs[0][:4])
				rs[1][p.M-1] = 0
				dsts := make([]linalg.Vector, len(rs))
				for q, r := range rs {
					bitsEqual(t, "Correlate", d.Correlate(r, nil), ref.MulVecT(r, nil))
					dsts[q] = make(linalg.Vector, p.N)
				}
				d.CorrelateBatch(rs, dsts)
				for q, r := range rs {
					bitsEqual(t, "CorrelateBatch", dsts[q], d.Correlate(r, nil))
				}

				phi0 := make(linalg.Vector, p.M)
				for i := range phi0 {
					s := 0.0
					for _, v := range ref.Row(i) {
						s += v
					}
					phi0[i] = s
				}
				bitsEqual(t, "ExtensionColumn", d.ExtensionColumn(nil), phi0.Scale(1/math.Sqrt(float64(p.N))))

				got, want := randVec(9+p.Seed, p.M), make(linalg.Vector, p.M)
				copy(want, got)
				col := make(linalg.Vector, p.M)
				for k, j := range []int{p.N - 1, 0, p.N / 2, 0} {
					v := float64(k) - 1.5
					d.AddCol(j, v, got)
					want.AddScaled(v, ref.Col(j, col))
				}
				bitsEqual(t, "AddCol", got, want)
			})
		}
	}
}

// TestExtensionColumnCached checks, for all three matrix types, that the
// cached φ₀ (a) is stable across repeated calls, (b) matches a freshly
// built matrix's φ₀ bit-for-bit, and (c) equals (1/√N)·Σⱼφⱼ computed
// column-by-column (up to accumulation tolerance).
func TestExtensionColumnCached(t *testing.T) {
	p := Params{M: 24, N: 300, Seed: 29}
	build := map[string]func() (Matrix, error){
		"Dense":  func() (Matrix, error) { return NewDense(p) },
		"Seeded": func() (Matrix, error) { return NewSeeded(p) },
		"CountSketch": func() (Matrix, error) {
			return NewCountSketch(p, 4)
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			m, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			first := m.ExtensionColumn(nil)
			again := m.ExtensionColumn(nil)
			bitsEqual(t, "repeat call", again, first)
			// Writing into a caller buffer must not expose the cache.
			buf := make(linalg.Vector, p.M)
			m.ExtensionColumn(buf)
			buf.Fill(123)
			bitsEqual(t, "cache isolation", m.ExtensionColumn(nil), first)

			fresh, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, "fresh matrix", fresh.ExtensionColumn(nil), first)

			// Ground truth from the Col accessor.
			want := make(linalg.Vector, p.M)
			col := make(linalg.Vector, p.M)
			for j := 0; j < p.N; j++ {
				want.Add(m.Col(j, col))
			}
			want.Scale(1 / math.Sqrt(float64(p.N)))
			if !first.Equal(want, 1e-10) {
				t.Fatalf("cached φ₀ deviates from column sum: %v vs %v", first[:3], want[:3])
			}
		})
	}
}

// TestDenseMeasureSparseScatterPath checks MeasureSparse against Measure
// on an input dense enough to have taken the scatter path this kernel
// had while Φ was row-major (more than N/4 indices), and on a sparse one.
// Both are now one AddCol per pair, so only a tolerance holds between
// them and Measure's reassociated sums.
func TestDenseMeasureSparseScatterPath(t *testing.T) {
	p := Params{M: 16, N: 200, Seed: 31}
	d, err := NewDense(p)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 100)
	vals := make([]float64, 100)
	x := make(linalg.Vector, p.N)
	rng := xrand.New(37)
	for k := range idx {
		idx[k] = rng.Intn(p.N)
		vals[k] = rng.NormFloat64()
		x[idx[k]] += vals[k]
	}
	got := d.MeasureSparse(idx, vals, nil)
	want := d.Measure(x, nil)
	if !got.Equal(want, 1e-9) {
		t.Fatalf("dense-input MeasureSparse deviates from Measure: %v vs %v", got[:3], want[:3])
	}
	// And the sparse path (few indices) agrees too.
	got2 := d.MeasureSparse(idx[:8], vals[:8], nil)
	x2 := make(linalg.Vector, p.N)
	for k := 0; k < 8; k++ {
		x2[idx[k]] += vals[k]
	}
	want2 := d.Measure(x2, nil)
	if !got2.Equal(want2, 1e-9) {
		t.Fatalf("sparse MeasureSparse deviates from Measure")
	}
}
