package sensing

// Kernel benchmarks: one per hot sensing kernel, sized near the paper's
// production query shape (N ≈ 10K keys, M ≈ a few hundred measurements).
// scripts/bench.sh runs the BenchmarkKernel* set with fixed -benchtime
// and -count and records the results in BENCH.json — the repo's perf
// trajectory; compare runs with `scripts/bench.sh -compare`.

import (
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/xrand"
)

const (
	benchM = 256
	benchN = 8192
)

func benchResidual(m int) linalg.Vector {
	r := xrand.New(99)
	v := make(linalg.Vector, m)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func benchSparseInput(n, nnz int) ([]int, []float64) {
	r := xrand.New(77)
	idx := make([]int, nnz)
	vals := make([]float64, nnz)
	for i := range idx {
		idx[i] = r.Intn(n)
		vals[i] = r.NormFloat64()
	}
	return idx, vals
}

// BenchmarkKernelDenseConstruct is NewDense: one column per PRNG
// sub-stream, filled in place and fanned out over column ranges.
func BenchmarkKernelDenseConstruct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewDense(Params{M: benchM, N: benchN, Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelDenseCorrelate(b *testing.B) {
	d, err := NewDense(Params{M: benchM, N: benchN, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	r := benchResidual(benchM)
	dst := make(linalg.Vector, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Correlate(r, dst)
	}
}

func BenchmarkKernelDenseMeasure(b *testing.B) {
	d, err := NewDense(Params{M: benchM, N: benchN, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	x := make(linalg.Vector, benchN)
	rng := xrand.New(5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make(linalg.Vector, benchM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Measure(x, dst)
	}
}

func BenchmarkKernelDenseMeasureSparse(b *testing.B) {
	d, err := NewDense(Params{M: benchM, N: benchN, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	idx, vals := benchSparseInput(benchN, benchN/8) // dense-ish: 1,024 AddCol calls
	dst := make(linalg.Vector, benchM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.MeasureSparse(idx, vals, dst)
	}
}

func BenchmarkKernelSeededCorrelate(b *testing.B) {
	s, err := NewSeeded(Params{M: benchM, N: benchN, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	r := benchResidual(benchM)
	dst := make(linalg.Vector, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Correlate(r, dst)
	}
}

func BenchmarkKernelSeededMeasureSparse(b *testing.B) {
	s, err := NewSeeded(Params{M: benchM, N: benchN, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	idx, vals := benchSparseInput(benchN, 1024)
	dst := make(linalg.Vector, benchM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MeasureSparse(idx, vals, dst)
	}
}

func BenchmarkKernelSeededExtensionColumn(b *testing.B) {
	s, err := NewSeeded(Params{M: benchM, N: benchN, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	dst := make(linalg.Vector, benchM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ExtensionColumn(dst)
	}
}

func BenchmarkKernelCountSketchCorrelate(b *testing.B) {
	c, err := NewCountSketch(Params{M: benchM, N: benchN, Seed: 3}, DefaultCountSketchDepth)
	if err != nil {
		b.Fatal(err)
	}
	r := benchResidual(benchM)
	dst := make(linalg.Vector, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Correlate(r, dst)
	}
}

// benchAddCols16 is the ingest cell: one 16-observation pairs frame
// measured from zero, as the push path's first hop does it.
func benchAddCols16(b *testing.B, m Matrix) {
	idx, vals := benchSparseInput(benchN, 16)
	y := make(linalg.Vector, benchM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(y)
		for k, j := range idx {
			m.AddCol(j, vals[k], y)
		}
	}
}

func BenchmarkKernelDenseAddCols16(b *testing.B) {
	d, err := NewDense(Params{M: benchM, N: benchN, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	benchAddCols16(b, d)
}

func BenchmarkKernelCountSketchAddCols16(b *testing.B) {
	c, err := NewCountSketch(Params{M: benchM, N: benchN, Seed: 3}, DefaultCountSketchDepth)
	if err != nil {
		b.Fatal(err)
	}
	benchAddCols16(b, c)
}
