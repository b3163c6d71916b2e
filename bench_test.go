package csoutlier

// The ablation benches DESIGN.md §4 calls out, and micro-benchmarks of
// the public API. The paper's figures are not benchmarks: their one
// record is internal/experiments' golden, which `go test` diffs.

import (
	"strconv"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// --- Ablation benches (DESIGN.md §4) ---

func ablationInstance(b *testing.B, n, m, s int) (*sensing.Dense, linalg.Vector) {
	b.Helper()
	d, err := sensing.NewDense(sensing.Params{M: m, N: n, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	x, _ := workload.MajorityDominated(n, s, 0, 1, 10, 6)
	return d, d.Measure(x, nil)
}

// BOMP on a biased instance (N=800, M=250, s=30).
func biasedInstance(b *testing.B) (*sensing.Dense, linalg.Vector, int) {
	b.Helper()
	const n, m, s = 800, 250, 30
	d, err := sensing.NewDense(sensing.Params{M: m, N: n, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	x, _ := workload.MajorityDominated(n, s, 1800, 300, 3000, 10)
	return d, d.Measure(x, nil), s
}

func BenchmarkRecoveryBOMP(b *testing.B) {
	d, y, s := biasedInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recovery.BOMP(d, y, recovery.Options{MaxIterations: s + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Dense vs Seeded measurement: memory/time trade at large N.
func BenchmarkAblationDenseMeasure(b *testing.B) {
	p := sensing.Params{M: 100, N: 50000, Seed: 7}
	d, err := sensing.NewDense(p)
	if err != nil {
		b.Fatal(err)
	}
	idx, vals := sparseInput(p.N, 2000)
	dst := make(linalg.Vector, p.M)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.MeasureSparse(idx, vals, dst)
	}
}

func BenchmarkAblationSeededMeasure(b *testing.B) {
	p := sensing.Params{M: 100, N: 50000, Seed: 7}
	s, err := sensing.NewSeeded(p)
	if err != nil {
		b.Fatal(err)
	}
	idx, vals := sparseInput(p.N, 2000)
	dst := make(linalg.Vector, p.M)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MeasureSparse(idx, vals, dst)
	}
}

func sparseInput(n, nnz int) ([]int, []float64) {
	r := xrand.New(8)
	idx := make([]int, nnz)
	vals := make([]float64, nnz)
	for i := range idx {
		idx[i] = r.Intn(n)
		vals[i] = r.NormFloat64()
	}
	return idx, vals
}

// Gaussian recovery at a production-like size: the correlation step is
// the recovery bottleneck the paper's GPU future work targets.
func BenchmarkAblationGaussianBOMP(b *testing.B) {
	p := sensing.Params{M: 600, N: 10000, Seed: 11}
	d, err := sensing.NewDense(p)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := workload.MajorityDominated(p.N, 100, 1800, 300, 5000, 12)
	y := d.Measure(x, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recovery.BOMP(d, y, recovery.Options{MaxIterations: 101}); err != nil {
			b.Fatal(err)
		}
	}
}

// Column-parallel correlation — the GPU-acceleration stand-in (§5); run
// with -cpu 1,N for the serial side of the ablation.
func BenchmarkAblationParallelCorrelate(b *testing.B) {
	d, y := ablationInstance(b, 20000, 400, 50)
	dst := make(linalg.Vector, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Correlate(y, dst)
	}
}

// End-to-end public-API pipeline bench: sketch L nodes + detect.
func BenchmarkPublicAPIPipeline(b *testing.B) {
	keys := make([]string, 2000)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(100000+i)
	}
	sk, err := NewSketcher(keys, Config{M: 200, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	global, _ := workload.MajorityDominated(2000, 20, 1800, 100, 900, 10)
	slices := workload.SplitZeroSumNoise(global, 8, 3600, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := sk.ZeroSketch()
		for _, sl := range slices {
			y, err := sk.SketchVector(sl)
			if err != nil {
				b.Fatal(err)
			}
			if err := acc.Add(y); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sk.Detect(acc, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdaterObserve is one observation at the ingest_flat shape
// (N=4096, M=256) on either side of the size crossover: logged, when a
// drain comes every 16 observations and the delta ships as pairs; and
// measured, when no drain comes and all but the first ~200 observations
// are folded into the sketch on arrival. countsketch-measured is the
// measured case at standing_tier's shard shape (N=4096, M=448, depth
// 7), where an observation touches depth cells, not M.
func BenchmarkUpdaterObserve(b *testing.B) {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(100000+i)
	}
	gauss, err := NewSketcher(keys, Config{M: 256, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	cs, err := NewSketcher(keys, Config{M: 448, Seed: 9, Ensemble: CountSketch, Depth: 7})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		sk    *Sketcher
		every int
	}{{"logged", gauss, 16}, {"measured", gauss, 0}, {"countsketch-measured", cs, 0}} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, EncodedSketchLen(c.sk.M()))
			u := c.sk.NewUpdater()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := u.Observe(keys[i*257%len(keys)], float64(i+1)); err != nil {
					b.Fatal(err)
				}
				if c.every > 0 && i%c.every == c.every-1 {
					u.DrainEncoded(buf[:0])
				}
			}
		})
	}
}
