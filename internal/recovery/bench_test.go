package recovery

// End-to-end recovery benchmarks for the perf trajectory (BENCH.json,
// via scripts/bench.sh). The Seeded instance is the one that matters
// for scaling: real mappers agree on Φ₀ by consensus seed and the
// aggregator regenerates columns during recovery, so its correlate
// kernel dominates the standing-query cost.

import (
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
)

func benchInstance(b *testing.B, mk func(sensing.Params) (sensing.Matrix, error), m, n, s int) (sensing.Matrix, linalg.Vector, int) {
	b.Helper()
	mat, err := mk(sensing.Params{M: m, N: n, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	x, _ := workload.MajorityDominated(n, s, 1800, 300, 3000, 10)
	return mat, mat.Measure(x, nil), s
}

func BenchmarkRecoveryBOMPDense(b *testing.B) {
	mat, y, s := benchInstance(b, func(p sensing.Params) (sensing.Matrix, error) {
		return sensing.NewDense(p)
	}, 256, 2000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BOMP(mat, y, Options{MaxIterations: 3*s + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoveryBOMPSeeded(b *testing.B) {
	mat, y, s := benchInstance(b, func(p sensing.Params) (sensing.Matrix, error) {
		return sensing.NewSeeded(p)
	}, 128, 1000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BOMP(mat, y, Options{MaxIterations: 3*s + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoveryKnownModeOMPSeeded(b *testing.B) {
	mat, y, s := benchInstance(b, func(p sensing.Params) (sensing.Matrix, error) {
		return sensing.NewSeeded(p)
	}, 128, 1000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KnownModeOMP(mat, y, 1800, Options{MaxIterations: 3 * s}); err != nil {
			b.Fatal(err)
		}
	}
}

// batchBenchSetup builds the batched-recovery scenario: 8 standing span
// queries over the Seeded ensemble (128×1000, the scaling instance), each
// with the exact warm hint its previous-generation solve would have
// produced — the steady state of a standing query whose data drifts
// slowly enough that the selection order survives between folds.
func batchBenchSetup(b *testing.B) (sensing.Matrix, []*Workspace, []BatchItem) {
	b.Helper()
	mat, err := sensing.NewSeeded(sensing.Params{M: 128, N: 1000, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	const nq = 8
	wss := make([]*Workspace, nq)
	items := make([]BatchItem, nq)
	for i := range items {
		s := 6 + i%5
		x, _ := workload.MajorityDominated(1000, s, 1800+50*float64(i), 300, 3000, uint64(10+i))
		y := mat.Measure(x, nil)
		opt := Options{MaxIterations: 3*s + 1}
		prev, err := NewWorkspace().BOMP(mat, y, opt)
		if err != nil {
			b.Fatal(err)
		}
		wss[i] = NewWorkspace()
		items[i] = BatchItem{
			Y:    y,
			Warm: append([]int(nil), prev.Selection...),
			Opt:  opt,
		}
	}
	return mat, wss, items
}

// BenchmarkBatchedRecoveryCold8 is the baseline the batch engine is
// measured against: the same 8 standing queries served the pre-batch
// way, one independent BOMP per query on a throwaway workspace, so
// every Gram column is a miss.
func BenchmarkBatchedRecoveryCold8(b *testing.B) {
	mat, _, items := batchBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := range items {
			if _, err := BOMP(mat, items[q].Y, items[q].Opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBatchedRecoveryWarm8 serves the same 8 queries through
// BOMPBatch with warm hints — one block correlation for the 8 c₀s, every
// Gram column already in the workspaces' caches. BENCH.json pins this at
// ≥2× below Cold8; the results are bit-identical
// (TestBOMPBatchBitIdentical).
func BenchmarkBatchedRecoveryWarm8(b *testing.B) {
	mat, wss, items := batchBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BOMPBatch(mat, wss, items); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmStartBOMP is the single-query warm path: one standing
// query re-solved with its own previous Selection as the hint.
func BenchmarkWarmStartBOMP(b *testing.B) {
	mat, y, s := benchInstance(b, func(p sensing.Params) (sensing.Matrix, error) {
		return sensing.NewSeeded(p)
	}, 128, 1000, 10)
	opt := Options{MaxIterations: 3*s + 1}
	prev, err := NewWorkspace().BOMP(mat, y, opt)
	if err != nil {
		b.Fatal(err)
	}
	warm := append([]int(nil), prev.Selection...)
	ws := NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.BOMPWarm(mat, y, warm, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// gramBenchInstances are the two shapes the Gram-form benchmarks run on:
// the end-to-end benchmark's query_cold geometry (stored Gaussian, k=15)
// and the regenerating scaling instance of the benchmarks above.
var gramBenchInstances = []struct {
	name    string
	mk      func(sensing.Params) (sensing.Matrix, error)
	m, n, s int
}{
	{"Dense384x4096", func(p sensing.Params) (sensing.Matrix, error) { return sensing.NewDense(p) }, 384, 4096, 15},
	{"Seeded128x1000", func(p sensing.Params) (sensing.Matrix, error) { return sensing.NewSeeded(p) }, 128, 1000, 10},
}

// BenchmarkRecoveryBOMPGramHit is a query whose every Gram column is in
// the cache (a standing query's steady state): one correlate for c₀,
// then O(t·N) per iteration.
func BenchmarkRecoveryBOMPGramHit(b *testing.B) {
	for _, in := range gramBenchInstances {
		b.Run(in.name, func(b *testing.B) {
			mat, y, s := benchInstance(b, in.mk, in.m, in.n, in.s)
			opt := Options{MaxIterations: 3*s + 1}
			ws := NewGramCache(mat).NewWorkspace()
			if _, err := ws.BOMP(mat, y, opt); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.BOMP(mat, y, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryBOMPGramMiss is the same query on a throwaway
// workspace: every column it selects is a miss — one correlate each, as
// the residual form paid — plus the combination and the cache's columns
// allocated on top. The stated cost of a one-shot solve.
func BenchmarkRecoveryBOMPGramMiss(b *testing.B) {
	for _, in := range gramBenchInstances {
		b.Run(in.name, func(b *testing.B) {
			mat, y, s := benchInstance(b, in.mk, in.m, in.n, in.s)
			opt := Options{MaxIterations: 3*s + 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BOMP(mat, y, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryBOMPDenseWorkspace is BOMPDense through a reused
// Workspace — the standing-query steady state (0 allocs/op).
func BenchmarkRecoveryBOMPDenseWorkspace(b *testing.B) {
	mat, y, s := benchInstance(b, func(p sensing.Params) (sensing.Matrix, error) {
		return sensing.NewDense(p)
	}, 256, 2000, 20)
	ws := NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.BOMP(mat, y, Options{MaxIterations: 3*s + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryBOMPSeededWorkspace is BOMPSeeded through a reused
// Workspace.
func BenchmarkRecoveryBOMPSeededWorkspace(b *testing.B) {
	mat, y, s := benchInstance(b, func(p sensing.Params) (sensing.Matrix, error) {
		return sensing.NewSeeded(p)
	}, 128, 1000, 10)
	ws := NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.BOMP(mat, y, Options{MaxIterations: 3*s + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver measures BOMP, with the 3s+1 iteration budget Detect
// derives from k, on a small-s cell and two large-s cells with
// measurement headroom.
func BenchmarkSolver(b *testing.B) {
	for _, cell := range []struct {
		name    string
		m, n, s int
	}{
		{"s12_m160_n800", 160, 800, 12},
		{"s64_m512_n2000", 512, 2000, 64},
		{"s128_m1024_n4000", 1024, 4000, 128},
	} {
		mat, y, s := benchInstance(b, func(p sensing.Params) (sensing.Matrix, error) {
			return sensing.NewDense(p)
		}, cell.m, cell.n, cell.s)
		b.Run(cell.name+"/bomp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BOMP(mat, y, Options{MaxIterations: 3*s + 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
