package experiments

import (
	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// Algos is an extension experiment beyond the paper's figures: it
// compares BOMP with plain OMP on the paper's core problem — k-outlier
// detection on majority-dominated data with an unknown non-zero mode —
// as the measurement budget grows.
//
// Bias-aware BOMP converges to EK = 0; sparse-at-zero OMP stays wrong at
// any M because the data simply is not sparse at zero — which is exactly
// the gap the paper's §3.2 identifies ("all existing compressive sensing
// recovery algorithms are not applicable to this non-sparse data").
func Algos(cfg Config) ([]*Table, error) {
	const (
		n    = 400
		s    = 10
		k    = 5
		mode = 500.0
	)
	trials := cfg.trials(scaleInt(50, cfg.scale(), 3))
	var ms []float64
	for m := 40; m <= 200; m += 20 {
		ms = append(ms, float64(m))
	}
	t := &Table{
		Title:  "Extension: recovery algorithms on biased data (N=400, s=10, unknown mode 500), avg EK for k=5",
		XLabel: "M",
		YLabel: "EK (avg over trials)",
		X:      ms,
	}
	type algo struct {
		name string
		run  func(mat sensing.Matrix, y linalg.Vector) (*recovery.Result, error)
	}
	algos := []algo{
		{"BOMP", func(mat sensing.Matrix, y linalg.Vector) (*recovery.Result, error) {
			return recovery.BOMP(mat, y, recovery.Options{MaxIterations: s + 1})
		}},
		{"OMP(no-bias)", func(mat sensing.Matrix, y linalg.Vector) (*recovery.Result, error) {
			return recovery.OMP(mat, y, recovery.Options{MaxIterations: s + 1})
		}},
	}
	rng := xrand.New(cfg.Seed + 0xa190)
	results := make([][]float64, len(algos))
	for i := range results {
		results[i] = make([]float64, len(ms))
	}
	for mi, mf := range ms {
		m := int(mf)
		sums := make([]float64, len(algos))
		for trial := 0; trial < trials; trial++ {
			seed := rng.Uint64()
			x, _ := workload.MajorityDominated(n, s, mode, 200, 2000, seed)
			truth := outlier.TopK(x, mode, k)
			mat, err := sensing.NewDense(sensing.Params{M: m, N: n, Seed: seed ^ 0x77})
			if err != nil {
				return nil, err
			}
			y := mat.Measure(x, nil)
			for ai, a := range algos {
				res, err := a.run(mat, y)
				if err != nil {
					return nil, err
				}
				est := make([]outlier.KV, len(res.Support))
				for i, j := range res.Support {
					est[i] = outlier.KV{Index: j, Value: res.X[j]}
				}
				sums[ai] += outlier.ErrorOnKey(truth, outlier.TopKOf(est, res.Mode, k))
			}
		}
		for ai := range algos {
			results[ai][mi] = sums[ai] / float64(trials)
		}
	}
	for ai, a := range algos {
		if err := t.AddSeries(a.name, results[ai]); err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}
