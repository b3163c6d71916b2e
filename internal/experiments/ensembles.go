package experiments

import (
	"csoutlier/internal/outlier"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// Ensembles is an extension experiment comparing the two measurement
// ensembles (Gaussian, count-sketch at the default depth 5) on the
// paper's core task at equal M — quantifying what the count-sketch gives
// up in recovery quality for its O(depth) ingest and its point queries.
func Ensembles(cfg Config) ([]*Table, error) {
	const (
		n    = 600
		s    = 12
		k    = 5
		mode = 1800.0
	)
	trials := cfg.trials(scaleInt(40, cfg.scale(), 3))
	var ms []float64
	for m := 40; m <= 240; m += 25 {
		ms = append(ms, float64(m))
	}
	specs := []struct {
		name string
		make func(p sensing.Params) (sensing.Matrix, error)
	}{
		{"Gaussian", func(p sensing.Params) (sensing.Matrix, error) { return sensing.NewDense(p) }},
		{"CountSketch d=5", func(p sensing.Params) (sensing.Matrix, error) {
			return sensing.NewCountSketch(p, sensing.DefaultCountSketchDepth)
		}},
	}
	t := &Table{
		Title:  "Extension: measurement ensembles on biased data (N=600, s=12, k=5), avg EK",
		XLabel: "M",
		YLabel: "EK (avg over trials)",
		X:      ms,
	}
	rng := xrand.New(cfg.Seed + 0xe5)
	results := make([][]float64, len(specs))
	for i := range results {
		results[i] = make([]float64, len(ms))
	}
	for mi, mf := range ms {
		m := int(mf)
		sums := make([]float64, len(specs))
		for trial := 0; trial < trials; trial++ {
			seed := rng.Uint64()
			x, _ := workload.MajorityDominated(n, s, mode, 400, 4000, seed)
			truth := outlier.TopK(x, mode, k)
			for si, spec := range specs {
				mat, err := spec.make(sensing.Params{M: m, N: n, Seed: seed ^ uint64(si*131)})
				if err != nil {
					return nil, err
				}
				res, err := recovery.BOMP(mat, mat.Measure(x, nil), recovery.Options{
					MaxIterations: recovery.IterationBudget(k),
				})
				if err != nil {
					sums[si]++
					continue
				}
				sums[si] += outlier.ErrorOnKey(truth, estimateOutliers(res, k))
			}
		}
		for si := range specs {
			results[si][mi] = sums[si] / float64(trials)
		}
	}
	for si, spec := range specs {
		if err := t.AddSeries(spec.name, results[si]); err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}
