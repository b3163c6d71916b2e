package experiments

import (
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// PointQ is an extension experiment for the recovery-free point-query
// path: the bias-aware count-sketch estimators (mode + per-key point
// estimate) on the paper's majority-dominated workload, swept over M.
// It measures what the streaming fast path trades: per-key accuracy
// (outlier recall at a fixed threshold, false positives on clean keys,
// relative value error on the hits) against sketch size. A query costs
// depth hashed reads whatever M, N or k is; the benchmark times it
// (csoutlier.point_query_ns).
func PointQ(cfg Config) ([]*Table, error) {
	const (
		n      = 2000
		s      = 12
		depth  = 7
		mode   = 1800.0
		minMag = 400.0
		maxMag = 4000.0
	)
	trials := cfg.trials(scaleInt(40, cfg.scale(), 3))
	var ms []float64
	for m := 112; m <= 896; m *= 2 {
		ms = append(ms, float64(m)) // depth 7: widths 16, 32, 64, 128
	}
	t := &Table{
		Title:  "Extension: recovery-free point queries, count-sketch depth 7 (N=2000, s=12, threshold=minMag/2)",
		XLabel: "M",
		YLabel: "per-M point-query quality and cost",
		X:      ms,
	}
	const threshold = minMag / 2
	recall := make([]float64, len(ms))
	falsePos := make([]float64, len(ms))
	valErr := make([]float64, len(ms))
	kb := make([]float64, len(ms))
	rng := xrand.New(cfg.Seed + 0x1f)
	for mi, mf := range ms {
		m := int(mf)
		kb[mi] = float64(8*m) / 1024
		var hits, planted, fps, clean int
		var errSum float64
		var errCnt int
		for trial := 0; trial < trials; trial++ {
			seed := rng.Uint64()
			x, support := workload.MajorityDominated(n, s, mode, minMag, maxMag, seed)
			cs, err := sensing.NewCountSketch(sensing.Params{M: m, N: n, Seed: seed}, depth)
			if err != nil {
				return nil, err
			}
			y := cs.Measure(x, nil)
			est := cs.EstimateMode(y, nil)
			hot := make(map[int]bool, s)
			for _, j := range support {
				hot[j] = true
			}
			for j := 0; j < n; j++ {
				v := cs.PointEstimate(y, j, est)
				dev := v - est
				if dev < 0 {
					dev = -dev
				}
				if hot[j] {
					planted++
					if dev >= threshold {
						hits++
						e := (v - x[j]) / x[j]
						if e < 0 {
							e = -e
						}
						errSum += e
						errCnt++
					}
				} else {
					clean++
					if dev >= threshold {
						fps++
					}
				}
			}
		}
		recall[mi] = float64(hits) / float64(planted)
		falsePos[mi] = float64(fps) / float64(clean)
		if errCnt > 0 {
			valErr[mi] = errSum / float64(errCnt)
		}
	}
	for _, sr := range []struct {
		name string
		y    []float64
	}{
		{"outlier recall", recall},
		{"clean false-pos rate", falsePos},
		{"rel value err on hits", valErr},
		{"sketch KiB", kb},
	} {
		if err := t.AddSeries(sr.name, sr.y); err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}
