package experiments

import (
	"context"
	"math"

	"csoutlier/internal/baseline"
	"csoutlier/internal/cluster"
	"csoutlier/internal/outlier"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
)

// prodCluster builds the production-like distributed workload once per
// experiment: the core-search click-score query over 8 data centers
// (§6.1.2), at the configured scale.
func prodCluster(cfg Config, q workload.QueryType) (*workload.ClickLogs, []cluster.NodeAPI) {
	cl := workload.GenerateClickLogs(workload.ClickLogConfig{
		Query:       q,
		DataCenters: 8,
		ScaleN:      cfg.scale(),
		Seed:        cfg.Seed + uint64(q) + 101,
	})
	nodes := make([]cluster.NodeAPI, len(cl.Slices))
	for i, s := range cl.Slices {
		nodes[i] = cluster.NewLocalNode("dc"+itoa(i), s)
	}
	return cl, nodes
}

// fig78 runs the shared sweep behind Figures 7 and 8: on production-like
// click data, error (on key or value) versus communication cost
// normalized by transmitting ALL, comparing BOMP (MAX/MIN/AVG over
// random matrices) against the K+δ baseline at the same budget.
func fig78(cfg Config, value bool) ([]*Table, error) {
	cl, nodes := prodCluster(cfg, workload.CoreSearchClicks)
	n := len(cl.Global)
	l := len(nodes)
	runs := cfg.trials(scaleInt(100, cfg.scale(), 5))
	ks := []int{5, 10, 20}
	allBytes := baseline.AllCostBytes(l, n)

	metric, title := "EK", "Figure 7"
	if value {
		metric, title = "EV", "Figure 8"
	}
	var tables []*Table
	for _, k := range ks {
		// Paper sweeps 1%–10% (to 15% for k=20).
		maxFrac := 0.10
		if k == 20 {
			maxFrac = 0.15
		}
		var fracs []float64
		for f := 0.01; f <= maxFrac+1e-9; f += 0.01 {
			fracs = append(fracs, f)
		}
		t := &Table{
			Title:  title + " (k=" + itoa(k) + "): error on " + map[bool]string{false: "key", true: "value"}[value] + " vs normalized communication, production data",
			XLabel: "cost/ALL",
			YLabel: metric,
			X:      fracs,
		}
		truth := cl.TrueTopOutliers(k)
		var kdE, maxE, minE, avgE []float64
		for _, frac := range fracs {
			budget := int64(frac * float64(allBytes))
			// --- K+δ at this budget. ---
			kcfg := baseline.KDeltaForBudget(budget, l, k, n, cfg.Seed+uint64(frac*1000))
			kres, err := baseline.KDelta(context.Background(), nodes, kcfg)
			if err != nil {
				return nil, err
			}
			kdE = append(kdE, errOf(truth, kres.Outliers, value))

			// --- BOMP: M chosen so L·M·8 = budget → M = frac·N. ---
			m := int(math.Round(frac * float64(n)))
			if m < 4 {
				m = 4
			}
			lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
			for run := 0; run < runs; run++ {
				p := sensing.Params{M: m, N: n, Seed: cfg.Seed + uint64(run)*104729 + uint64(m)}
				res, err := cluster.Detect(nodes, p, k, recovery.Options{})
				if err != nil {
					return nil, err
				}
				e := errOf(truth, res.Outliers, value)
				if e < lo {
					lo = e
				}
				if e > hi {
					hi = e
				}
				sum += e
			}
			minE = append(minE, lo)
			maxE = append(maxE, hi)
			avgE = append(avgE, sum/float64(runs))
		}
		for _, s := range []struct {
			name string
			y    []float64
		}{
			{"K+delta", kdE}, {"BOMP Avg", avgE}, {"BOMP Max", maxE}, {"BOMP Min", minE},
		} {
			if err := t.AddSeries(s.name, s.y); err != nil {
				return nil, err
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func errOf(truth, est []outlier.KV, value bool) float64 {
	if value {
		return outlier.ErrorOnValue(truth, est)
	}
	return outlier.ErrorOnKey(truth, est)
}

// Fig7 reproduces Figure 7(a–c): error on key vs normalized
// communication cost on production data, BOMP vs K+δ.
func Fig7(cfg Config) ([]*Table, error) { return fig78(cfg, false) }

// Fig8 reproduces Figure 8(a–c): error on value vs normalized
// communication cost on production data, BOMP vs K+δ.
func Fig8(cfg Config) ([]*Table, error) { return fig78(cfg, true) }

// Fig9 reproduces Figure 9(a–c): the mode estimate at every recovery
// iteration on the three production score data sets; the iteration
// where the mode stabilizes reveals each data set's sparsity
// (paper: s ≈ 300 / 650 / 610 at M = 500 / 800 / 800).
func Fig9(cfg Config) ([]*Table, error) {
	queries := []workload.QueryType{
		workload.CoreSearchClicks, workload.AdsClicks, workload.AnswerClicks,
	}
	var tables []*Table
	for _, q := range queries {
		cl, nodes := prodCluster(cfg, q)
		n := len(cl.Global)
		// The paper traces well past the stabilization point: run ~1.5·s
		// iterations (plus slack for small scaled s) with M comfortably
		// above that.
		iters := cl.S + cl.S/2 + 25
		m := 3*cl.S + 60
		if m > n {
			m = n
		}
		if iters > m {
			iters = m
		}
		p := sensing.Params{M: m, N: n, Seed: cfg.Seed + uint64(q)*31 + 7}
		y, _, err := cluster.CollectSketches(nodes, sensing.GaussianSpec(p))
		if err != nil {
			return nil, err
		}
		d, err := sensing.NewDense(p)
		if err != nil {
			return nil, err
		}
		res, err := recovery.BOMP(d, y, recovery.Options{
			MaxIterations: iters,
			TraceMode:     true,
			ResidualTol:   1e-13,
		})
		if err != nil {
			return nil, err
		}
		// Pad the trace to the full window when recovery converged early
		// (exact recovery zeroes the residual before the budget): the
		// paper's plots show the flat post-stabilization tail.
		xs := make([]float64, iters)
		trace := make([]float64, iters)
		for i := range xs {
			xs[i] = float64(i + 1)
			switch {
			case i < len(res.ModeTrace):
				trace[i] = res.ModeTrace[i]
			case len(res.ModeTrace) > 0:
				trace[i] = res.ModeTrace[len(res.ModeTrace)-1]
			}
		}
		t := &Table{
			Title:  "Figure 9 (" + q.String() + " click score): mode per recovery iteration (planted s=" + itoa(cl.S) + ", M=" + itoa(m) + ")",
			XLabel: "iteration",
			YLabel: "mode estimate",
			X:      xs,
		}
		if err := t.AddSeries("mode", trace); err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}
