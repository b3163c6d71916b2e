package experiments

import (
	"math"

	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// Fig4a reproduces Figure 4(a): probability of exact recovery on
// majority-dominated data (N = 1K, b = 5000) as the measurement size M
// grows, for BOMP and for OMP with the mode known in advance, at
// sparsity s ∈ {50, 100, 200}. Each point repeats with freshly drawn
// measurement matrices; recovery runs min(M, s+1) iterations as in the
// paper.
func Fig4a(cfg Config) ([]*Table, error) {
	sc := cfg.scale()
	n := 1000 // the paper's N = 1K is already laptop-friendly
	// Sparsity and the M sweep shrink together so the phase transition
	// stays inside the plotted window at any scale.
	sparsities := []int{scaleInt(50, sc, 3), scaleInt(100, sc, 6), scaleInt(200, sc, 12)}
	trials := cfg.trials(scaleInt(1000, sc, 10))
	const mode = 5000.0

	var ms []float64
	for step := 1; step <= 10; step++ {
		ms = append(ms, float64(scaleInt(100*step, sc, 10*step)))
	}
	t := &Table{
		Title:  "Figure 4(a): probability of exact recovery, majority-dominated data",
		XLabel: "M",
		YLabel: "P(exact recovery)",
		X:      ms,
	}
	rng := xrand.New(cfg.Seed + 0x4a)
	// One workspace: BOMP and known-mode OMP solve on the same Φ each
	// trial and share the Gram columns they both select.
	ws := recovery.NewWorkspace()
	for _, s := range sparsities {
		bomp := make([]float64, len(ms))
		known := make([]float64, len(ms))
		for mi, mf := range ms {
			m := int(mf)
			okB, okK := 0, 0
			for trial := 0; trial < trials; trial++ {
				seed := rng.Uint64()
				x, support := workload.MajorityDominated(n, s, mode, 500, 5000, seed)
				p := sensing.Params{M: m, N: n, Seed: seed ^ 0x9e37}
				d, err := sensing.NewDense(p)
				if err != nil {
					return nil, err
				}
				y := d.Measure(x, nil)
				iters := s + 1
				if iters > m {
					iters = m
				}
				res, err := ws.BOMP(d, y, recovery.Options{MaxIterations: iters})
				if err != nil {
					return nil, err
				}
				if exactRecovery(res, x, support, mode) {
					okB++
				}
				itersK := s
				if itersK > m {
					itersK = m
				}
				resK, err := ws.KnownModeOMP(d, y, mode, recovery.Options{MaxIterations: itersK})
				if err != nil {
					return nil, err
				}
				if exactRecovery(resK, x, support, mode) {
					okK++
				}
			}
			bomp[mi] = float64(okB) / float64(trials)
			known[mi] = float64(okK) / float64(trials)
		}
		if err := t.AddSeries(seriesName("BOMP s=", s), bomp); err != nil {
			return nil, err
		}
		if err := t.AddSeries(seriesName("OMP+known-mode s=", s), known); err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}

func seriesName(prefix string, s int) string {
	return prefix + itoa(s)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// exactRecovery implements the paper's Figure-4 criterion: EK = EV = 0
// and the number of recovered outliers equals s.
func exactRecovery(res *recovery.Result, x linalg.Vector, support []int, mode float64) bool {
	if len(res.Support) != len(support) {
		return false
	}
	got := make(map[int]bool, len(res.Support))
	for _, j := range res.Support {
		got[j] = true
	}
	for _, j := range support {
		if !got[j] {
			return false
		}
	}
	if math.Abs(res.Mode-mode) > 1e-6*math.Max(1, math.Abs(mode)) {
		return false
	}
	for _, j := range support {
		if math.Abs(res.X[j]-x[j]) > 1e-6*math.Max(1, math.Abs(x[j])) {
			return false
		}
	}
	return true
}

// Fig4b reproduces Figure 4(b): the mode (bias) estimate at every BOMP
// iteration on majority-dominated data, showing it stabilizes at
// iteration ≈ s+1. M is chosen large enough for exact recovery at each
// sparsity, as in the paper.
func Fig4b(cfg Config) ([]*Table, error) {
	sc := cfg.scale()
	n := 1000
	sparsities := []int{scaleInt(50, sc, 3), scaleInt(100, sc, 6), scaleInt(200, sc, 12)}
	const mode = 5000.0
	maxIter := 0
	for _, s := range sparsities {
		if r := int(1.5*float64(s)) + 20; r > maxIter {
			maxIter = r
		}
	}
	var xs []float64
	for i := 1; i <= maxIter; i++ {
		xs = append(xs, float64(i))
	}
	t := &Table{
		Title:  "Figure 4(b): mode (bias) estimate per BOMP iteration",
		XLabel: "iteration",
		YLabel: "mode estimate",
		X:      xs,
	}
	ws := recovery.NewWorkspace()
	for _, s := range sparsities {
		m := 4*s + 100 // comfortably inside the 100%-recovery region
		x, _ := workload.MajorityDominated(n, s, mode, 500, 5000, cfg.Seed+uint64(s))
		p := sensing.Params{M: m, N: n, Seed: cfg.Seed + uint64(s) + 1}
		d, err := sensing.NewDense(p)
		if err != nil {
			return nil, err
		}
		res, err := ws.BOMP(d, d.Measure(x, nil), recovery.Options{
			MaxIterations: maxIter,
			TraceMode:     true,
			ResidualTol:   1e-13,
		})
		if err != nil {
			return nil, err
		}
		trace := make([]float64, maxIter)
		for i := range trace {
			if i < len(res.ModeTrace) {
				trace[i] = res.ModeTrace[i]
			} else if len(res.ModeTrace) > 0 {
				trace[i] = res.ModeTrace[len(res.ModeTrace)-1] // recovered exactly; flat
			}
		}
		if err := t.AddSeries(seriesName("s=", s), trace); err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}

// powerLawTruth defines ground truth on continuous power-law data: the
// density peaks at the Pareto scale (1), so the k-outliers are the k
// values furthest from it — the extreme tail.
func powerLawTruth(x linalg.Vector, k int) []outlier.KV {
	return outlier.TopK(x, 1, k)
}

// fig56 runs the shared sweep behind Figures 5 and 6: BOMP on power-law
// data (α ∈ {0.9, 0.95}), errors vs M for k ∈ {5, 10, 20}, MAX/MIN/AVG
// over repeated random measurement matrices.
func fig56(cfg Config, value bool) ([]*Table, error) {
	sc := cfg.scale()
	n := scaleInt(10000, sc, 500)
	runs := cfg.trials(scaleInt(100, sc, 5))
	alphas := []float64{0.9, 0.95}
	ks := []int{5, 10, 20}

	var ms []float64
	for frac := 0.01; frac <= 0.1001; frac += 0.01 {
		ms = append(ms, math.Round(frac*float64(n)))
	}
	metric := "EK"
	title := "Figure 5"
	if value {
		metric = "EV"
		title = "Figure 6"
	}
	ws := recovery.NewWorkspace()
	var tables []*Table
	for _, k := range ks {
		t := &Table{
			Title:  title + " (k=" + itoa(k) + "): error on " + map[bool]string{false: "key", true: "value"}[value] + ", power-law data",
			XLabel: "M",
			YLabel: metric,
			X:      ms,
		}
		for _, alpha := range alphas {
			x := workload.PowerLaw(n, alpha, cfg.Seed+uint64(alpha*100))
			truth := powerLawTruth(x, k)
			maxE := make([]float64, len(ms))
			minE := make([]float64, len(ms))
			avgE := make([]float64, len(ms))
			for mi, mf := range ms {
				m := int(mf)
				lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
				for run := 0; run < runs; run++ {
					p := sensing.Params{M: m, N: n, Seed: cfg.Seed + uint64(run)*7919 + uint64(m)}
					d, err := sensing.NewDense(p)
					if err != nil {
						return nil, err
					}
					res, err := ws.BOMP(d, d.Measure(x, nil), recovery.Options{
						MaxIterations: recovery.IterationBudget(k),
					})
					if err != nil {
						return nil, err
					}
					est := res.Outliers(k)
					var e float64
					if value {
						e = outlier.ErrorOnValue(truth, est)
					} else {
						e = outlier.ErrorOnKey(truth, est)
					}
					if e < lo {
						lo = e
					}
					if e > hi {
						hi = e
					}
					sum += e
				}
				minE[mi], maxE[mi], avgE[mi] = lo, hi, sum/float64(runs)
			}
			an := "alpha=" + formatNum(alpha)
			if err := t.AddSeries(an+" Max", maxE); err != nil {
				return nil, err
			}
			if err := t.AddSeries(an+" Min", minE); err != nil {
				return nil, err
			}
			if err := t.AddSeries(an+" Avg", avgE); err != nil {
				return nil, err
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig5 reproduces Figure 5(a–c): error on key vs M over power-law data.
func Fig5(cfg Config) ([]*Table, error) { return fig56(cfg, false) }

// Fig6 reproduces Figure 6(a–c): error on value vs M over power-law data.
func Fig6(cfg Config) ([]*Table, error) { return fig56(cfg, true) }
