package experiments

import (
	"math"
	"sort"

	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
)

// Fig1 reproduces the paper's motivating Figure 1 as numbers: local
// views of a distributed click-score aggregate are useless — each data
// center's top local outliers barely intersect the global ones, and the
// absolute-top-k keys are not the k-outliers (Figure 1(b)'s "Top K vs
// Absolute value top K vs Outlier K" distinction).
//
// The emitted table reports, per data center, the overlap between its
// local top-k outliers and the global truth; the final rows compare the
// global key sets chosen by the three ranking rules.
func Fig1(cfg Config) ([]*Table, error) {
	cl := prodCluster(cfg, workload.CoreSearchClicks)
	const k = 10
	truth := cl.TrueTopOutliers(k)
	truthSet := map[int]bool{}
	for _, kv := range truth {
		truthSet[kv.Index] = true
	}

	// Per-DC local top-k overlap with the global truth.
	dcs := len(cl.Slices)
	xs := make([]float64, dcs)
	overlap := make([]float64, dcs)
	localMode := make([]float64, dcs)
	for dc := 0; dc < dcs; dc++ {
		xs[dc] = float64(dc)
		// A local analyst would rank around the local median (no exact
		// local mode exists — that is the point).
		med := medianOf(cl.Slices[dc])
		hits := 0
		for _, kv := range outlier.TopK(cl.Slices[dc], med, k) {
			if truthSet[kv.Index] {
				hits++
			}
		}
		overlap[dc] = float64(hits) / float64(k)
		localMode[dc] = med
	}
	t1 := &Table{
		Title:  "Figure 1: local views vs global truth (overlap of local top-" + itoa(k) + " outliers with global top-" + itoa(k) + ")",
		XLabel: "data-center",
		YLabel: "fraction / value",
		X:      xs,
	}
	if err := t1.AddSeries("overlap-with-global", overlap); err != nil {
		return nil, err
	}
	if err := t1.AddSeries("local-median", localMode); err != nil {
		return nil, err
	}

	// Figure 1(b): the three ranking rules disagree on the global data.
	rules := []struct {
		name string
		pick func() []outlier.KV
	}{
		{"outlier-k (|v−b|)", func() []outlier.KV { return outlier.TopK(cl.Global, cl.Mode, k) }},
		{"top-k (largest v)", func() []outlier.KV { return topByValue(cl.Global, k, false) }},
		{"absolute top-k (|v|)", func() []outlier.KV { return topByValue(cl.Global, k, true) }},
	}
	x2 := make([]float64, len(rules))
	agree := make([]float64, len(rules))
	for i, r := range rules {
		x2[i] = float64(i)
		hits := 0
		for _, kv := range r.pick() {
			if truthSet[kv.Index] {
				hits++
			}
		}
		agree[i] = float64(hits) / float64(k)
	}
	t2 := &Table{
		Title:  "Figure 1(b): ranking-rule agreement with the true outlier set (0=outlier-k, 1=top-k, 2=absolute top-k)",
		XLabel: "rule",
		YLabel: "fraction of true outliers found",
		X:      x2,
	}
	if err := t2.AddSeries("agreement", agree); err != nil {
		return nil, err
	}
	return []*Table{t1, t2}, nil
}

func medianOf(x linalg.Vector) float64 {
	c := x.Clone()
	sort.Float64s(c)
	return c[len(c)/2]
}

func topByValue(x linalg.Vector, k int, abs bool) []outlier.KV {
	kvs := make([]outlier.KV, len(x))
	for i, v := range x {
		kvs[i] = outlier.KV{Index: i, Value: v}
	}
	sort.Slice(kvs, func(a, b int) bool {
		va, vb := kvs[a].Value, kvs[b].Value
		if abs {
			va, vb = math.Abs(va), math.Abs(vb)
		}
		if va != vb {
			return va > vb
		}
		return kvs[a].Index < kvs[b].Index
	})
	return kvs[:k]
}

// Jitter is an extension experiment probing the paper's §2.1 caveat:
// real data only *concentrates around* the mode. It sweeps the bulk
// jitter (as a fraction of the mode) and reports BOMP's EK/EV for the
// top-k query plus the mode-estimate error, at fixed M.
func Jitter(cfg Config) ([]*Table, error) {
	const (
		n    = 800
		s    = 20
		k    = 5
		mode = 1800.0
		m    = 260
	)
	trials := cfg.trials(scaleInt(40, cfg.scale(), 3))
	fractions := []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}
	xs := append([]float64(nil), fractions...)
	ek := make([]float64, len(fractions))
	ev := make([]float64, len(fractions))
	modeErr := make([]float64, len(fractions))
	ws := recovery.NewWorkspace()
	for fi, frac := range fractions {
		var sumEK, sumEV, sumME float64
		for trial := 0; trial < trials; trial++ {
			seed := cfg.Seed + uint64(fi*1000+trial)
			x, _ := workload.NearMajorityDominated(n, s, mode, frac*mode, mode, 8*mode, seed)
			truth := outlier.TopK(x, mode, k)
			mat, err := sensing.NewDense(sensing.Params{M: m, N: n, Seed: seed ^ 0x55})
			if err != nil {
				return nil, err
			}
			// Budget covers the full support plus jitter slack: this
			// experiment isolates the effect of jitter, not of R.
			res, err := ws.BOMP(mat, mat.Measure(x, nil), recovery.Options{
				MaxIterations: s + 15,
			})
			if err != nil {
				return nil, err
			}
			est := res.Outliers(k)
			sumEK += outlier.ErrorOnKey(truth, est)
			sumEV += outlier.ErrorOnValue(truth, est)
			sumME += math.Abs(res.Mode-mode) / mode
		}
		ek[fi] = sumEK / float64(trials)
		ev[fi] = sumEV / float64(trials)
		modeErr[fi] = sumME / float64(trials)
	}
	t := &Table{
		Title:  "Extension: BOMP robustness to concentration jitter (bulk = mode ± jitter, N=800, s=20, M=260, k=5)",
		XLabel: "jitter/mode",
		YLabel: "avg error",
		X:      xs,
	}
	for _, sr := range []struct {
		name string
		y    []float64
	}{{"EK", ek}, {"EV", ev}, {"mode-rel-err", modeErr}} {
		if err := t.AddSeries(sr.name, sr.y); err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}
