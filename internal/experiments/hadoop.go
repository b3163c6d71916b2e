package experiments

import (
	"fmt"
	"sync"

	"csoutlier/internal/keydict"
	"csoutlier/internal/linalg"
	"csoutlier/internal/mapreduce"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// mrDataset is one of the three input configurations of §6.2.
type mrDataset struct {
	name   string
	dict   *keydict.Dictionary
	splits []mapreduce.Split
}

// buildMRDataset turns a global vector into MapReduce input splits.
// Each key's value is scattered across `touch` random splits as zero-sum
// shares (so mapper-local views differ from the global data), and every
// split is charged inputBytes/len(splits) of simulated file; the Hadoop
// model's parse rate charges CPU for the difference between the sampled
// records and the simulated file size.
func buildMRDataset(name string, global linalg.Vector, nSplits, touch int, inputBytes int64, seed uint64) *mrDataset {
	n := len(global)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", i)
	}
	dict := keydict.FromSorted(keys)

	r := xrand.New(seed)
	recs := make([][]mapreduce.Record, nSplits)
	if touch < 1 {
		touch = 1
	}
	if touch > nSplits {
		touch = nSplits
	}
	for i, v := range global {
		// Pick `touch` distinct splits and give them zero-sum-noised
		// shares of v.
		chosen := r.Perm(nSplits)[:touch]
		rem := v
		for t, sp := range chosen {
			share := v / float64(touch)
			if t < touch-1 {
				share += (r.Float64() - 0.5) * v / float64(touch)
				rem -= share
			} else {
				share = rem
			}
			recs[sp] = append(recs[sp], mapreduce.Record{Key: keys[i], Value: share})
		}
	}
	splits := make([]mapreduce.Split, nSplits)
	per := inputBytes / int64(nSplits)
	// One modeled map task per 256 MB HDFS block: a sampled split with
	// more bytes than a block stands for several physical mappers, so
	// shuffle volume scales with input size as on a real cluster.
	const blockSize = 256 << 20
	rep := int((per + blockSize/2) / blockSize) // nearest block count
	if rep < 1 {
		rep = 1
	}
	for i := range splits {
		splits[i] = mapreduce.Split{Records: recs[i], Bytes: per, Represents: rep}
	}
	return &mrDataset{name: name, dict: dict, splits: splits}
}

// fig10Datasets builds the paper's three §6.2 inputs at the configured
// scale: power-law α=1.5 with a 600 MB input ("small"), the same data
// charged as a 600 GB input ("big"), and the production click data
// (12 GB), mode shifted to 0 as the paper does for the top-k comparison.
func fig10Datasets(cfg Config) []*mrDataset {
	sc := cfg.scale()
	// Floor of 20K keys: below that, the tuple volume the CS job saves
	// is too small to outweigh recovery overhead at any M — the paper's
	// effect needs a non-trivial key space (its N is 100K).
	n := scaleInt(100000, sc, 20000)

	// Production log blocks contain records for nearly every hot key, so
	// each mapper's partial aggregation covers most of the key space —
	// that is what makes the traditional job ship ~N tuples per mapper.
	pl := workload.PowerLaw(n, 1.5, cfg.Seed+201)
	small := buildMRDataset("alpha=1.5 small (600MB)", pl, 20, 15, 600e6, cfg.Seed+301)
	big := buildMRDataset("alpha=1.5 big (600GB)", pl, 60, 45, 600e9, cfg.Seed+302)
	// The production key space floors at ~one third of the real 10.4K
	// keys, for the same reason as the 20K floor above.
	prodScale := sc
	if prodScale < 0.3 {
		prodScale = 0.3
	}
	cl := workload.GenerateClickLogs(workload.ClickLogConfig{
		Query: workload.CoreSearchClicks, ScaleN: prodScale, Seed: cfg.Seed + 401,
	})
	shifted := cl.Global.Clone()
	for i := range shifted {
		shifted[i] -= cl.Mode // §6.2: "change the data's mode to 0"
	}
	product := buildMRDataset("product (12GB)", shifted, 24, 18, 12e9, cfg.Seed+303)
	return []*mrDataset{small, big, product}
}

// mrPoint is one run: its simulated times, and the shuffle volume they
// derive from. All are exact functions of the input.
type mrPoint struct {
	endToEnd, mapT, reduceT float64 // seconds
	shuffleBytes            int64   // mapper output = spill = shuffle
	mapTasks                int
}

func runCS(d *mrDataset, m, k int, seed uint64) (mrPoint, error) {
	p := sensing.Params{M: m, N: d.dict.N(), Seed: seed}
	job := &mapreduce.SketchJob{Dict: d.dict, Params: p, K: k}
	_, met, err := mapreduce.Run(job, d.splits)
	if err != nil {
		return mrPoint{}, err
	}
	return toPoint(met), nil
}

func runTraditional(d *mrDataset) (mrPoint, error) {
	_, met, err := mapreduce.Run(&mapreduce.TopKJob{Dict: d.dict}, d.splits)
	if err != nil {
		return mrPoint{}, err
	}
	return toPoint(met), nil
}

func toPoint(met *mapreduce.Metrics) mrPoint {
	return mrPoint{
		endToEnd:     met.EndToEnd.Seconds(),
		mapT:         met.MapTime.Seconds(),
		reduceT:      (met.ShuffleTime + met.ReduceTime).Seconds(),
		shuffleBytes: met.MapOutputBytes,
		mapTasks:     met.MapTasks,
	}
}

// mSweep returns lo, lo+step, … below hi, then hi: a coarse sweep keeps
// the largest M the paper plots.
func mSweep(lo, hi, step int) []float64 {
	var ms []float64
	for m := lo; m < hi; m += step {
		ms = append(ms, float64(m))
	}
	return append(ms, float64(hi))
}

// fig1011Cache memoizes the shared Figure 10/11 sweep per Config, so
// requesting both figures (csbench `fig10 fig11`) does not run the
// expensive sweep twice.
var fig1011Cache struct {
	sync.Mutex
	valid    bool
	cfg      Config
	t10, t11 []*Table
}

// fig1011 runs the shared sweep behind Figures 10 and 11.
func fig1011(cfg Config) (fig10 []*Table, fig11 []*Table, err error) {
	fig1011Cache.Lock()
	defer fig1011Cache.Unlock()
	if fig1011Cache.valid && fig1011Cache.cfg == cfg {
		return fig1011Cache.t10, fig1011Cache.t11, nil
	}
	fig10, fig11, err = fig1011Compute(cfg)
	if err == nil {
		fig1011Cache.valid, fig1011Cache.cfg = true, cfg
		fig1011Cache.t10, fig1011Cache.t11 = fig10, fig11
	}
	return fig10, fig11, err
}

func fig1011Compute(cfg Config) (fig10 []*Table, fig11 []*Table, err error) {
	datasets := fig10Datasets(cfg)
	const k = 5
	step := 1
	if cfg.scale() < 0.05 {
		step = 3 // coarse sweep for smoke-test scales
	}
	sweeps := [][]float64{
		mSweep(100, 1200, 100*step), // small input (paper Fig 10a)
		mSweep(200, 2000, 200*step), // big input (10b)
		mSweep(200, 2000, 200*step), // product (10c)
	}
	for di, d := range datasets {
		ms := sweeps[di]
		// Cap M at N/2 when running scaled-down key spaces.
		var capped []float64
		for _, m := range ms {
			if int(m) <= d.dict.N()/2 {
				capped = append(capped, m)
			}
		}
		if len(capped) == 0 {
			capped = []float64{float64(d.dict.N() / 2)}
		}
		ms = capped

		trad, err := runTraditional(d)
		if err != nil {
			return nil, nil, err
		}
		var e2eCS, mapCS, redCS []float64
		tradE2E := make([]float64, len(ms))
		tradMap := make([]float64, len(ms))
		tradRed := make([]float64, len(ms))
		for i, mf := range ms {
			pt, err := runCS(d, int(mf), k, cfg.Seed+uint64(mf))
			if err != nil {
				return nil, nil, err
			}
			e2eCS = append(e2eCS, pt.endToEnd)
			mapCS = append(mapCS, pt.mapT)
			redCS = append(redCS, pt.reduceT)
			tradE2E[i], tradMap[i], tradRed[i] = trad.endToEnd, trad.mapT, trad.reduceT
		}
		t10 := &Table{
			Title:  "Figure 10 (" + d.name + "): end-to-end time on Hadoop-model",
			XLabel: "M", YLabel: "seconds", X: ms,
		}
		if err := t10.AddSeries("BOMP", e2eCS); err != nil {
			return nil, nil, err
		}
		if err := t10.AddSeries("Traditional Top-K", tradE2E); err != nil {
			return nil, nil, err
		}
		fig10 = append(fig10, t10)

		t11m := &Table{
			Title:  "Figure 11 (" + d.name + "): map-phase time",
			XLabel: "M", YLabel: "seconds", X: ms,
		}
		if err := t11m.AddSeries("BOMP Mapper", mapCS); err != nil {
			return nil, nil, err
		}
		if err := t11m.AddSeries("Traditional Mapper", tradMap); err != nil {
			return nil, nil, err
		}
		t11r := &Table{
			Title:  "Figure 11 (" + d.name + "): reduce-phase time (incl. shuffle)",
			XLabel: "M", YLabel: "seconds", X: ms,
		}
		if err := t11r.AddSeries("BOMP Reducer", redCS); err != nil {
			return nil, nil, err
		}
		if err := t11r.AddSeries("Traditional Reducer", tradRed); err != nil {
			return nil, nil, err
		}
		fig11 = append(fig11, t11m, t11r)
	}
	return fig10, fig11, nil
}

// Fig10 reproduces Figure 10(a–c): end-to-end job time vs M for the CS
// job and the traditional top-k job on the three §6.2 inputs.
func Fig10(cfg Config) ([]*Table, error) {
	t10, _, err := fig1011(cfg)
	return t10, err
}

// Fig11 reproduces Figure 11(a–f): the per-phase (map, reduce)
// breakdown of the Figure-10 runs.
func Fig11(cfg Config) ([]*Table, error) {
	_, t11, err := fig1011(cfg)
	return t11, err
}

// Fig12 reproduces Figure 12(a–c): scalability in the key-space size N
// (paper: 100K → 5M at a fixed 10 GB input), comparing traditional
// top-k against BOMP with M = 50 and M = 100.
func Fig12(cfg Config) ([]*Table, error) {
	ns, series, err := fig12Sweep(cfg)
	if err != nil {
		return nil, err
	}
	return fig12Tables(ns, series)
}

// fig12Tables lays a sweep out as the figure's three panels.
func fig12Tables(ns []float64, series map[string][]mrPoint) ([]*Table, error) {
	titles := []string{"end-to-end", "map", "reduce (incl. shuffle)"}
	tables := make([]*Table, 3)
	for i, title := range titles {
		tables[i] = &Table{
			Title:  "Figure 12 (" + title + "): efficiency vs key-space size N, 10GB input",
			XLabel: "N", YLabel: "seconds", X: ns,
		}
	}
	for _, name := range []string{"Traditional topK", "BOMP M=50", "BOMP M=100"} {
		pts := series[name]
		e2e := make([]float64, len(pts))
		mp := make([]float64, len(pts))
		rd := make([]float64, len(pts))
		for i, pt := range pts {
			e2e[i], mp[i], rd[i] = pt.endToEnd, pt.mapT, pt.reduceT
		}
		if err := tables[0].AddSeries(name, e2e); err != nil {
			return nil, err
		}
		if err := tables[1].AddSeries(name, mp); err != nil {
			return nil, err
		}
		if err := tables[2].AddSeries(name, rd); err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// fig12Sweep runs Figure 12's jobs: at each key-space size, traditional
// top-k and BOMP at M = 50 and 100 on the same 10 GB input.
func fig12Sweep(cfg Config) (ns []float64, series map[string][]mrPoint, err error) {
	sc := cfg.scale()
	const k = 5
	for _, n := range []int{100000, 200000, 500000, 1000000, 5000000} {
		ns = append(ns, float64(scaleInt(n, sc, 2000)))
	}
	series = map[string][]mrPoint{}
	for _, nf := range ns {
		n := int(nf)
		global := workload.PowerLaw(n, 1.5, cfg.Seed+501+uint64(n))
		d := buildMRDataset(fmt.Sprintf("N=%d", n), global, 20, 3, 10e9, cfg.Seed+601+uint64(n))
		trad, err := runTraditional(d)
		if err != nil {
			return nil, nil, err
		}
		series["Traditional topK"] = append(series["Traditional topK"], trad)
		for _, m := range []int{50, 100} {
			mm := m
			if mm > n/2 {
				mm = n / 2
			}
			pt, err := runCS(d, mm, k, cfg.Seed+uint64(700+m))
			if err != nil {
				return nil, nil, err
			}
			series[fmt.Sprintf("BOMP M=%d", m)] = append(series[fmt.Sprintf("BOMP M=%d", m)], pt)
		}
	}
	return ns, series, nil
}
