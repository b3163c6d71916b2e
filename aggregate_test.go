package csoutlier

import (
	"math"
	"sync"
	"testing"

	"csoutlier/internal/xrand/xrandtest"
)

// TestSketchLinearityProperty pins the identity the whole distributed
// design rests on (paper eq. 1): the sum of per-node sketches equals the
// sketch of the summed data, for every ensemble, over randomized shapes,
// splits and values.
//
// Tolerance: both sides compute the same dot products, only associated
// differently (per-node column sums vs. global column sums), so the
// divergence is float reassociation error — a few ulps per addition, well
// under 1e-9 of the sketch's ∞-norm for the few hundred terms involved.
func TestSketchLinearityProperty(t *testing.T) {
	rng := xrandtest.New(t, 0x11ea51)
	for trial := 0; trial < 12; trial++ {
		for _, ens := range []Ensemble{Gaussian, CountSketch} {
			n := 40 + rng.Intn(160)
			keys := testKeys(n)
			sk, err := NewSketcher(keys, Config{
				M:        8 + rng.Intn(n/3),
				Seed:     rng.Uint64(),
				Ensemble: ens,
				Depth:    4, // two buckets a row even at M = 8
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes := 1 + rng.Intn(6)
			total := map[string]float64{}
			agg := sk.ZeroSketch()
			for node := 0; node < nodes; node++ {
				pairs := map[string]float64{}
				for count := 1 + rng.Intn(n); len(pairs) < count; {
					v := (rng.Float64() - 0.5) * 2e4
					k := keys[rng.Intn(n)]
					if _, dup := pairs[k]; dup {
						continue
					}
					pairs[k] = v
					total[k] += v
				}
				y, err := sk.SketchPairs(pairs)
				if err != nil {
					t.Fatal(err)
				}
				if err := agg.Add(y); err != nil {
					t.Fatal(err)
				}
			}
			want, err := sk.SketchPairs(total)
			if err != nil {
				t.Fatal(err)
			}
			scale := 1.0
			for _, v := range want.Y {
				if a := math.Abs(v); a > scale {
					scale = a
				}
			}
			for i := range want.Y {
				if d := math.Abs(agg.Y[i] - want.Y[i]); d > 1e-9*scale {
					t.Fatalf("trial %d ens %v: Aggregate(sketches) != Sketch(sum) at coordinate %d: "+
						"%v vs %v (diff %g, scale %g)", trial, ens, i, agg.Y[i], want.Y[i], d, scale)
				}
			}
		}
	}
}

func TestAggregateReportQueries(t *testing.T) {
	keys := testKeys(200)
	sk, err := NewSketcher(keys, Config{M: 90, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	const mode = 500.0
	planted := map[int]float64{9: 2500, 99: -2000, 150: 1000}
	pairs := biasedPairs(keys, mode, planted)
	y, err := sk.SketchPairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sk.Aggregate(y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Mode()-mode) > 1 {
		t.Fatalf("mode = %v", rep.Mode())
	}
	wantSum := mode*197 + (mode + 2500) + (mode - 2000) + (mode + 1000)
	if math.Abs(rep.Sum()-wantSum) > 1 {
		t.Fatalf("Sum = %v, want %v", rep.Sum(), wantSum)
	}
	if math.Abs(rep.Mean()-wantSum/200) > 0.01 {
		t.Fatalf("Mean = %v", rep.Mean())
	}
	// Median is the mode on concentrated data.
	med, err := rep.Percentile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-mode) > 1 {
		t.Fatalf("median = %v", med)
	}
	// Extreme quantiles reach the outliers.
	p100, err := rep.Percentile(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p100-(mode+2500)) > 1 {
		t.Fatalf("max quantile = %v", p100)
	}
	p0, err := rep.Percentile(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p0-(mode-2000)) > 1 {
		t.Fatalf("min quantile = %v", p0)
	}

	if _, err := rep.Percentile(2); err == nil {
		t.Fatal("q>1 accepted")
	}
}

func TestAggregateIncompatibleSketch(t *testing.T) {
	keys := testKeys(30)
	a, _ := NewSketcher(keys, Config{M: 10, Seed: 1})
	b, _ := NewSketcher(keys, Config{M: 10, Seed: 2})
	y, _ := b.SketchPairs(nil)
	if _, err := a.Aggregate(y, 0); err == nil {
		t.Fatal("cross-seed Aggregate accepted")
	}
}

func TestUpdaterMatchesBatchSketch(t *testing.T) {
	keys := testKeys(80)
	sk, _ := NewSketcher(keys, Config{M: 30, Seed: 31})
	pairs := map[string]float64{keys[3]: 5, keys[10]: -2, keys[70]: 9}
	want, err := sk.SketchPairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	// Stream the same data one observation at a time (with splits).
	u := sk.NewUpdater()
	for _, o := range []struct {
		key   string
		delta float64
	}{{keys[3], 2}, {keys[3], 3}, {keys[10], -2}, {keys[70], 9}} {
		if err := u.Observe(o.key, o.delta); err != nil {
			t.Fatal(err)
		}
	}
	if u.Updates() != 4 {
		t.Fatalf("Updates = %d", u.Updates())
	}
	got := drained(t, u)
	for i := range want.Y {
		if math.Abs(got.Y[i]-want.Y[i]) > 1e-9 {
			t.Fatalf("streamed sketch differs at %d: %v vs %v", i, got.Y[i], want.Y[i])
		}
	}
}

// drained returns u's standing sketch, emptying u.
func drained(t *testing.T, u *Updater) Sketch {
	t.Helper()
	s := u.sk.ZeroSketch()
	if _, err := u.DrainInto(s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUpdaterValidation(t *testing.T) {
	keys := testKeys(10)
	sk, _ := NewSketcher(keys, Config{M: 4, Seed: 1})
	u := sk.NewUpdater()
	if err := u.Observe("bogus", 1); err == nil {
		t.Fatal("unknown key accepted")
	}
	// Nor is a delta that would make the sketch non-finite for good.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := u.Observe(keys[1], bad); err == nil {
			t.Fatalf("Updater.Observe accepted %v", bad)
		}
	}
	// Failed calls must not have mutated the sketch.
	for _, v := range drained(t, u).Y {
		if v != 0 {
			t.Fatal("failed observation applied")
		}
	}
	// Zero deltas are no-ops.
	if err := u.Observe(keys[0], 0); err != nil {
		t.Fatal(err)
	}
	if u.Updates() != 0 {
		t.Fatalf("zero delta counted: %d", u.Updates())
	}
}

func TestUpdaterConcurrent(t *testing.T) {
	keys := testKeys(50)
	sk, _ := NewSketcher(keys, Config{M: 20, Seed: 3})
	u := sk.NewUpdater()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := u.Observe(keys[(w*perWorker+i)%50], 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if u.Updates() != workers*perWorker {
		t.Fatalf("Updates = %d, want %d", u.Updates(), workers*perWorker)
	}
	// The concurrent stream must equal the batch sketch of the same data.
	pairs := map[string]float64{}
	for i := 0; i < workers*perWorker; i++ {
		pairs[keys[i%50]] += 1
	}
	want, err := sk.SketchPairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	got := drained(t, u)
	for i := range want.Y {
		if math.Abs(got.Y[i]-want.Y[i]) > 1e-7 {
			t.Fatalf("concurrent sketch differs at %d", i)
		}
	}
}

func TestUpdaterFeedsDetection(t *testing.T) {
	// End to end: streamed observations on two nodes, detect globally.
	keys := testKeys(150)
	sk, _ := NewSketcher(keys, Config{M: 70, Seed: 4})
	u1, u2 := sk.NewUpdater(), sk.NewUpdater()
	const mode = 100.0
	for i, k := range keys {
		if err := u1.Observe(k, mode/2); err != nil {
			t.Fatal(err)
		}
		if err := u2.Observe(k, mode/2); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	// An anomaly builds up over many small observations on node 2.
	for i := 0; i < 100; i++ {
		if err := u2.Observe(keys[42], 10); err != nil {
			t.Fatal(err)
		}
	}
	global := drained(t, u1)
	if err := global.Add(drained(t, u2)); err != nil {
		t.Fatal(err)
	}
	rep, err := sk.Detect(global, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outliers) != 1 || rep.Outliers[0].Key != keys[42] {
		t.Fatalf("streamed detection = %+v", rep.Outliers)
	}
	if math.Abs(rep.Outliers[0].Value-(mode+1000)) > 1 {
		t.Fatalf("streamed value = %v", rep.Outliers[0].Value)
	}
}
