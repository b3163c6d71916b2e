package recovery

import (
	"math"
	"testing"

	"csoutlier/internal/outlier"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// TestIterationBudgetSweep validates the paper's §5 tuning claim that
// R = f(k) ∈ [2k, 5k] "is good enough for both recovery accuracy and
// efficiency" for a k-outlier query — even when the data holds far more
// than k outliers. It sweeps R on a 60-sparse instance with a top-5
// query: R = k is insufficient (one slot is eaten by the bias column,
// and greedy order is not exactly divergence order), while every R in
// the paper's band answers exactly.
func TestIterationBudgetSweep(t *testing.T) {
	const (
		n, s, k = 1500, 60, 5
		mode    = 1800.0
		m       = 300
	)
	rng := xrand.New(1234)
	type point struct {
		r     int
		avgEK float64
	}
	var pts []point
	const trials = 5
	for _, r := range []int{k, 2 * k, 3 * k, 5 * k} {
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			seed := rng.Uint64()
			// Pareto-heavy magnitudes, as in the production generator:
			// a top-k query targets dominant components, which is the
			// regime where a budget of a few·k suffices against s ≫ k.
			data, support := workload.MajorityDominated(n, s, mode, mode, 2*mode, seed)
			mags := xrand.New(seed ^ 0x1717)
			for _, j := range support {
				sign := 1.0
				if data[j] < mode {
					sign = -1
				}
				var u float64
				for u == 0 {
					u = mags.Float64()
				}
				d := mode * minF(400, pow(u, -1/0.6))
				data[j] = mode + sign*d
			}
			truth := outlier.TopK(data, mode, k)
			mat, err := sensing.NewDense(sensing.Params{M: m, N: n, Seed: seed ^ 0x99})
			if err != nil {
				t.Fatal(err)
			}
			res, err := BOMP(mat, mat.Measure(data, nil), Options{MaxIterations: r})
			if err != nil {
				t.Fatal(err)
			}
			sum += outlier.ErrorOnKey(truth, res.Outliers(k))
		}
		pts = append(pts, point{r, sum / trials})
	}
	// R in the paper's band answers accurately.
	for _, p := range pts[1:] {
		if p.avgEK > 0.21 {
			t.Fatalf("R=%d: avg EK %v — the [2k,5k] band failed", p.r, p.avgEK)
		}
	}
	// Accuracy is non-increasing in R across the sweep (more budget
	// never hurts on this instance).
	for i := 1; i < len(pts); i++ {
		if pts[i].avgEK > pts[i-1].avgEK+0.15 {
			t.Fatalf("accuracy regressed with budget: %+v", pts)
		}
	}
	// And the default IterationBudget lands inside the validated band.
	if r := IterationBudget(k); r < 2*k || r > 5*k+1 {
		t.Fatalf("IterationBudget(%d) = %d outside validated band", k, r)
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func pow(x, p float64) float64 { return math.Pow(x, p) }
