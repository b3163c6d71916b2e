package recovery

import (
	"math"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
	"csoutlier/internal/xrand/xrandtest"
)

// The paper's production data is only *near*-sparse: bulk values jitter
// around the mode (§2.1, Figure 1). These tests pin down that BOMP
// degrades gracefully — top-k keys stay correct and the mode estimate
// stays near the concentration center — under concentration jitter and
// under additive measurement noise.

func TestBOMPUnderConcentrationJitter(t *testing.T) {
	const (
		n, s, k = 500, 15, 5
		mode    = 1800.0
		jitter  = 40.0 // ~2% of the mode
	)
	base := xrandtest.Seed(t, 71)
	x, _ := workload.NearMajorityDominated(n, s, mode, jitter, 1500, 8000, base)
	d := dense(t, 200, n, base+1)
	y := d.Measure(x, nil)
	res, err := BOMP(d, y, Options{MaxIterations: IterationBudget(k)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mode-mode) > 4*jitter {
		t.Fatalf("mode = %v, want within a few jitters of %v", res.Mode, mode)
	}
	truth := outlier.TopK(x, mode, k)
	got := res.Outliers(k)
	if ek := outlier.ErrorOnKey(truth, got); ek > 0.21 {
		t.Fatalf("EK = %v under jitter (truth %v, got %v)", ek, truth, got)
	}
	if ev := outlier.ErrorOnValue(truth, got); ev > 0.1 {
		t.Fatalf("EV = %v under jitter", ev)
	}
}

func TestBOMPUnderMeasurementNoise(t *testing.T) {
	// Additive noise on the measurement itself (e.g. lossy float
	// compression of sketches in transit).
	const (
		n, s, k = 400, 8, 4
		mode    = 1000.0
	)
	base := xrandtest.Seed(t, 73)
	r := xrand.New(base)
	x, _ := workload.MajorityDominated(n, s, mode, 2000, 9000, base+1)
	d := dense(t, 160, n, base+2)
	y := d.Measure(x, nil)
	noiseScale := 1e-3 * y.Norm2() / math.Sqrt(float64(len(y)))
	for i := range y {
		y[i] += r.NormFloat64() * noiseScale
	}
	res, err := BOMP(d, y, Options{MaxIterations: IterationBudget(k)})
	if err != nil {
		t.Fatal(err)
	}
	truth := outlier.TopK(x, mode, k)
	got := res.Outliers(k)
	if ek := outlier.ErrorOnKey(truth, got); ek != 0 {
		t.Fatalf("EK = %v under measurement noise", ek)
	}
	if math.Abs(res.Mode-mode) > 0.05*mode {
		t.Fatalf("mode = %v under measurement noise", res.Mode)
	}
}

func TestResidualTolStopsAtNoiseFloor(t *testing.T) {
	// With noise, the residual bottoms out at the noise floor. Greedy
	// selection keeps "improving" on pure noise (it always finds the
	// most-correlated column), so the stall cutoff cannot fire — the
	// noise floor must be given as ResidualTol, and then the loop stops
	// as soon as the signal is exhausted, keeping the support clean.
	const n, s = 300, 5
	base := xrandtest.Seed(t, 76)
	r := xrand.New(base)
	x, _ := workload.MajorityDominated(n, s, 0, 100, 900, base+1)
	d := dense(t, 120, n, base+2)
	y := d.Measure(x, nil)
	var noiseSq float64
	for i := range y {
		e := r.NormFloat64() * 1e-4
		y[i] += e
		noiseSq += e * e
	}
	relNoise := math.Sqrt(noiseSq) / y.Norm2()
	stopped, err := NewWorkspace().OMP(d, y, Options{MaxIterations: 120, ResidualTol: 2 * relNoise})
	if err != nil {
		t.Fatal(err)
	}
	free, err := NewWorkspace().OMP(d, y, Options{MaxIterations: 120, ResidualTol: 1e-300, disableEarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if stopped.Iterations >= free.Iterations {
		t.Fatalf("noise-floor tolerance did not cut iterations: %d vs %d", stopped.Iterations, free.Iterations)
	}
	// The floored run keeps the planted support clean and complete.
	if len(stopped.Support) > 2*s {
		t.Fatalf("floored run still selected %d columns", len(stopped.Support))
	}
	got := map[int]bool{}
	for _, j := range stopped.Support {
		got[j] = true
	}
	truth := outlier.TopK(x, 0, s)
	for _, kv := range truth {
		if !got[kv.Index] {
			t.Fatalf("floored run missed planted outlier %d", kv.Index)
		}
	}
}

func TestNearMajorityDominatedShape(t *testing.T) {
	x, support := workload.NearMajorityDominated(200, 10, 500, 5, 100, 400, xrandtest.Seed(t, 79))
	if len(support) != 10 {
		t.Fatalf("support = %d", len(support))
	}
	onSupport := map[int]bool{}
	for _, j := range support {
		onSupport[j] = true
	}
	// No exact majority anymore, but the bulk concentrates within a few
	// jitters of the mode.
	if _, ok := outlier.Mode(x); ok {
		t.Fatal("jittered data still has an exact majority")
	}
	for i, v := range x {
		if onSupport[i] {
			continue
		}
		if math.Abs(v-500) > 5*5 {
			t.Fatalf("bulk entry %d = %v strays too far from mode", i, v)
		}
	}
	_ = linalg.Vector(x)
}
