package recovery

import (
	"testing"

	"csoutlier/internal/sensing"
	"csoutlier/internal/xrand"
)

// TestOptionsToleranceSentinels pins the three-way sentinel mapping of
// ResidualTol: zero value → documented default, negative → literally
// zero, positive → itself.
func TestOptionsToleranceSentinels(t *testing.T) {
	residual := []struct{ in, want float64 }{
		{0, 1e-9},
		{-1, 0},
		{-1e-300, 0},
		{2.5e-4, 2.5e-4},
	}
	for _, c := range residual {
		if got := (Options{ResidualTol: c.in}).residualTol(); got != c.want {
			t.Errorf("residualTol(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestResidualTolNegativeDisablesStop checks the behavioral half of the
// sentinel: on a noisy sketch whose residual plateaus at the noise floor
// (≈1e-4 relative), ResidualTol: 1e-3 stops the loop as soon as the
// signal is exhausted, while ResidualTol: -1 ignores the tolerance and
// spends the whole iteration budget fitting noise.
func TestResidualTolNegativeDisablesStop(t *testing.T) {
	mat, err := sensing.NewSeeded(sensing.Params{M: 96, N: 512, Seed: 2718})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(31)
	x, _ := biasedSparse(rng, 512, 4, 1200, 300, 900)
	y := mat.Measure(x, nil)
	yNorm := y.Norm2()
	for i := range y {
		y[i] += 1e-4 * yNorm / 10 * rng.NormFloat64() // ≈1e-4 relative noise floor
	}

	const budget = 14
	stop, err := BOMP(mat, y, Options{MaxIterations: budget, ResidualTol: 1e-3, disableEarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := BOMP(mat, y, Options{MaxIterations: budget, ResidualTol: -1, disableEarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if stop.Residual > 1e-3*y.Norm2() {
		t.Fatalf("tolerance run stopped above tolerance: %v", stop.Residual)
	}
	if stop.Iterations >= budget {
		t.Fatalf("tolerance run spent the whole budget (%d iterations)", stop.Iterations)
	}
	if off.Iterations != budget {
		t.Fatalf("ResidualTol: -1 stopped after %d iterations, want full budget %d", off.Iterations, budget)
	}
}
