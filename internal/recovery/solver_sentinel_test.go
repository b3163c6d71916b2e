package recovery

import (
	"math"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/xrand"
)

// sentinelEnsembles instantiates one matrix per measurement family at a
// shared shape. CountSketch's hashed columns collide too much for
// guaranteed exact sparse recovery (its exact flag is false): there the
// sentinel properties still must hold, but results are only required to
// be deterministic, not truth-equal.
func sentinelEnsembles(t testing.TB, m, n int, seed uint64) []struct {
	name  string
	mat   sensing.Matrix
	exact bool
} {
	t.Helper()
	var out []struct {
		name  string
		mat   sensing.Matrix
		exact bool
	}
	for _, e := range []struct {
		kind  sensing.Kind
		exact bool
	}{
		{sensing.KindGaussian, true},
		{sensing.KindCountSketch, false},
	} {
		spec := sensing.Spec{Params: sensing.Params{M: m, N: n, Seed: seed}, Kind: e.kind}
		mat, err := sensing.New(spec, 1<<30)
		if err != nil {
			t.Fatalf("%v: %v", e.kind, err)
		}
		out = append(out, struct {
			name  string
			mat   sensing.Matrix
			exact bool
		}{e.kind.String(), mat, e.exact})
	}
	return out
}

// resultsIdentical compares the fields the sentinel contract covers.
func resultsIdentical(a, b *Result) bool {
	if a.Mode != b.Mode || a.Iterations != b.Iterations || len(a.Support) != len(b.Support) {
		return false
	}
	for i := range a.Support {
		if a.Support[i] != b.Support[i] || a.Coef[i] != b.Coef[i] {
			return false
		}
	}
	return true
}

// TestSolverSentinelParity is the Options contract test: the PR 6
// sentinel semantics (zero ResidualTol/StallRelTol meaning "default",
// negative meaning "disabled") must behave identically for BOMP, OMP and
// KnownModeOMP on every measurement ensemble.
func TestSolverSentinelParity(t *testing.T) {
	const m, n, s = 128, 256, 5
	solvers := []struct {
		name string
		bias float64 // the mode the row's data concentrates around
		run  func(mat sensing.Matrix, y linalg.Vector, opt Options) (*Result, error)
	}{
		{"bomp", 300, BOMP},
		{"omp", 0, OMP},
		{"knownmode", 300, func(mat sensing.Matrix, y linalg.Vector, opt Options) (*Result, error) {
			return KnownModeOMP(mat, y, 300, opt)
		}},
	}
	for _, ens := range sentinelEnsembles(t, m, n, 0x5e47) {
		for _, sv := range solvers {
			label := ens.name + "/" + sv.name
			x, want := biasedSparse(xrand.New(0x5e47), n, s, sv.bias, 100, 1000)
			y := ens.mat.Measure(x, nil)

			// Zero sentinels resolve to the documented defaults: an
			// Options{} run and an explicit-defaults run are identical.
			zero, err := sv.run(ens.mat, y, Options{})
			if err != nil {
				t.Fatalf("%s: zero-sentinel run: %v", label, err)
			}
			expl, err := sv.run(ens.mat, y, Options{ResidualTol: 1e-9, StallRelTol: 1e-12})
			if err != nil {
				t.Fatalf("%s: explicit-default run: %v", label, err)
			}
			if !resultsIdentical(zero, expl) {
				t.Errorf("%s: Options{} differs from explicit defaults: %+v vs %+v", label, zero, expl)
			}

			// A negative StallRelTol means threshold 0 (stall on any
			// non-decrease), not "disabled": the run must terminate
			// without error, and on exact-recovery ensembles the strict
			// greedy descent means it still finds the truth.
			neg, err := sv.run(ens.mat, y, Options{StallRelTol: -1})
			if err != nil {
				t.Fatalf("%s: negative StallRelTol run: %v", label, err)
			}
			if ens.exact {
				if !supportEqual(zero.Support, want) {
					t.Errorf("%s: default run missed truth: %v want %v", label, zero.Support, want)
				}
				if !supportEqual(neg.Support, want) {
					t.Errorf("%s: StallRelTol=-1 run missed truth: %v want %v", label, neg.Support, want)
				}
				if math.Abs(zero.Mode-sv.bias) > 1e-6*sv.bias {
					t.Errorf("%s: mode = %g, want %g", label, zero.Mode, sv.bias)
				}
			}

			// A negative ResidualTol disables tolerance stops; combined
			// with DisableEarlyStop the solver must not error and must
			// not report a tolerance-triggered zero-iteration result.
			dis, err := sv.run(ens.mat, y, Options{ResidualTol: -1, DisableEarlyStop: true})
			if err != nil {
				t.Fatalf("%s: disabled-stops run: %v", label, err)
			}
			if dis.Iterations < 1 {
				t.Errorf("%s: disabled-stops run reported %d iterations", label, dis.Iterations)
			}
		}
	}
}
