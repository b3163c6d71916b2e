package recovery

import (
	"math"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/xrand"
)

// warmEnsembles builds one instance of each matrix type for the
// warm-start property tests.
func warmEnsembles(t *testing.T) []struct {
	name string
	mat  sensing.Matrix
} {
	t.Helper()
	p := sensing.Params{M: 96, N: 512, Seed: 424242}
	dense, err := sensing.NewDense(p)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := sensing.NewSeeded(p)
	if err != nil {
		t.Fatal(err)
	}
	sketch, err := sensing.NewCountSketch(p, sensing.DefaultCountSketchDepth)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		mat  sensing.Matrix
	}{
		{"Dense", dense},
		{"Seeded", seeded},
		{"CountSketch", sketch},
	}
}

// resultsBitIdentical fails the test unless got and want agree on every
// field, floats compared by bit pattern.
func resultsBitIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	fail := func(f string, args ...any) {
		t.Helper()
		t.Fatalf("%s: "+f, append([]any{label}, args...)...)
	}
	if math.Float64bits(got.Mode) != math.Float64bits(want.Mode) {
		fail("Mode %v != %v", got.Mode, want.Mode)
	}
	if got.Iterations != want.Iterations {
		fail("Iterations %d != %d", got.Iterations, want.Iterations)
	}
	if math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		fail("Residual %v != %v", got.Residual, want.Residual)
	}
	if got.StoppedEarly != want.StoppedEarly {
		fail("StoppedEarly %v != %v", got.StoppedEarly, want.StoppedEarly)
	}
	if len(got.Selection) != len(want.Selection) {
		fail("Selection %v != %v", got.Selection, want.Selection)
	}
	for i := range want.Selection {
		if got.Selection[i] != want.Selection[i] {
			fail("Selection %v != %v", got.Selection, want.Selection)
		}
	}
	if len(got.Support) != len(want.Support) {
		fail("Support %v != %v", got.Support, want.Support)
	}
	for i := range want.Support {
		if got.Support[i] != want.Support[i] {
			fail("Support %v != %v", got.Support, want.Support)
		}
		if math.Float64bits(got.Coef[i]) != math.Float64bits(want.Coef[i]) {
			fail("Coef[%d] %v != %v", i, got.Coef[i], want.Coef[i])
		}
	}
	if len(got.X) != len(want.X) {
		fail("X length %d != %d", len(got.X), len(want.X))
	}
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			fail("X[%d] %v != %v", j, got.X[j], want.X[j])
		}
	}
}

// cloneResult deep-copies a workspace-owned Result so it survives the
// workspace's next call.
func cloneResult(r *Result) *Result {
	c := *r
	c.X = append(linalg.Vector(nil), r.X...)
	c.Support = append([]int(nil), r.Support...)
	c.Coef = append([]float64(nil), r.Coef...)
	c.Selection = append([]int(nil), r.Selection...)
	return &c
}

// TestBOMPWarmBitIdenticalAllHints is the warm-start property test: for
// every ensemble, a warm-started BOMP must return a bit-identical result
// to the cold run for ANY hint — every prefix of the cold run's own
// selection order (the intended use), the full selection, and assorted
// wrong, stale, duplicate, and out-of-range hints (the failure modes a
// standing query hits when the data shifts between generations).
func TestBOMPWarmBitIdenticalAllHints(t *testing.T) {
	rng := xrand.New(77)
	for _, tc := range warmEnsembles(t) {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mat.Params()
			x, _ := biasedSparse(rng, p.N, 8, 1500, 200, 900)
			y := tc.mat.Measure(x, nil)
			opt := Options{MaxIterations: 27}

			cold, err := NewWorkspace().BOMP(tc.mat, y, opt)
			if err != nil {
				t.Fatal(err)
			}
			cold = cloneResult(cold)
			if cold.Iterations == 0 {
				t.Fatal("degenerate instance: cold run selected nothing")
			}

			hints := [][]int{nil, {}}
			// Every prefix of the true trajectory, including the whole of it.
			for l := 1; l <= len(cold.Selection); l++ {
				hints = append(hints, cold.Selection[:l])
			}
			// Wrong and degenerate hints.
			wrong := []int{cold.Selection[0] + 1, cold.Selection[0]}
			if wrong[0] >= p.N+1 {
				wrong[0] = 1
			}
			hints = append(hints,
				wrong,              // diverges at step 0 or 1
				[]int{p.N + 5, -3}, // out of range: truncated to empty
				[]int{3, 3, 3},     // duplicates: truncated after one
				append(append([]int(nil), cold.Selection...), cold.Selection[0]), // stale tail
			)

			ws := NewWorkspace()
			for hi, hint := range hints {
				got, err := ws.BOMPWarm(tc.mat, y, hint, opt)
				if err != nil {
					t.Fatalf("hint %d %v: %v", hi, hint, err)
				}
				resultsBitIdentical(t, tc.name, got, cold)
			}
		})
	}
}

// TestBOMPWarmSelfHintAcrossGenerations models the standing-query loop:
// solve generation g, feed its Selection (still aliasing the SAME
// workspace) as the hint for generation g+1's slightly different sketch.
func TestBOMPWarmSelfHintAcrossGenerations(t *testing.T) {
	rng := xrand.New(5)
	for _, tc := range warmEnsembles(t) {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mat.Params()
			x, sup := biasedSparse(rng, p.N, 6, -300, 100, 500)
			opt := Options{MaxIterations: 21}
			ws := NewWorkspace()
			var hint []int
			for gen := 0; gen < 4; gen++ {
				y := tc.mat.Measure(x, nil)
				cold, err := NewWorkspace().BOMP(tc.mat, y, opt)
				if err != nil {
					t.Fatal(err)
				}
				cold = cloneResult(cold)
				got, err := ws.BOMPWarm(tc.mat, y, hint, opt)
				if err != nil {
					t.Fatal(err)
				}
				resultsBitIdentical(t, tc.name, got, cold)
				hint = got.Selection // intentionally aliased workspace storage
				// Drift the data a little for the next generation.
				x[sup[gen%len(sup)]] += 25 * rng.NormFloat64()
			}
		})
	}
}

// TestBOMPBatchBitIdentical pins the batch engine against per-item cold
// runs for a mixed batch: cold items, correctly warmed items, staleley
// warmed items, a zero measurement, and differing per-item Options.
func TestBOMPBatchBitIdentical(t *testing.T) {
	rng := xrand.New(123)
	for _, tc := range warmEnsembles(t) {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mat.Params()
			const nq = 8
			items := make([]BatchItem, nq)
			colds := make([]*Result, nq)
			for i := range items {
				var y linalg.Vector
				if i == 5 {
					y = make(linalg.Vector, p.M) // zero measurement
				} else {
					x, _ := biasedSparse(rng, p.N, 3+i, 800, 150, 600)
					y = tc.mat.Measure(x, nil)
				}
				opt := Options{MaxIterations: 10 + 3*(i%3)}
				cold, err := NewWorkspace().BOMP(tc.mat, y, opt)
				if err != nil {
					t.Fatal(err)
				}
				colds[i] = cloneResult(cold)
				items[i] = BatchItem{Y: y, Opt: opt}
				switch {
				case i%3 == 1:
					items[i].Warm = colds[i].Selection // exact hint
				case i%3 == 2 && len(colds[i].Selection) > 2:
					// Stale hint: right start, wrong continuation.
					stale := append([]int(nil), colds[i].Selection[:2]...)
					stale = append(stale, (colds[i].Selection[1]+7)%(p.N+1))
					items[i].Warm = stale
				}
			}
			wss := make([]*Workspace, nq)
			for i := range wss {
				wss[i] = NewWorkspace()
			}
			results, stats, err := BOMPBatch(tc.mat, wss, items)
			if err != nil {
				t.Fatal(err)
			}
			for i := range results {
				resultsBitIdentical(t, tc.name, results[i], colds[i])
			}
			if stats.Items != nq {
				t.Fatalf("stats.Items = %d, want %d", stats.Items, nq)
			}
			if stats.Warm == 0 {
				t.Fatal("stats.Warm = 0 despite warmed items")
			}
			// Every workspace came with an empty cache of its own: the run
			// computed each Gram column it used, and besides those the only
			// pass over the dictionary is one c₀ per non-zero measurement.
			if stats.Misses == 0 {
				t.Fatal("no Gram miss on empty caches")
			}
			if want := p.N * (nq - 1 + stats.Misses); stats.CorrelateColumns != want {
				t.Fatalf("correlated %d columns, want N·(c₀s + misses) = %d", stats.CorrelateColumns, want)
			}
			// The same batch again finds every column: c₀ is all that is left.
			results, stats, err = BOMPBatch(tc.mat, wss, items)
			if err != nil {
				t.Fatal(err)
			}
			for i := range results {
				resultsBitIdentical(t, tc.name+" again", results[i], colds[i])
			}
			if stats.Misses != 0 || stats.Hits == 0 || stats.CorrelateColumns != p.N*(nq-1) {
				t.Fatalf("warmed caches: %+v, want no miss and N·%d columns correlated", stats, nq-1)
			}
		})
	}
}

// TestBOMPBatchExactHintSkipsLiveCorrelation checks the payoff: an item
// whose hint IS the true trajectory fetches every Gram column it will
// use in the batch's one block correlate, so its greedy loop never
// passes over the matrix — and the next generation, hinted the same,
// correlates nothing but its c₀.
func TestBOMPBatchExactHintSkipsLiveCorrelation(t *testing.T) {
	rng := xrand.New(999)
	tc := warmEnsembles(t)[1] // Seeded
	p := tc.mat.Params()
	x, _ := biasedSparse(rng, p.N, 5, 2000, 300, 800)
	y := tc.mat.Measure(x, nil)
	opt := Options{MaxIterations: 16}
	cold, err := NewWorkspace().BOMP(tc.mat, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold = cloneResult(cold)
	wss := []*Workspace{NewWorkspace()}
	items := []BatchItem{{Y: y, Warm: cold.Selection, Opt: opt}}
	results, stats, err := BOMPBatch(tc.mat, wss, items)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, tc.name, results[0], cold)
	// Every hinted column missed (the cache was empty) inside the block;
	// the loop then looked each selection up and hit — the last one only
	// if a stop rule did not fire right after it.
	if stats.Misses != cold.Iterations || (stats.Hits != cold.Iterations && stats.Hits != cold.Iterations-1) {
		t.Fatalf("exact hint on an empty cache: %+v, want %d misses and as many hits, or one fewer", stats, cold.Iterations)
	}
	if want := p.N * (1 + cold.Iterations); stats.CorrelateColumns != want {
		t.Fatalf("correlated %d columns, want %d", stats.CorrelateColumns, want)
	}
	results, stats, err = BOMPBatch(tc.mat, wss, items)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, tc.name, results[0], cold)
	if stats.Misses != 0 || stats.CorrelateColumns != p.N {
		t.Fatalf("exact hint on a warm cache: %+v, want no miss and only c₀'s %d columns", stats, p.N)
	}
}

// TestBOMPBatchWorkspaceMismatch checks the arity guard.
func TestBOMPBatchWorkspaceMismatch(t *testing.T) {
	mat := dense(t, 8, 32, 7)
	_, _, err := BOMPBatch(mat, []*Workspace{NewWorkspace()}, nil)
	if err == nil {
		t.Fatal("no error for mismatched workspaces/items")
	}
	_, _, err = BOMPBatch(mat, []*Workspace{NewWorkspace()},
		[]BatchItem{{Y: make(linalg.Vector, 9)}})
	if err == nil {
		t.Fatal("no error for wrong measurement length")
	}
}
