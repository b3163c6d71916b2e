package recovery

import (
	"math"
	"runtime/debug"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
)

// bompFixture builds a matrix, a biased s-sparse signal and its sketch.
func bompFixture(t *testing.T, mk func(sensing.Params) (sensing.Matrix, error), p sensing.Params, s int) (sensing.Matrix, linalg.Vector, linalg.Vector) {
	t.Helper()
	m, err := mk(p)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := workload.MajorityDominated(p.N, s, 1800, 300, 3000, 10)
	y := m.Measure(x, nil)
	return m, x, y
}

// TestWorkspaceMatchesPackageFunctions checks that a reused Workspace
// returns the same recovery as the one-shot package functions, across
// repeated heterogeneous calls (BOMP, OMP, KnownModeOMP interleaved).
func TestWorkspaceMatchesPackageFunctions(t *testing.T) {
	p := sensing.Params{M: 64, N: 500, Seed: 41}
	m, _, y := bompFixture(t, func(p sensing.Params) (sensing.Matrix, error) { return sensing.NewDense(p) }, p, 8)
	opt := Options{MaxIterations: IterationBudget(8)}

	ws := NewWorkspace()
	for round := 0; round < 3; round++ {
		got, err := ws.BOMP(m, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BOMP(m, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mode != want.Mode || got.Iterations != want.Iterations {
			t.Fatalf("round %d: workspace BOMP (mode=%v, iters=%d) != package BOMP (mode=%v, iters=%d)",
				round, got.Mode, got.Iterations, want.Mode, want.Iterations)
		}
		if len(got.Support) != len(want.Support) {
			t.Fatalf("round %d: support %v != %v", round, got.Support, want.Support)
		}
		for i := range got.Support {
			if got.Support[i] != want.Support[i] || math.Float64bits(got.Coef[i]) != math.Float64bits(want.Coef[i]) {
				t.Fatalf("round %d: support/coef diverge at %d", round, i)
			}
		}

		gotO, err := ws.OMP(m, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		wantO, err := NewWorkspace().OMP(m, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotO.Support) != len(wantO.Support) || gotO.Iterations != wantO.Iterations {
			t.Fatalf("round %d: workspace OMP diverges from package OMP", round)
		}

		gotK, err := ws.KnownModeOMP(m, y, want.Mode, opt)
		if err != nil {
			t.Fatal(err)
		}
		wantK, err := NewWorkspace().KnownModeOMP(m, y, want.Mode, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotK.Support) != len(wantK.Support) || gotK.Mode != wantK.Mode {
			t.Fatalf("round %d: workspace KnownModeOMP diverges", round)
		}
	}
}

// TestWorkspaceMixedShapes replays one workspace across matrices of
// different sizes and ensembles; buffers must re-size correctly.
func TestWorkspaceMixedShapes(t *testing.T) {
	ws := NewWorkspace()
	shapes := []sensing.Params{
		{M: 32, N: 200, Seed: 1},
		{M: 8, N: 40, Seed: 2},
		{M: 64, N: 700, Seed: 3},
	}
	for _, p := range shapes {
		for _, mk := range []func(sensing.Params) (sensing.Matrix, error){
			func(p sensing.Params) (sensing.Matrix, error) { return sensing.NewDense(p) },
			func(p sensing.Params) (sensing.Matrix, error) { return sensing.NewSeeded(p) },
		} {
			m, _, y := bompFixture(t, mk, p, 4)
			got, err := ws.BOMP(m, y, Options{MaxIterations: IterationBudget(4)})
			if err != nil {
				t.Fatal(err)
			}
			want, err := BOMP(m, y, Options{MaxIterations: IterationBudget(4)})
			if err != nil {
				t.Fatal(err)
			}
			if got.Mode != want.Mode || len(got.Support) != len(want.Support) {
				t.Fatalf("shape %+v: workspace result diverges", p)
			}
		}
	}
}

// TestWorkspaceBOMPZeroAlloc pins the tentpole property: steady-state
// BOMP through a warm Workspace performs zero heap allocations. The
// geometry keeps M·N below the Dense parallel-correlation threshold so
// the run is single-goroutine and deterministic; GC is disabled during
// the measurement so sync.Pool reclamation cannot flake the count.
func TestWorkspaceBOMPZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	p := sensing.Params{M: 48, N: 400, Seed: 43}
	m, err := sensing.NewDense(p)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := workload.MajorityDominated(p.N, 6, 1800, 300, 3000, 10)
	y := m.Measure(x, nil)
	opt := Options{MaxIterations: IterationBudget(6)}

	ws := NewWorkspace()
	if _, err := ws.BOMP(m, y, opt); err != nil { // warm-up sizes all buffers
		t.Fatal(err)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ws.BOMP(m, y, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Workspace BOMP allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWorkspaceSeededZeroAlloc pins the same property on the Seeded
// ensemble below its parallel threshold (the serial regeneration path
// with pooled column scratch and stack PRNGs).
func TestWorkspaceSeededZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	p := sensing.Params{M: 16, N: 30, Seed: 47} // N < 2·colGenChunk: serial path
	m, err := sensing.NewSeeded(p)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := workload.MajorityDominated(p.N, 2, 1800, 300, 3000, 10)
	y := m.Measure(x, nil)
	opt := Options{MaxIterations: IterationBudget(2)}

	ws := NewWorkspace()
	if _, err := ws.BOMP(m, y, opt); err != nil {
		t.Fatal(err)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ws.BOMP(m, y, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Seeded Workspace BOMP allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWorkspaceRankDeficientReselect drives the engine into the
// rank-deficient branch (duplicate dictionary columns) and checks it
// recovers by re-running the argmax without error and without selecting
// the excluded column again.
func TestWorkspaceRankDeficientReselect(t *testing.T) {
	// A 4×6 matrix whose later columns duplicate earlier ones.
	mat := dupMatrix{}
	y := linalg.Vector{1, 2, 3, 4}
	res, err := NewWorkspace().OMP(mat, y, Options{MaxIterations: 4, disableEarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support) == 0 || len(res.Coef) != len(res.Support) {
		t.Fatalf("no selection survived: support=%v coef=%v", res.Support, res.Coef)
	}
	seen := map[int]bool{}
	for _, j := range res.Support {
		if seen[j%3] {
			t.Fatalf("direction %d selected twice: %v", j%3, res.Support)
		}
		seen[j%3] = true
	}
}

// dupMatrix is a 4×6 measurement matrix with duplicated columns: column
// j is the unit vector e_{j mod 3}, so columns 3..5 equal columns 0..2,
// forcing ErrRankDeficient on the second pick of any direction.
type dupMatrix struct{}

func (dupMatrix) Params() sensing.Params { return sensing.Params{M: 4, N: 6} }
func (dupMatrix) Col(j int, dst linalg.Vector) linalg.Vector {
	dst = ensureVec(dst, 4)
	clear(dst)
	dst[j%3] = 1
	return dst
}
func (d dupMatrix) Measure(x, dst linalg.Vector) linalg.Vector {
	dst = ensureVec(dst, 4)
	clear(dst)
	for j, v := range x {
		dst[j%3] += v
	}
	return dst
}
func (d dupMatrix) MeasureSparse(idx []int, vals []float64, dst linalg.Vector) linalg.Vector {
	dst = ensureVec(dst, 4)
	clear(dst)
	for k, j := range idx {
		d.AddCol(j, vals[k], dst)
	}
	return dst
}
func (dupMatrix) AddCol(j int, v float64, y linalg.Vector) { y[j%3] += v }
func (dupMatrix) Correlate(r, dst linalg.Vector) linalg.Vector {
	dst = ensureVec(dst, 6)
	for j := range dst {
		dst[j] = r[j%3]
	}
	return dst
}
func (d dupMatrix) CorrelateBatch(rs, dsts []linalg.Vector) {
	for q := range rs {
		d.Correlate(rs[q], dsts[q])
	}
}
func (d dupMatrix) ExtensionColumn(dst linalg.Vector) linalg.Vector {
	ones := linalg.Vector{1, 1, 1, 1, 1, 1}
	return d.Measure(ones, dst).Scale(1 / math.Sqrt(6))
}
