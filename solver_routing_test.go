package csoutlier

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"csoutlier/internal/obs"
	"csoutlier/internal/recovery"
)

// solverFixture builds a sketcher + aggregated sketch with planted
// outliers at the given shape.
func solverFixture(t *testing.T, n, m int, cfg Config, planted map[int]float64) (*Sketcher, Sketch, map[string]float64) {
	t.Helper()
	keys := testKeys(n)
	cfg.M = m
	s, err := NewSketcher(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := biasedPairs(keys, 1800, planted)
	global, err := s.SketchPairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	return s, global, pairs
}

// TestForcedSolversAgree drives Detect with every forced solver on one
// exact-sparse instance and requires the identical answer — the public
// face of the multi-solver agreement contract.
func TestForcedSolversAgree(t *testing.T) {
	planted := map[int]float64{17: 4000, 63: -3500, 150: 2500, 201: -2000}
	for _, sv := range []Solver{SolverBOMP, SolverOLS, SolverCoSaMP, SolverIHT, SolverAIHT, SolverBP, SolverDantzig} {
		s, global, pairs := solverFixture(t, 300, 120, Config{Seed: 42, Solver: sv}, planted)
		rep, err := s.Detect(global, 4)
		if err != nil {
			t.Fatalf("%v: %v", sv, err)
		}
		if rep.Solver != sv.String() {
			t.Fatalf("%v: report names solver %q", sv, rep.Solver)
		}
		if math.Abs(rep.Mode-1800) > 1 {
			t.Fatalf("%v: mode = %v", sv, rep.Mode)
		}
		if len(rep.Outliers) != len(planted) {
			t.Fatalf("%v: got %d outliers, want %d: %+v", sv, len(rep.Outliers), len(planted), rep.Outliers)
		}
		for _, o := range rep.Outliers {
			if math.Abs(o.Value-pairs[o.Key]) > 1 {
				t.Fatalf("%v: outlier %q = %v, want %v", sv, o.Key, o.Value, pairs[o.Key])
			}
		}
	}
}

// TestAutoSelectorRouting pins the selection policy at the API level:
// small k routes to BOMP, large k with measurement headroom routes to
// AIHT, a high previous residual routes to Dantzig, and count-sketch
// always routes to BOMP.
func TestAutoSelectorRouting(t *testing.T) {
	planted := map[int]float64{17: 4000, 63: -3500}
	s, global, _ := solverFixture(t, 600, 300, Config{Seed: 7}, planted)

	small, err := s.Detect(global, 2)
	if err != nil {
		t.Fatal(err)
	}
	if small.Solver != "bomp" {
		t.Fatalf("k=2 routed to %q, want bomp", small.Solver)
	}

	large, err := s.DetectQuery(global, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if large.Solver != "aiht" {
		t.Fatalf("k=30 (M=300) routed to %q, want aiht", large.Solver)
	}

	reps, err := s.DetectBatch([]BatchQuery{{Global: global, K: 2, PrevResidual: 1e12}})
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Solver != "dantzig" {
		t.Fatalf("high-residual standing query routed to %q, want dantzig", reps[0].Solver)
	}

	cs, csGlobal, _ := solverFixture(t, 600, 300, Config{Seed: 7, Ensemble: CountSketch}, planted)
	csRep, err := cs.DetectQuery(csGlobal, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if csRep.Solver != "bomp" {
		t.Fatalf("count-sketch query routed to %q, want bomp", csRep.Solver)
	}
}

// TestMixedBatchRouting checks a single DetectBatch call whose queries
// route to different solvers: the BOMP subset goes through the batch
// engine, the rest solve individually, and every report carries the
// right answer.
func TestMixedBatchRouting(t *testing.T) {
	planted := map[int]float64{17: 4000, 63: -3500, 150: 2500}
	s, global, pairs := solverFixture(t, 600, 300, Config{Seed: 11}, planted)
	reps, err := s.DetectBatch([]BatchQuery{
		{Global: global, K: 3},                     // bomp
		{Global: global, K: 30},                    // aiht (large k)
		{Global: global, K: 3, PrevResidual: 1e12}, // dantzig (residual history)
		{Global: global, K: 3},                     // bomp again
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSolvers := []string{"bomp", "aiht", "dantzig", "bomp"}
	for i, rep := range reps {
		if rep.Solver != wantSolvers[i] {
			t.Fatalf("query %d routed to %q, want %q", i, rep.Solver, wantSolvers[i])
		}
		if math.Abs(rep.Mode-1800) > 1 {
			t.Fatalf("query %d: mode = %v", i, rep.Mode)
		}
		for _, o := range rep.Outliers[:min(len(rep.Outliers), 3)] {
			if math.Abs(o.Value-pairs[o.Key]) > 1 {
				t.Fatalf("query %d (%s): outlier %q = %v, want %v", i, rep.Solver, o.Key, o.Value, pairs[o.Key])
			}
		}
	}
}

// TestSolverMigrationKeepsWarmStart checks the fold-generation
// migration contract: a Selection produced by one solver warm-starts
// another, and a warm AIHT restart on unchanged data takes its
// zero-iteration fast path.
func TestSolverMigrationKeepsWarmStart(t *testing.T) {
	planted := map[int]float64{17: 4000, 63: -3500, 150: 2500}
	s, global, _ := solverFixture(t, 300, 150, Config{Seed: 13}, planted)
	cold, err := s.Detect(global, 3) // bomp
	if err != nil {
		t.Fatal(err)
	}
	if cold.Solver != "bomp" || len(cold.Selection) == 0 {
		t.Fatalf("cold run: solver %q, selection %v", cold.Solver, cold.Selection)
	}

	forced, err := NewSketcher(s.Keys(), Config{M: 150, Seed: 13, Solver: SolverAIHT})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := forced.DetectQuery(global, 3, cold.Selection)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Solver != "aiht" {
		t.Fatalf("forced run solver %q", warm.Solver)
	}
	if warm.Iterations != 0 {
		t.Fatalf("BOMP-warmed AIHT ran %d iterations, want fast path (0)", warm.Iterations)
	}
	if math.Abs(warm.Mode-cold.Mode) > 1e-6*math.Abs(cold.Mode) {
		t.Fatalf("migrated mode %v != %v", warm.Mode, cold.Mode)
	}
}

// TestSolverMetricsPreSeeded checks Instrument renders one series per
// solver in both recovery_solver_* families before any query runs —
// the exposition skips empty families, and the obscheck gate relies on
// these being present from the first scrape.
func TestSolverMetricsPreSeeded(t *testing.T) {
	s, global, _ := solverFixture(t, 300, 120, Config{Seed: 42}, map[int]float64{17: 4000})
	reg := obs.NewRegistry()
	s.Instrument(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, sv := range []string{"bomp", "ols", "cosamp", "iht", "aiht", "bp", "dantzig"} {
		if !strings.Contains(text, `recovery_solver_picks_total{solver="`+sv+`"}`) {
			t.Fatalf("picks series for %q missing before first query:\n%s", sv, text)
		}
		if !strings.Contains(text, `recovery_solver_seconds_count{solver="`+sv+`"}`) {
			t.Fatalf("seconds series for %q missing before first query", sv)
		}
	}

	// And a routed query moves its counter.
	if _, err := s.Detect(global, 1); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `recovery_solver_picks_total{solver="bomp"} 1`) {
		t.Fatal("bomp pick not counted")
	}
}

// TestWorkspaceSurvivesGC: a warmed Sketcher keeps its recovery
// workspace across back-to-back GCs (which empty a sync.Pool), and
// concurrent queries still get one each.
func TestWorkspaceSurvivesGC(t *testing.T) {
	s, global, _ := solverFixture(t, 300, 120, Config{Seed: 3}, map[int]float64{17: 4000})
	if _, err := s.Detect(global, 2); err != nil {
		t.Fatal(err)
	}
	held := s.workspace()
	second := s.workspace()
	if second == held {
		t.Fatal("one workspace checked out twice")
	}
	s.putWorkspace(held)
	s.putWorkspace(second)
	runtime.GC()
	runtime.GC()
	if got := s.workspace(); got != held {
		t.Fatal("the held workspace did not survive two GCs")
	}
}

// TestAIHTThroughPooledWorkspace: Detect and DetectBatch run an AIHT
// pick on the Sketcher's recycled workspaces — warmed by other solvers,
// shapes and hints — and report what a one-shot BiasedAIHTWarm does.
func TestAIHTThroughPooledWorkspace(t *testing.T) {
	planted := map[int]float64{17: 4000, 63: -3500, 150: 2500, 201: -2000}
	s, global, _ := solverFixture(t, 600, 300, Config{Seed: 7}, planted)
	const k = 30
	iters := recovery.IterationBudget(k)
	want, err := recovery.BiasedAIHTWarm(s.recMat, global.Y, iters, nil, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, rep *Report) {
		t.Helper()
		if rep.Solver != "aiht" {
			t.Fatalf("%s: routed to %q, want aiht", label, rep.Solver)
		}
		if math.Float64bits(rep.Mode) != math.Float64bits(want.Mode) ||
			math.Float64bits(rep.Residual) != math.Float64bits(want.Residual) ||
			rep.Iterations != want.Iterations || !slices.Equal(rep.Selection, want.Selection) {
			t.Fatalf("%s: report diverges from a fresh-workspace AIHT", label)
		}
	}
	for round := 0; round < 3; round++ {
		if _, err := s.Detect(global, 2); err != nil { // BOMP on the same workspace in between
			t.Fatal(err)
		}
		rep, err := s.Detect(global, k)
		if err != nil {
			t.Fatal(err)
		}
		check("Detect", rep)
		reps, err := s.DetectBatch([]BatchQuery{{Global: global, K: k}, {Global: global, K: 2}, {Global: global, K: k}})
		if err != nil {
			t.Fatal(err)
		}
		check("DetectBatch[0]", reps[0])
		check("DetectBatch[2]", reps[2])
		if reps[1].Solver != "bomp" {
			t.Fatalf("k=2 routed to %q", reps[1].Solver)
		}
	}
}
