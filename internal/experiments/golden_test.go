package experiments

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"csoutlier/internal/xrand/xrandtest"
)

// goldenFile is the evaluation's one record: the stdout of
//
//	go run ./cmd/csbench -scale 0.02 -seed 42 all > internal/experiments/testdata/csbench_scale0.02_seed42.txt
//
// Every table is a function of the seed (the Hadoop model charges counted
// work, not measured time), so a change that moves a cell reruns that
// command and says why the record moved.
const goldenFile = "testdata/csbench_scale0.02_seed42.txt"

// TestEvaluationGolden renders every registered experiment at tiny(),
// as csbench does, and diffs the output against the record byte for byte.
func TestEvaluationGolden(t *testing.T) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, id := range IDs() {
		for _, tb := range run(t, id) {
			if err := tb.Print(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, wl := strings.SplitAfter(buf.String(), "\n"), strings.SplitAfter(string(want), "\n")
	for i := range max(len(got), len(wl)) {
		if g, w := lineAt(got, i), lineAt(wl, i); g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q\nregenerate it with the command in goldenFile's comment and say why it moved", goldenFile, i+1, g, w)
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

// TestFig4aPhaseTransitionGolden is the golden-figure regression test for
// the paper's headline result: Figure 4(a)'s 0→1 phase transition of
// exact-recovery probability in M, reproduced at tiny scale (20 trials,
// sparsities 3/6/12, M swept 10…100 over N=1000 keys; ~2s). It pins the
// qualitative shape — the invariants any faithful reproduction must
// show — rather than exact probabilities, so it survives reasonable
// algorithmic changes but fails loudly if recovery quality regresses:
//
//   - every curve starts at (or near) 0 and ends at exactly 1;
//   - the transition point M₅₀ is ordered by sparsity:
//     M₅₀(s=3) < M₅₀(s=6) < M₅₀(s=12) — sparser signals need fewer
//     measurements (M = O(s·log N), Theorem 1);
//   - BOMP transitions within two sweep steps of OMP with the mode known
//     in advance — learning the bias costs roughly one extra measurement
//     batch, not a different regime (§3.2).
func TestFig4aPhaseTransitionGolden(t *testing.T) {
	seed := xrandtest.Seed(t, 0xf164a)
	tables, err := Fig4a(Config{Scale: 0.06, Trials: 20, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("Fig4a returned %d tables", len(tables))
	}
	tb := tables[0]

	series := func(name string) []float64 {
		for _, s := range tb.Series {
			if s.Name == name {
				return s.Y
			}
		}
		t.Fatalf("series %q missing from %v", name, seriesNames(tb.Series))
		return nil
	}
	// m50 is the index of the first sweep point with P ≥ 0.5 — the
	// discrete location of the phase transition.
	m50 := func(y []float64) int {
		for i, p := range y {
			if p >= 0.5 {
				return i
			}
		}
		return len(y)
	}

	sparsities := []int{3, 6, 12}
	var transitions []int
	for _, s := range sparsities {
		name := seriesName("BOMP s=", s)
		y := series(name)
		known := series(seriesName("OMP+known-mode s=", s))

		if y[0] > 0.2 {
			t.Errorf("%s: P at smallest M = %v, want ≈0 (below the transition)", name, y[0])
		}
		if last := y[len(y)-1]; last != 1 {
			t.Errorf("%s: P at largest M = %v, want exactly 1 (above the transition)", name, last)
		}
		if last := known[len(known)-1]; last != 1 {
			t.Errorf("OMP+known-mode s=%d: P at largest M = %v, want 1", s, last)
		}
		bompAt, knownAt := m50(y), m50(known)
		if d := math.Abs(float64(bompAt - knownAt)); d > 2 {
			t.Errorf("s=%d: BOMP transitions at sweep index %d, known-mode at %d — more than 2 steps apart", s, bompAt, knownAt)
		}
		transitions = append(transitions, bompAt)
	}
	// Recovering 12 outliers from 10 measurements is structurally
	// impossible (support can't exceed the iteration count), so the
	// densest curve must start at exactly 0.
	if y := series("BOMP s=12"); y[0] != 0 {
		t.Errorf("BOMP s=12: P = %v at M=10, want exactly 0 (support cannot exceed M)", y[0])
	}
	// The transition ordering, strict across the extremes.
	for i := 1; i < len(transitions); i++ {
		if transitions[i] < transitions[i-1] {
			t.Errorf("M₅₀ not ordered by sparsity: s=%d transitions at index %d, s=%d at %d",
				sparsities[i-1], transitions[i-1], sparsities[i], transitions[i])
		}
	}
	if !xrandtest.Overridden() && transitions[len(transitions)-1] <= transitions[0] {
		t.Errorf("phase transition did not move with sparsity: indices %v", transitions)
	}
}

func seriesNames(ss []Series) string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}
