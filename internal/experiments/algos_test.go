package experiments

import (
	"strings"
	"testing"
)

func TestAlgosBiasAwareBeatsBiasBlind(t *testing.T) {
	tables, err := Run("algos", Config{Scale: 0.05, Trials: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	series := map[string][]float64{}
	for _, s := range tb.Series {
		series[s.Name] = s.Y
	}
	last := len(tb.X) - 1
	// Bias-aware BOMP converges to (near-)exact keys at the top of the
	// sweep...
	y, ok := series["BOMP"]
	if !ok {
		t.Fatal(`missing series "BOMP"`)
	}
	if y[last] > 0.14 {
		t.Fatalf("BOMP EK at max M = %v, want ≈0", y[last])
	}
	// ...while sparse-at-zero OMP stays badly wrong at every M: the data
	// is not sparse at zero (paper §3.2).
	for i, v := range series["OMP(no-bias)"] {
		if v < 0.5 {
			t.Fatalf("OMP(no-bias) EK[%d] = %v: bias-blind recovery should not work here", i, v)
		}
	}
}

func TestAlgosCSVHasAllSeries(t *testing.T) {
	tables, err := Run("algos", Config{Scale: 0.05, Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tables[0].WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"BOMP", "OMP(no-bias)"} {
		if !strings.Contains(out, name) {
			t.Fatalf("CSV missing series %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "# Extension") {
		t.Fatal("CSV missing title comment")
	}
}
