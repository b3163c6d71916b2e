package experiments

import "testing"

func TestEnsemblesAllConverge(t *testing.T) {
	tables, err := Run("ensembles", Config{Scale: 0.05, Trials: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Series) != 2 {
		t.Fatalf("series = %d, want 2 ensembles", len(tb.Series))
	}
	last := len(tb.X) - 1
	for _, s := range tb.Series {
		if s.Y[last] > 0.14 {
			t.Fatalf("%s EK at max M = %v, want ≈0", s.Name, s.Y[last])
		}
		if s.Y[0] < s.Y[last] {
			t.Fatalf("%s error grew with M", s.Name)
		}
	}
}
