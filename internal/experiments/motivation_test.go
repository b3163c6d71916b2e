package experiments

import "testing"

func TestFig1LocalViewsDiffer(t *testing.T) {
	tables, err := Run("fig1", Config{Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig1 tables = %d", len(tables))
	}
	// Local top-k outliers must overlap poorly with the global truth —
	// the paper's challenge 1 ("local outliers and mode are often very
	// different from the global ones").
	var sum float64
	overlap := tables[0].Series[0].Y
	for _, v := range overlap {
		if v < 0 || v > 1 {
			t.Fatalf("overlap out of range: %v", v)
		}
		sum += v
	}
	if avg := sum / float64(len(overlap)); avg > 0.5 {
		t.Fatalf("local views agree too well with global truth (avg overlap %v): noise regime wrong", avg)
	}
	// The outlier-k rule matches the truth by construction; the plain
	// top-k rule must miss the negative outliers.
	agree := tables[1].Series[0].Y
	if agree[0] != 1 {
		t.Fatalf("outlier-k rule agreement = %v, want 1", agree[0])
	}
	if agree[1] >= agree[0] {
		t.Fatalf("plain top-k (%v) should not match the outlier set as well as outlier-k (%v)", agree[1], agree[0])
	}
}

func TestJitterDegradesGracefully(t *testing.T) {
	tb := run(t, "jitter")[0]
	var ek, modeErr []float64
	for _, s := range tb.Series {
		switch s.Name {
		case "EK":
			ek = s.Y
		case "mode-rel-err":
			modeErr = s.Y
		}
	}
	if ek == nil || modeErr == nil {
		t.Fatal("missing series")
	}
	// Zero jitter = the exact-sparse regime: keys exact, mode exact.
	if ek[0] != 0 {
		t.Fatalf("EK at zero jitter = %v", ek[0])
	}
	if modeErr[0] > 1e-6 {
		t.Fatalf("mode error at zero jitter = %v", modeErr[0])
	}
	// Small jitter (≤2% of mode) must stay accurate on keys.
	for i, frac := range tb.X {
		if frac <= 0.02 && ek[i] > 0.21 {
			t.Fatalf("EK at jitter %v = %v: not robust", frac, ek[i])
		}
	}
	// The mode estimate degrades with jitter but stays within a few
	// jitter standard deviations.
	last := len(tb.X) - 1
	if modeErr[last] > 3*tb.X[last] {
		t.Fatalf("mode error %v at jitter %v: blew past the jitter scale", modeErr[last], tb.X[last])
	}
}
