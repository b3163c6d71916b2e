package experiments

import "testing"

func TestPointQConverges(t *testing.T) {
	tb := run(t, "pointq")[0]
	if len(tb.Series) != 4 {
		t.Fatalf("series = %d, want 4 quality/cost columns", len(tb.Series))
	}
	byName := map[string][]float64{}
	for _, s := range tb.Series {
		byName[s.Name] = s.Y
	}
	last := len(tb.X) - 1
	if recall := byName["outlier recall"]; recall[last] < 0.999 {
		t.Fatalf("recall at max M = %v, want ≈1", recall[last])
	}
	fp := byName["clean false-pos rate"]
	if fp[last] > 0.01 {
		t.Fatalf("false-pos rate at max M = %v, want ≈0", fp[last])
	}
	if fp[0] < fp[last] {
		t.Fatalf("false-pos rate grew with M: %v", fp)
	}
	// Sketch bytes are exactly 8·M.
	kb := byName["sketch KiB"]
	for i, m := range tb.X {
		if want := 8 * m / 1024; kb[i] != want {
			t.Fatalf("sketch KiB at M=%v is %v, want %v", m, kb[i], want)
		}
	}
}
