package csoutlier

import "testing"

func TestEnsemblesAreIncompatible(t *testing.T) {
	keys := testKeys(100)
	g, err := NewSketcher(keys, Config{M: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSketcher(keys, Config{M: 40, Seed: 1, Ensemble: CountSketch})
	if err != nil {
		t.Fatal(err)
	}
	yg, _ := g.SketchPairs(nil)
	ys, _ := s.SketchPairs(nil)
	if err := yg.Add(ys); err == nil {
		t.Fatal("cross-ensemble Add accepted")
	}
	// And through the codec.
	data, err := ys.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.UnmarshalSketch(data); err == nil {
		t.Fatal("cross-ensemble unmarshal accepted")
	}
	if _, err := s.UnmarshalSketch(data); err != nil {
		t.Fatalf("same-ensemble unmarshal failed: %v", err)
	}
}

func TestUnknownEnsembleRejected(t *testing.T) {
	if _, err := NewSketcher(testKeys(10), Config{M: 4, Ensemble: Ensemble(99)}); err == nil {
		t.Fatal("unknown ensemble accepted")
	}
}
