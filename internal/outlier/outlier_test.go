package outlier

import (
	"math"
	"testing"
	"testing/quick"

	"csoutlier/internal/linalg"
	"csoutlier/internal/xrand"
)

func TestTopKBasic(t *testing.T) {
	x := linalg.Vector{10, 10, 100, 10, -50, 10, 13}
	got := TopK(x, 10, 2)
	if len(got) != 2 || got[0].Index != 2 || got[1].Index != 4 {
		t.Fatalf("TopK = %v", got)
	}
}

func TestTopKFewerThanK(t *testing.T) {
	x := linalg.Vector{5, 5, 7, 5}
	got := TopK(x, 5, 10)
	if len(got) != 1 || got[0].Index != 2 {
		t.Fatalf("TopK = %v", got)
	}
	if TopK(x, 5, 0) != nil {
		t.Fatal("k=0 must return nil")
	}
}

func TestTopKTieBreakByIndex(t *testing.T) {
	x := linalg.Vector{0, 3, -3, 0}
	got := TopK(x, 0, 2)
	if got[0].Index != 1 || got[1].Index != 2 {
		t.Fatalf("tie-break failed: %v", got)
	}
}

func TestTopKOutlierVsTopValue(t *testing.T) {
	// Figure 1(b): the k-outliers are NOT the top-k values. With mode
	// 1800, a key at 0 diverges more than a key at 2500.
	x := linalg.Vector{1800, 2500, 0, 1800}
	got := TopK(x, 1800, 1)
	if got[0].Index != 2 {
		t.Fatalf("outlier-k picked %v, want index 2 (value 0)", got)
	}
}

func TestTopKOf(t *testing.T) {
	cands := []KV{{1, 10}, {2, 90}, {3, 55}}
	got := TopKOf(cands, 50, 2)
	if got[0].Index != 1 || got[1].Index != 2 {
		t.Fatalf("TopKOf = %v", got)
	}
	// Input must not be mutated.
	if cands[0].Index != 1 || cands[1].Index != 2 {
		t.Fatal("TopKOf mutated input")
	}
}

func TestModeMajority(t *testing.T) {
	x := linalg.Vector{7, 7, 7, 1, 2}
	m, ok := Mode(x)
	if !ok || m != 7 {
		t.Fatalf("Mode = %v %v", m, ok)
	}
}

func TestModeNoMajority(t *testing.T) {
	if _, ok := Mode(linalg.Vector{1, 2, 3, 1}); ok {
		t.Fatal("no majority, but Mode returned ok")
	}
	if _, ok := Mode(linalg.Vector{}); ok {
		t.Fatal("empty vector has no mode")
	}
}

func TestModeExactHalfIsNotMajority(t *testing.T) {
	if _, ok := Mode(linalg.Vector{5, 5, 1, 2}); ok {
		t.Fatal("half is not a strict majority")
	}
}

func TestErrorOnKey(t *testing.T) {
	truth := []KV{{1, 10}, {2, 20}, {3, 30}}
	if ek := ErrorOnKey(truth, truth); ek != 0 {
		t.Fatalf("identical sets EK = %v", ek)
	}
	est := []KV{{1, 99}, {9, 1}, {8, 2}}
	if ek := ErrorOnKey(truth, est); math.Abs(ek-2.0/3.0) > 1e-12 {
		t.Fatalf("EK = %v, want 2/3", ek)
	}
	if ek := ErrorOnKey(truth, nil); ek != 1 {
		t.Fatalf("empty estimate EK = %v", ek)
	}
	if ek := ErrorOnKey(nil, est); ek != 0 {
		t.Fatalf("empty truth EK = %v", ek)
	}
	// Duplicate estimated keys must not double-count.
	dup := []KV{{1, 1}, {1, 2}, {1, 3}}
	if ek := ErrorOnKey(truth, dup); math.Abs(ek-2.0/3.0) > 1e-12 {
		t.Fatalf("duplicate EK = %v, want 2/3", ek)
	}
}

func TestErrorOnKeyRange(t *testing.T) {
	r := xrand.New(1)
	check := func(seed uint64) bool {
		rr := xrand.New(seed)
		truth := make([]KV, 1+rr.Intn(10))
		est := make([]KV, 1+rr.Intn(10))
		for i := range truth {
			truth[i] = KV{rr.Intn(20), rr.NormFloat64()}
		}
		for i := range est {
			est[i] = KV{rr.Intn(20), rr.NormFloat64()}
		}
		ek := ErrorOnKey(truth, est)
		return ek >= 0 && ek <= 1
	}
	_ = r
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorOnValue(t *testing.T) {
	truth := []KV{{1, 3}, {2, 4}}
	if ev := ErrorOnValue(truth, truth); ev != 0 {
		t.Fatalf("identical EV = %v", ev)
	}
	// Estimate ordered by value must compare position-wise: truth sorted
	// desc = [4,3]; est = [4,0] → err = 3/5.
	est := []KV{{9, 0}, {2, 4}}
	if ev := ErrorOnValue(truth, est); math.Abs(ev-0.6) > 1e-12 {
		t.Fatalf("EV = %v, want 0.6", ev)
	}
	// Short estimate: missing entries count as zero.
	if ev := ErrorOnValue(truth, []KV{{2, 4}}); math.Abs(ev-0.6) > 1e-12 {
		t.Fatalf("short EV = %v, want 0.6", ev)
	}
	if ev := ErrorOnValue(nil, nil); ev != 0 {
		t.Fatalf("empty EV = %v", ev)
	}
	if ev := ErrorOnValue([]KV{{0, 0}}, []KV{{0, 5}}); ev != 1 {
		t.Fatalf("zero-norm truth with wrong estimate EV = %v", ev)
	}
}

func TestErrorOnValueOrderInsensitive(t *testing.T) {
	// Both lists are re-ordered by value, so input order is irrelevant.
	truth := []KV{{1, 3}, {2, 9}, {3, 6}}
	estA := []KV{{7, 9}, {8, 6}, {9, 3}}
	estB := []KV{{9, 3}, {7, 9}, {8, 6}}
	if a, b := ErrorOnValue(truth, estA), ErrorOnValue(truth, estB); a != b || a != 0 {
		t.Fatalf("order sensitivity: %v vs %v", a, b)
	}
}
