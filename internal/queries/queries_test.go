package queries

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"csoutlier/internal/xrand"
)

// materialize expands a Recovered into the full N-vector for
// brute-force cross-checks.
func materialize(r *Recovered) []float64 {
	x := make([]float64, r.N)
	for i := range x {
		x[i] = r.Mode
	}
	for i, j := range r.Support {
		x[j] = r.Values[i]
	}
	return x
}

func sample() *Recovered {
	return &Recovered{
		N:       10,
		Mode:    5,
		Support: []int{2, 7, 9},
		Values:  []float64{100, -50, 7},
	}
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Recovered{
		{N: 0},
		{N: 3, Support: []int{0}, Values: nil},
		{N: 3, Support: []int{3}, Values: []float64{1}},
		{N: 3, Support: []int{-1}, Values: []float64{1}},
		{N: 3, Support: []int{1, 1}, Values: []float64{1, 2}},
		{N: 1, Support: []int{0, 0}, Values: []float64{1, 2}},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Fatalf("bad case %d accepted", i)
		}
	}
}

func TestSumMean(t *testing.T) {
	r := sample()
	want := 0.0
	for _, v := range materialize(r) {
		want += v
	}
	if got := Sum(r); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	if got := Mean(r); math.Abs(got-want/10) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestPercentileAgainstBruteForce(t *testing.T) {
	r := sample()
	x := materialize(r)
	sort.Float64s(x)
	for _, q := range []float64{0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1} {
		got, err := Percentile(r, q)
		if err != nil {
			t.Fatal(err)
		}
		rank := int(math.Ceil(q * float64(r.N)))
		if rank < 1 {
			rank = 1
		}
		want := x[rank-1]
		if got != want {
			t.Fatalf("q=%v: got %v, want %v", q, got, want)
		}
	}
	if _, err := Percentile(r, -0.1); err == nil {
		t.Fatal("q<0 accepted")
	}
	if _, err := Percentile(r, 1.1); err == nil {
		t.Fatal("q>1 accepted")
	}
}

func TestPercentileProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(50)
		s := rng.Intn(n)
		r := &Recovered{N: n, Mode: float64(rng.Intn(100))}
		perm := rng.Perm(n)
		for i := 0; i < s; i++ {
			r.Support = append(r.Support, perm[i])
			r.Values = append(r.Values, float64(rng.Intn(200)-100))
		}
		x := materialize(r)
		sort.Float64s(x)
		for _, q := range []float64{0, 0.3, 0.5, 0.9, 1} {
			got, err := Percentile(r, q)
			if err != nil {
				return false
			}
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			if got != x[rank-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
