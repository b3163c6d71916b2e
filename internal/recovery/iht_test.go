package recovery

import (
	"math"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/xrand"
)

func TestIHTExactRecovery(t *testing.T) {
	r := xrand.New(81)
	const n, m, s = 256, 110, 8
	d := dense(t, m, n, 82)
	x, want := biasedSparse(r, n, s, 0, 1, 10)
	y := d.Measure(x, nil)
	res, err := IHT(d, y, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !supportEqual(res.Support, want) {
		t.Fatalf("support = %v, want %v", res.Support, want)
	}
	if !res.X.Equal(x, 1e-6) {
		t.Fatal("recovered vector mismatch")
	}
}

func TestBiasedIHTRecoversBias(t *testing.T) {
	r := xrand.New(83)
	const n, m, s = 256, 120, 6
	const bias = 5000.0
	d := dense(t, m, n, 84)
	x, want := biasedSparse(r, n, s, bias, 500, 3000)
	y := d.Measure(x, nil)
	res, err := BiasedIHT(d, y, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mode-bias) > 1e-2*bias {
		t.Fatalf("mode = %v, want %v", res.Mode, bias)
	}
	got := map[int]bool{}
	for _, j := range res.Support {
		got[j] = true
	}
	missed := 0
	for _, j := range want {
		if !got[j] {
			missed++
		}
	}
	if missed > 0 {
		t.Fatalf("missed %d planted outliers: %v vs %v", missed, res.Support, want)
	}
}

func TestIHTAgreesWithOMPAndCoSaMP(t *testing.T) {
	r := xrand.New(85)
	const n, m, s = 200, 100, 5
	d := dense(t, m, n, 86)
	for trial := 0; trial < 3; trial++ {
		x, _ := biasedSparse(r, n, s, 0, 2, 9)
		y := d.Measure(x, nil)
		a, err := OMP(d, y, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := CoSaMP(d, y, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := IHT(d, y, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !a.X.Equal(b.X, 1e-5) || !a.X.Equal(c.X, 1e-5) {
			t.Fatalf("trial %d: recovery families disagree", trial)
		}
	}
}

func TestIHTValidation(t *testing.T) {
	d := dense(t, 30, 60, 87)
	if _, err := IHT(d, make(linalg.Vector, 30), 0, Options{}); err == nil {
		t.Fatal("s=0 accepted")
	}
	if _, err := IHT(d, make(linalg.Vector, 29), 3, Options{}); err == nil {
		t.Fatal("bad dimension accepted")
	}
	res, err := IHT(d, make(linalg.Vector, 30), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X.Norm2() != 0 {
		t.Fatal("zero measurement produced nonzero recovery")
	}
}

func TestHardThreshold(t *testing.T) {
	var sc thresholdScratch
	v := linalg.Vector{5, -9, 2, 0, 7}
	sc.hardThreshold(v, 2)
	if v[0] != 0 || v[1] != -9 || v[2] != 0 || v[4] != 7 {
		t.Fatalf("hardThreshold = %v", v)
	}
	w := linalg.Vector{1, 2}
	sc.hardThreshold(w, 5)
	if w[0] != 1 || w[1] != 2 {
		t.Fatal("s >= len must be identity")
	}
}

func TestNonzeroIndices(t *testing.T) {
	got := nonzeroIndices([]int{7, 7, 7}, linalg.Vector{0, 3, 0, -1})
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("nonzeroIndices = %v", got)
	}
}
