package workload

import (
	"math"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/xrand/xrandtest"
)

func TestMajorityDominatedStructure(t *testing.T) {
	const n, s, mode = 1000, 50, 5000.0
	x, support := MajorityDominated(n, s, mode, 100, 1000, 1)
	if len(support) != s {
		t.Fatalf("support size %d", len(support))
	}
	atMode := 0
	for _, v := range x {
		if v == mode {
			atMode++
		}
	}
	if atMode != n-s {
		t.Fatalf("entries at mode = %d, want %d", atMode, n-s)
	}
	for _, j := range support {
		d := math.Abs(x[j] - mode)
		if d < 100 || d > 1000 {
			t.Fatalf("outlier %d magnitude %v outside [100,1000]", j, d)
		}
	}
	m, ok := outlier.Mode(x)
	if !ok || m != mode {
		t.Fatalf("Mode = %v %v", m, ok)
	}
}

func TestMajorityDominatedDeterministic(t *testing.T) {
	a, sa := MajorityDominated(100, 10, 7, 1, 2, 9)
	b, sb := MajorityDominated(100, 10, 7, 1, 2, 9)
	if !a.Equal(b, 0) {
		t.Fatal("same seed, different vectors")
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same seed, different support")
		}
	}
	c, _ := MajorityDominated(100, 10, 7, 1, 2, 10)
	if a.Equal(c, 0) {
		t.Fatal("different seed, equal vectors")
	}
}

func TestMajorityDominatedPanicsOnBadS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("s > n accepted")
		}
	}()
	MajorityDominated(5, 6, 0, 1, 2, 1)
}

func TestPowerLawProperties(t *testing.T) {
	x := PowerLaw(20000, 0.9, 2)
	for i, v := range x {
		if v < 1 {
			t.Fatalf("Pareto(1, α) sample below scale at %d: %v", i, v)
		}
	}
	// Heavy tail: max should dwarf the median.
	sorted := x.Clone()
	max, med := 0.0, 0.0
	for _, v := range sorted {
		if v > max {
			max = v
		}
	}
	cnt := 0
	for _, v := range sorted {
		if v < 3 {
			cnt++
		}
	}
	med = float64(cnt) / float64(len(x))
	if max < 100 {
		t.Fatalf("max = %v, expected heavy tail", max)
	}
	if med < 0.5 {
		t.Fatalf("mass below 3 = %v, expected concentration near scale", med)
	}
}

func TestPowerLawAlphaOrdersTails(t *testing.T) {
	// Smaller α → heavier tail → larger extreme values, on average.
	heavy := PowerLaw(50000, 0.9, 3)
	light := PowerLaw(50000, 1.5, 3)
	maxOf := func(v linalg.Vector) float64 {
		m := 0.0
		for _, x := range v {
			if x > m {
				m = x
			}
		}
		return m
	}
	if maxOf(heavy) <= maxOf(light) {
		t.Fatalf("α=0.9 max %v <= α=1.5 max %v", maxOf(heavy), maxOf(light))
	}
}

func TestSplitZeroSumNoiseSumsExactly(t *testing.T) {
	// Property: however the data is split, the slices sum back to the
	// original (the zero-sum noise cancels). Seeded so a failing draw is
	// replayable (-seed) rather than lost with the run.
	rng := xrandtest.New(t, 0x5eed5)
	for trial := 0; trial < 30; trial++ {
		seed := rng.Uint64()
		l := 1 + rng.Intn(7)
		x, _ := MajorityDominated(200, 10, 1800, 100, 500, seed)
		slices := SplitZeroSumNoise(x, l, 450, seed+1)
		if len(slices) != l {
			t.Fatalf("trial %d: %d slices, want %d", trial, len(slices), l)
		}
		sum := make(linalg.Vector, len(x))
		for _, s := range slices {
			sum.Add(s)
		}
		if !sum.Equal(x, 1e-9) {
			t.Fatalf("trial %d (l=%d, seed=%d): slices do not sum back to the original", trial, l, seed)
		}
	}
}

func TestSplitZeroSumNoiseLocalSlicesAreDense(t *testing.T) {
	// The point of the noise: local slices must NOT be majority-dominated
	// even though the global is (paper Figure 1).
	x, _ := MajorityDominated(500, 20, 1800, 200, 900, 4)
	slices := SplitZeroSumNoise(x, 3, 450, 5)
	for l, s := range slices {
		if _, ok := outlier.Mode(s); ok {
			t.Fatalf("slice %d still has an exact majority mode", l)
		}
	}
}

func TestGenerateClickLogsInvariant(t *testing.T) {
	for _, q := range []QueryType{CoreSearchClicks, AdsClicks, AnswerClicks} {
		cfg := ClickLogConfig{Query: q, ScaleN: 0.05, Seed: 6}
		cl := GenerateClickLogs(cfg)
		if len(cl.Slices) != dataCenters {
			t.Fatalf("%v: %d slices", q, len(cl.Slices))
		}
		if len(cl.Keys) != len(cl.Global) {
			t.Fatalf("%v: keys %d != N %d", q, len(cl.Keys), len(cl.Global))
		}
		// Slices sum to the global.
		sum := make(linalg.Vector, len(cl.Global))
		for _, s := range cl.Slices {
			sum.Add(s)
		}
		if !sum.Equal(cl.Global, 1e-6) {
			t.Fatalf("%v: slices do not sum to global", q)
		}
		// Global is majority-dominated at the planted mode.
		m, ok := outlier.Mode(cl.Global)
		if !ok || m != cl.Mode {
			t.Fatalf("%v: global mode = %v %v, want %v", q, m, ok, cl.Mode)
		}
		// Truth has exactly S outliers, strongest first.
		if len(cl.Truth) != cl.S {
			t.Fatalf("%v: %d truth outliers, want %d", q, len(cl.Truth), cl.S)
		}
		for i := 1; i < len(cl.Truth); i++ {
			if math.Abs(cl.Truth[i].Value-cl.Mode) > math.Abs(cl.Truth[i-1].Value-cl.Mode) {
				t.Fatalf("%v: truth not sorted by divergence at %d", q, i)
			}
		}
	}
}

func TestClickLogsKeysSortedDistinct(t *testing.T) {
	cl := GenerateClickLogs(ClickLogConfig{Query: CoreSearchClicks, ScaleN: 0.03, Seed: 7})
	for i := 1; i < len(cl.Keys); i++ {
		if cl.Keys[i-1] >= cl.Keys[i] {
			t.Fatalf("keys not strictly sorted at %d: %q >= %q", i, cl.Keys[i-1], cl.Keys[i])
		}
	}
}

func TestClickLogsSparsityProfiles(t *testing.T) {
	// Paper Figure 9: the three query types have different sparsity.
	a := GenerateClickLogs(ClickLogConfig{Query: CoreSearchClicks, ScaleN: 0.1, Seed: 8})
	b := GenerateClickLogs(ClickLogConfig{Query: AdsClicks, ScaleN: 0.1, Seed: 8})
	if a.S >= b.S {
		t.Fatalf("core-search sparsity %d should be < ads sparsity %d", a.S, b.S)
	}
}

func TestPairsForNodeRoundTrip(t *testing.T) {
	cl := GenerateClickLogs(ClickLogConfig{Query: AnswerClicks, ScaleN: 0.02, Seed: 9})
	pairs := cl.PairsForNode(1)
	for k, v := range pairs {
		// Find the key's index.
		found := false
		for i, key := range cl.Keys {
			if key == k {
				if cl.Slices[1][i] != v {
					t.Fatalf("pair %q = %v, slice has %v", k, v, cl.Slices[1][i])
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("pair key %q not in dictionary", k)
		}
	}
}

func TestTrueTopOutliersClamps(t *testing.T) {
	cl := GenerateClickLogs(ClickLogConfig{Query: CoreSearchClicks, ScaleN: 0.01, Seed: 10})
	if got := cl.TrueTopOutliers(1 << 20); len(got) != cl.S {
		t.Fatalf("clamp failed: %d", len(got))
	}
	if got := cl.TrueTopOutliers(3); len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestQueryTypeString(t *testing.T) {
	if CoreSearchClicks.String() != "core-search" || AdsClicks.String() != "ads" || AnswerClicks.String() != "answer" {
		t.Fatal("String() labels wrong")
	}
}
