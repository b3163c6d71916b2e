package recovery

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/xrand"
)

// biasedSparse builds an N-vector equal to bias everywhere except s
// planted outliers with offsets of magnitude in [lo, hi].
func biasedSparse(r *xrand.RNG, n, s int, bias, lo, hi float64) (linalg.Vector, []int) {
	x := make(linalg.Vector, n)
	x.Fill(bias)
	support := map[int]bool{}
	for len(support) < s {
		support[r.Intn(n)] = true
	}
	idx := make([]int, 0, s)
	for j := range support {
		idx = append(idx, j)
	}
	sort.Ints(idx)
	for _, j := range idx {
		mag := lo + (hi-lo)*r.Float64()
		if r.Float64() < 0.5 {
			mag = -mag
		}
		x[j] = bias + mag
	}
	return x, idx
}

func dense(t testing.TB, m, n int, seed uint64) *sensing.Dense {
	t.Helper()
	d, err := sensing.NewDense(sensing.Params{M: m, N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func supportEqual(got []int, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]int(nil), got...)
	sort.Ints(g)
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

func TestOMPExactRecoverySparseAtZero(t *testing.T) {
	r := xrand.New(1)
	const n, m, s = 256, 90, 8
	d := dense(t, m, n, 7)
	x, want := biasedSparse(r, n, s, 0, 1, 10)
	y := d.Measure(x, nil)
	res, err := OMP(d, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !supportEqual(res.Support, want) {
		t.Fatalf("support = %v, want %v", res.Support, want)
	}
	if !res.X.Equal(x, 1e-6) {
		t.Fatal("recovered vector mismatch")
	}
	if res.Mode != 0 {
		t.Fatalf("OMP mode = %v", res.Mode)
	}
}

func TestBOMPRecoversUnknownBias(t *testing.T) {
	r := xrand.New(2)
	const n, m, s = 256, 100, 8
	const bias = 5000.0
	d := dense(t, m, n, 8)
	x, want := biasedSparse(r, n, s, bias, 100, 1000)
	y := d.Measure(x, nil)
	res, err := BOMP(d, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mode-bias) > 1e-4*bias {
		t.Fatalf("mode = %v, want %v", res.Mode, bias)
	}
	if !supportEqual(res.Support, want) {
		t.Fatalf("support = %v, want %v", res.Support, want)
	}
	if !res.X.Equal(x, 1e-3) {
		t.Fatal("recovered vector mismatch")
	}
}

func TestBOMPNegativeBiasAndValues(t *testing.T) {
	// The k-outlier problem is over the real field (paper §7.1): negative
	// partial values invalidate TA/TPUT but must not bother BOMP.
	r := xrand.New(3)
	const n, m, s = 200, 90, 6
	const bias = -750.0
	d := dense(t, m, n, 9)
	x, want := biasedSparse(r, n, s, bias, 50, 400)
	y := d.Measure(x, nil)
	res, err := BOMP(d, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mode-bias) > 1 {
		t.Fatalf("mode = %v, want %v", res.Mode, bias)
	}
	if !supportEqual(res.Support, want) {
		t.Fatalf("support = %v, want %v", res.Support, want)
	}
}

func TestBOMPZeroBiasDegeneratesToSparse(t *testing.T) {
	r := xrand.New(4)
	const n, m, s = 128, 70, 5
	d := dense(t, m, n, 10)
	x, want := biasedSparse(r, n, s, 0, 1, 10)
	y := d.Measure(x, nil)
	res, err := BOMP(d, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mode) > 1e-6 {
		t.Fatalf("mode = %v, want ~0", res.Mode)
	}
	got := append([]int(nil), res.Support...)
	sort.Ints(got)
	// The bias column may or may not be selected; the data support must
	// be found either way.
	for _, j := range want {
		if !contains(got, j) {
			t.Fatalf("missing outlier %d in %v", j, got)
		}
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestKnownModeOMPMatchesBOMP(t *testing.T) {
	r := xrand.New(5)
	const n, m, s = 200, 90, 6
	const bias = 1800.0
	d := dense(t, m, n, 11)
	x, want := biasedSparse(r, n, s, bias, 100, 900)
	y := d.Measure(x, nil)
	km, err := KnownModeOMP(d, y, bias, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !supportEqual(km.Support, want) {
		t.Fatalf("known-mode support = %v, want %v", km.Support, want)
	}
	if !km.X.Equal(x, 1e-4) {
		t.Fatal("known-mode recovered vector mismatch")
	}
	if km.Mode != bias {
		t.Fatalf("known-mode Mode = %v", km.Mode)
	}
}

func TestZeroMeasurement(t *testing.T) {
	d := dense(t, 20, 50, 12)
	y := make(linalg.Vector, 20)
	res, err := BOMP(d, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support) != 0 || res.Mode != 0 {
		t.Fatalf("zero measurement produced support %v mode %v", res.Support, res.Mode)
	}
	if res.X.Norm2() != 0 {
		t.Fatal("zero measurement produced nonzero X")
	}
}

func TestDimensionMismatch(t *testing.T) {
	d := dense(t, 20, 50, 13)
	y := make(linalg.Vector, 19)
	if _, err := BOMP(d, y, Options{}); err == nil {
		t.Fatal("BOMP accepted wrong-length measurement")
	}
	if _, err := OMP(d, y, Options{}); err == nil {
		t.Fatal("OMP accepted wrong-length measurement")
	}
	if _, err := KnownModeOMP(d, y, 1, Options{}); err == nil {
		t.Fatal("KnownModeOMP accepted wrong-length measurement")
	}
}

func TestIterationBudgetWithinPaperRange(t *testing.T) {
	for _, k := range []int{1, 5, 10, 20, 100} {
		r := IterationBudget(k)
		if r < 2*k || r > 5*k+1 {
			t.Fatalf("IterationBudget(%d) = %d outside [2k, 5k+1]", k, r)
		}
	}
	if IterationBudget(0) < 1 {
		t.Fatal("IterationBudget(0) must be positive")
	}
}

func TestMaxIterationsRespected(t *testing.T) {
	r := xrand.New(6)
	const n, m, s = 300, 80, 40
	d := dense(t, m, n, 14)
	x, _ := biasedSparse(r, n, s, 0, 1, 10)
	y := d.Measure(x, nil)
	res, err := OMP(d, y, Options{MaxIterations: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 7 {
		t.Fatalf("iterations = %d > budget 7", res.Iterations)
	}
	// With too few iterations recovery is partial: the support found must
	// still be a subset of the real heavy coordinates plus noise — at
	// minimum, the algorithm returns something and doesn't crash.
	if len(res.Support) == 0 {
		t.Fatal("no columns selected within budget")
	}
}

func TestGreedyPicksLargestOutlierFirst(t *testing.T) {
	// OMP's selection order is by correlation magnitude, so the single
	// dominant outlier must be the first data column selected.
	r := xrand.New(7)
	const n, m = 200, 80
	d := dense(t, m, n, 15)
	x := make(linalg.Vector, n)
	x[17] = 1000
	x[42] = 1
	_ = r
	y := d.Measure(x, nil)
	res, err := OMP(d, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support) == 0 || res.Support[0] != 17 {
		t.Fatalf("first selection = %v, want 17", res.Support)
	}
}

func TestModeTrace(t *testing.T) {
	r := xrand.New(8)
	const n, m, s = 256, 120, 10
	const bias = 5000.0
	d := dense(t, m, n, 16)
	x, _ := biasedSparse(r, n, s, bias, 100, 1000)
	y := d.Measure(x, nil)
	res, err := BOMP(d, y, Options{TraceMode: true, TraceResidual: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ModeTrace) != res.Iterations {
		t.Fatalf("mode trace length %d, iterations %d", len(res.ModeTrace), res.Iterations)
	}
	if len(res.ResidualTrace) != res.Iterations {
		t.Fatalf("residual trace length %d, iterations %d", len(res.ResidualTrace), res.Iterations)
	}
	// Paper Figure 4(b): the mode estimate stabilizes once all s outliers
	// plus the bias are selected; the final trace entry is the mode.
	last := res.ModeTrace[len(res.ModeTrace)-1]
	if math.Abs(last-bias) > 1e-3*bias {
		t.Fatalf("final traced mode %v, want %v", last, bias)
	}
	// Residual trace must be non-increasing (monotone projections).
	for i := 1; i < len(res.ResidualTrace); i++ {
		if res.ResidualTrace[i] > res.ResidualTrace[i-1]*(1+1e-9) {
			t.Fatalf("residual increased at %d: %v -> %v", i, res.ResidualTrace[i-1], res.ResidualTrace[i])
		}
	}
}

func TestEarlyStopOnResidualStall(t *testing.T) {
	// With far more iterations allowed than information in y, the
	// residual bottoms out; the §5 cutoff must fire rather than looping
	// to the budget.
	r := xrand.New(9)
	const n, m, s = 100, 60, 3
	d := dense(t, m, n, 17)
	x, _ := biasedSparse(r, n, s, 0, 1, 10)
	y := d.Measure(x, nil)
	res, err := OMP(d, y, Options{MaxIterations: m, ResidualTol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= m {
		t.Fatalf("ran to full budget %d; early stop never fired", res.Iterations)
	}
}

// Property: BOMP on (x + c·1) recovers mode(x) + c — bias equivariance.
func TestBOMPBiasEquivariance(t *testing.T) {
	d := dense(t, 80, 150, 18)
	check := func(seed uint64, shift8 int8) bool {
		r := xrand.New(seed)
		shift := float64(shift8) * 10
		x, _ := biasedSparse(r, 150, 4, 100, 10, 50)
		y1 := d.Measure(x, nil)
		shifted := x.Clone()
		for i := range shifted {
			shifted[i] += shift
		}
		y2 := d.Measure(shifted, nil)
		r1, err1 := BOMP(d, y1, Options{})
		r2, err2 := BOMP(d, y2, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs((r2.Mode-r1.Mode)-shift) < 1e-3
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: recovery commutes with distribution — BOMP on the sum of
// local sketches equals BOMP on the sketch of the global vector. This is
// the end-to-end guarantee of the paradigm.
func TestDistributedEqualsCentralized(t *testing.T) {
	d := dense(t, 90, 200, 19)
	r := xrand.New(10)
	global, _ := biasedSparse(r, 200, 5, 300, 50, 200)
	// Split the global vector into 4 arbitrary slices.
	const nodes = 4
	slices := make([]linalg.Vector, nodes)
	for l := range slices {
		slices[l] = make(linalg.Vector, 200)
	}
	for i, v := range global {
		// Random split of v across nodes (can be negative shares).
		rest := v
		for l := 0; l < nodes-1; l++ {
			share := rest * (r.Float64()*2 - 0.5)
			slices[l][i] = share
			rest -= share
		}
		slices[nodes-1][i] = rest
	}
	sum := make(linalg.Vector, 90)
	for _, sl := range slices {
		sensing.AddSketch(sum, d.Measure(sl, nil))
	}
	central, err := BOMP(d, d.Measure(global, nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := BOMP(d, sum, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !supportEqual(dist.Support, sortedCopy(central.Support)) {
		t.Fatalf("distributed support %v != centralized %v", dist.Support, central.Support)
	}
	if math.Abs(dist.Mode-central.Mode) > 1e-6 {
		t.Fatalf("distributed mode %v != centralized %v", dist.Mode, central.Mode)
	}
}

func sortedCopy(xs []int) []int {
	c := append([]int(nil), xs...)
	sort.Ints(c)
	return c
}

func TestSeededMatrixRecovery(t *testing.T) {
	// The column-regenerating representation must recover identically to
	// the dense one.
	p := sensing.Params{M: 80, N: 150, Seed: 22}
	d, err := sensing.NewDense(p)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := sensing.NewSeeded(p)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(13)
	x, _ := biasedSparse(r, p.N, 4, 200, 20, 90)
	y := d.Measure(x, nil)
	a, err := BOMP(d, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BOMP(sd, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.X.Equal(b.X, 1e-9) {
		t.Fatal("dense and seeded recovery disagree")
	}
	if a.Mode != b.Mode {
		t.Fatalf("modes differ: %v vs %v", a.Mode, b.Mode)
	}
}

func BenchmarkBOMP(b *testing.B) {
	r := xrand.New(1)
	const n, m, s = 1000, 300, 50
	d := dense(b, m, n, 1)
	x, _ := biasedSparse(r, n, s, 5000, 100, 1000)
	y := d.Measure(x, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BOMP(d, y, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOMPKnownMode(b *testing.B) {
	r := xrand.New(1)
	const n, m, s = 1000, 300, 50
	d := dense(b, m, n, 1)
	x, _ := biasedSparse(r, n, s, 5000, 100, 1000)
	y := d.Measure(x, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KnownModeOMP(d, y, 5000, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
