package recovery

import (
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/xrand"
)

// sharedBudgets are the iteration budgets one measurement is asked at.
var sharedBudgets = []int{1, 2, 3, 7, 16, 31, 46}

// tracesBitIdentical fails the test unless got's traces are want's,
// compared by bit pattern.
func tracesBitIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	for _, tr := range []struct {
		name      string
		got, want []float64
	}{{"ModeTrace", got.ModeTrace, want.ModeTrace}, {"ResidualTrace", got.ResidualTrace, want.ResidualTrace}} {
		if len(tr.got) != len(tr.want) {
			t.Fatalf("%s: %s has %d entries, want %d", label, tr.name, len(tr.got), len(tr.want))
		}
		for i := range tr.want {
			if math.Float64bits(tr.got[i]) != math.Float64bits(tr.want[i]) {
				t.Fatalf("%s: %s[%d] %v != %v", label, tr.name, i, tr.got[i], tr.want[i])
			}
		}
	}
}

// sharedCase is one measurement and the Options its items carry but
// for the budget.
type sharedCase struct {
	name string
	y    linalg.Vector
	opt  Options
}

// checkSharedBatch asks every case at every budget in one BOMPBatch,
// interleaved, half the repeats on a copy of the measurement, and holds
// each result to a cold BOMP of its own item: every field and both
// traces, bit for bit. It returns the cold results by case and budget.
func checkSharedBatch(t *testing.T, label string, mat sensing.Matrix, cases []sharedCase, budgets []int) [][]*Result {
	t.Helper()
	var items []BatchItem
	var want []*Result
	colds := make([][]*Result, len(cases))
	for bi, b := range budgets {
		for ci, c := range cases {
			opt := c.opt
			opt.MaxIterations = b
			y := c.y
			if bi%2 == 1 {
				y = y.Clone()
			}
			cold, err := NewWorkspace().BOMP(mat, c.y, opt)
			if err != nil {
				t.Fatal(err)
			}
			cold = cloneResult(cold)
			colds[ci] = append(colds[ci], cold)
			items = append(items, BatchItem{Y: y, Opt: opt})
			want = append(want, cold)
		}
	}
	wss := make([]*Workspace, len(items))
	for i := range wss {
		wss[i] = NewWorkspace()
	}
	results, _, err := BOMPBatch(mat, wss, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		l := fmt.Sprintf("%s item %d (budget %d)", label, i, items[i].Opt.MaxIterations)
		resultsBitIdentical(t, l, res, want[i])
		tracesBitIdentical(t, l, res, want[i])
	}
	return colds
}

// TestBOMPBatchSharedRunsBitIdentical holds a batch that asks the same
// measurements at mixed budgets to per-item BOMP, on every ensemble,
// with traces on, across each way a run stops: on its budget in mid-run
// (heavy noise), on the tolerance, on the stall, and — on a matrix built
// for it — after pivots it rejected. Each measurement is also asked
// under a second tolerance, and the two must not share a run.
func TestBOMPBatchSharedRunsBitIdentical(t *testing.T) {
	rng := xrand.New(59)
	for _, tc := range warmEnsembles(t) {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mat.Params()
			exact, _ := biasedSparse(rng, p.N, 5, 900, 200, 700)
			noisy := exact.Clone()
			for i := range noisy {
				noisy[i] += 60 * rng.NormFloat64()
			}
			yExact, yNoisy := tc.mat.Measure(exact, nil), tc.mat.Measure(noisy, nil)
			noTol := Options{TraceMode: true, ResidualTol: 1e-300}
			cases := []sharedCase{
				{"budget", yNoisy, Options{TraceMode: true}},
				{"loose tolerance", yNoisy, Options{TraceMode: true, ResidualTol: 0.5}},
				{"tolerance", yExact, Options{TraceMode: true}},
				{"no tolerance", yExact, noTol},
				{"stall", stallingMeasurement(t, tc.mat, exact, noTol), noTol},
			}
			colds := checkSharedBatch(t, tc.name, tc.mat, cases, sharedBudgets)
			// Each case must stop the way it is named for at budget 46,
			// with smaller budgets cutting it short.
			last := len(sharedBudgets) - 1
			if r := colds[0][last]; r.Iterations != 46 || r.StoppedEarly {
				t.Fatalf("budget case: %d iterations (stalled %v), want the full 46", r.Iterations, r.StoppedEarly)
			}
			if r := colds[1][last]; r.Iterations >= 46 {
				t.Fatalf("loose tolerance case: %d iterations, want a stop short of the budget case's", r.Iterations)
			}
			if r := colds[2][last]; r.StoppedEarly || r.Iterations <= 3 || r.Iterations >= 46 {
				t.Fatalf("tolerance case: %d iterations (stalled %v), want a tolerance stop past 3", r.Iterations, r.StoppedEarly)
			}
		})
	}
	t.Run("reject", func(t *testing.T) {
		mat := nearTwinMatrix()
		y := linalg.Vector{10, -7, 5, 20, 3, 2e-5, 1e-5, 5e-6}
		opt := Options{TraceMode: true, ResidualTol: -1}
		budgets := append([]int{4, 5, 6}, sharedBudgets...)
		checkSharedBatch(t, "reject", mat, []sharedCase{{"reject", y, opt}}, budgets)
		// The fixture must reject before its 5th selection and select
		// after it: budget 7 is then a cut past the rejects.
		ws := NewWorkspace()
		opt.MaxIterations = 7
		res, err := ws.BOMP(mat, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		masked := 0
		for _, w := range ws.masked {
			masked += bits.OnesCount64(w)
		}
		if res.Iterations != 7 || masked <= res.Iterations {
			t.Fatalf("reject fixture: %d selections, %d columns masked; want 7 and a reject among them", res.Iterations, masked)
		}
	})
}

// stallingMeasurement measures exact plus the first of a few noise
// levels at which opt's run stalls past its third selection: noise below
// the floor of ‖r‖ = √(‖y‖² − ‖Qᵀy‖²), once the signal is explained,
// leaves the residual flat while columns still correlate with it. Which
// level does so depends on the ensemble.
func stallingMeasurement(t *testing.T, mat sensing.Matrix, exact linalg.Vector, opt Options) linalg.Vector {
	t.Helper()
	rng := xrand.New(7)
	opt.MaxIterations = 46
	for _, sigma := range []float64{1e-7, 1e-6, 1e-5, 1e-4} {
		x := exact.Clone()
		for i := range x {
			x[i] += sigma * rng.NormFloat64()
		}
		y := mat.Measure(x, nil)
		res, err := NewWorkspace().BOMP(mat, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.StoppedEarly && res.Iterations > 3 {
			return y
		}
	}
	t.Fatal("no noise level stalls the run")
	return nil
}

// nearTwinMatrix is an 8×16 matrix whose column 6, e₀ + 5e-6·e₃, is
// selected first for y = (10, −7, 5, 20, 3, 2e-5, 1e-5, 5e-6). Once
// e₁, e₂ and e₄ are in the basis too, the residual is mostly 20·e₃, and
// the columns ±e₀ correlate with it at 1e-4 — more than any column
// outside the span — but are inside it to a pivot of 2.5e-11, so the
// pivot rejects them before φ₀ = 5e-6·e₃/4 and e₅..e₇ are selected.
// Every other column has its negative beside it, so φ₀ is that e₃
// remainder alone.
func nearTwinMatrix() *colsMatrix {
	e := func(i int, v float64) linalg.Vector {
		c := make(linalg.Vector, 8)
		c[i] = v
		return c
	}
	twin := e(0, 1)
	twin[3] = 5e-6
	return &colsMatrix{cols: []linalg.Vector{
		e(0, 1), e(0, -1), e(1, 1), e(1, -1), e(2, 1), e(2, -1), twin, e(0, -1),
		e(4, 1), e(4, -1), e(5, 1), e(6, 1), e(7, 1), e(5, -1), e(6, -1), e(7, -1),
	}}
}

// colsMatrix is a measurement matrix given by its columns.
type colsMatrix struct{ cols []linalg.Vector }

func (c *colsMatrix) Params() sensing.Params {
	return sensing.Params{M: len(c.cols[0]), N: len(c.cols)}
}
func (c *colsMatrix) Col(j int, dst linalg.Vector) linalg.Vector {
	dst = ensureVec(dst, len(c.cols[j]))
	copy(dst, c.cols[j])
	return dst
}
func (c *colsMatrix) AddCol(j int, v float64, y linalg.Vector) { y.AddScaled(v, c.cols[j]) }
func (c *colsMatrix) Measure(x, dst linalg.Vector) linalg.Vector {
	dst = ensureVec(dst, len(c.cols[0]))
	clear(dst)
	for j, v := range x {
		c.AddCol(j, v, dst)
	}
	return dst
}
func (c *colsMatrix) MeasureSparse(idx []int, vals []float64, dst linalg.Vector) linalg.Vector {
	dst = ensureVec(dst, len(c.cols[0]))
	clear(dst)
	for k, j := range idx {
		c.AddCol(j, vals[k], dst)
	}
	return dst
}
func (c *colsMatrix) Correlate(r, dst linalg.Vector) linalg.Vector {
	dst = ensureVec(dst, len(c.cols))
	for j, col := range c.cols {
		dst[j] = col.Dot(r)
	}
	return dst
}
func (c *colsMatrix) CorrelateBatch(rs, dsts []linalg.Vector) {
	for q := range rs {
		c.Correlate(rs[q], dsts[q])
	}
}
func (c *colsMatrix) ExtensionColumn(dst linalg.Vector) linalg.Vector {
	ones := make(linalg.Vector, len(c.cols))
	return c.Measure(ones.Fill(1/math.Sqrt(float64(len(c.cols)))), dst)
}

// TestBOMPBatchSharedRunCorrelatesOnce counts the saving: 8 items over 4
// distinct measurements, two budgets each, correlate 4·N columns for
// their c₀s — one greedy run per measurement — and the Gram columns
// those 4 runs miss.
func TestBOMPBatchSharedRunCorrelatesOnce(t *testing.T) {
	rng := xrand.New(8)
	mat := warmEnsembles(t)[2].mat // CountSketch
	p := mat.Params()
	items := make([]BatchItem, 8)
	for i := range 4 {
		x, _ := biasedSparse(rng, p.N, 4+i, 700, 150, 600)
		y := mat.Measure(x, nil)
		items[i] = BatchItem{Y: y, Opt: Options{MaxIterations: IterationBudget(5)}}
		items[i+4] = BatchItem{Y: y.Clone(), Opt: Options{MaxIterations: IterationBudget(10)}}
	}
	g := NewGramCache(mat)
	wss := make([]*Workspace, len(items))
	for i := range wss {
		wss[i] = g.NewWorkspace()
	}
	_, stats, err := BOMPBatch(mat, wss, items)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.N * (4 + stats.Misses); stats.CorrelateColumns != want {
		t.Fatalf("cold batch correlated %d columns, want N·(4 c₀s + %d misses) = %d", stats.CorrelateColumns, stats.Misses, want)
	}
	_, stats, err = BOMPBatch(mat, wss, items)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Misses != 0 || stats.CorrelateColumns != 4*p.N {
		t.Fatalf("warm batch: %+v, want no miss and 4·N = %d columns correlated", stats, 4*p.N)
	}
}

// TestBOMPBatchZeroAlloc pins a steady-state batch — two distinct
// measurements, each asked at two budgets — at zero heap allocations on
// every ensemble, in a geometry each correlates serially.
func TestBOMPBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	p := sensing.Params{M: 30, N: 30, Seed: 61}
	dense, err := sensing.NewDense(p)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := sensing.NewSeeded(p)
	if err != nil {
		t.Fatal(err)
	}
	sketch, err := sensing.NewCountSketch(p, sensing.DefaultCountSketchDepth)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(61)
	for _, mat := range []sensing.Matrix{dense, seeded, sketch} {
		t.Run(fmt.Sprintf("%T", mat), func(t *testing.T) {
			var items []BatchItem
			for range 2 {
				x, _ := biasedSparse(rng, p.N, 2, 500, 100, 300)
				y := mat.Measure(x, nil)
				items = append(items, BatchItem{Y: y, Opt: Options{MaxIterations: 3}}, BatchItem{Y: y, Opt: Options{MaxIterations: 7}})
			}
			g := NewGramCache(mat)
			wss := make([]*Workspace, len(items))
			for i := range wss {
				wss[i] = g.NewWorkspace()
			}
			if _, _, err := BOMPBatch(mat, wss, items); err != nil { // warm-up sizes all buffers
				t.Fatal(err)
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			allocs := testing.AllocsPerRun(50, func() {
				if _, _, err := BOMPBatch(mat, wss, items); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state BOMPBatch allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// FuzzBOMPBatchShared asks three measurements — heavy noise, exact, and
// zero — at the budgets the input names, in the order it names them,
// and holds every result of the batch to a cold BOMP of its own item,
// traces included. Each input byte is one item: its low two bits pick
// the measurement, the next five the budget (0 means the engine's
// default), and the high bit a negligible tolerance, under which a run
// can stall, instead of the default.
func FuzzBOMPBatchShared(f *testing.F) {
	f.Add([]byte{0x04, 0x05, 0x14, 0x15, 0x44, 0x45})
	f.Add([]byte{0x81, 0x09, 0x3d, 0x0d, 0x02, 0x7d})
	f.Add([]byte{0x00, 0x01, 0x02, 0xfc, 0xfd, 0xfe})
	p := sensing.Params{M: 24, N: 96, Seed: 1959}
	mat, err := sensing.NewDense(p)
	if err != nil {
		f.Fatal(err)
	}
	rng := xrand.New(1959)
	exact, _ := biasedSparse(rng, p.N, 4, 300, 80, 400)
	noisy := exact.Clone()
	for i := range noisy {
		noisy[i] += 40 * rng.NormFloat64()
	}
	ys := []linalg.Vector{mat.Measure(noisy, nil), mat.Measure(exact, nil), make(linalg.Vector, p.M)}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 16 {
			return
		}
		items := make([]BatchItem, len(in))
		want := make([]*Result, len(in))
		for i, b := range in {
			y := ys[int(b&3)%len(ys)]
			o := Options{TraceMode: true, MaxIterations: int(b&0x7f) >> 2}
			if b&0x80 != 0 {
				o.ResidualTol = 1e-300
			}
			cold, err := NewWorkspace().BOMP(mat, y, o)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = cloneResult(cold)
			items[i] = BatchItem{Y: y.Clone(), Opt: o}
		}
		wss := make([]*Workspace, len(in))
		for i := range wss {
			wss[i] = NewWorkspace()
		}
		results, _, err := BOMPBatch(mat, wss, items)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			l := fmt.Sprintf("item %d (byte %#x)", i, in[i])
			resultsBitIdentical(t, l, res, want[i])
			tracesBitIdentical(t, l, res, want[i])
		}
	})
}
