package recovery

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// residualOMP is the engine the Gram form replaced, kept as the
// reference the way NaiveOMP is kept for the QR: every iteration forms
// the residual y − Q·Qᵀy and correlates all N+1 extended-dictionary
// columns with it, an O(M·N) pass over the matrix, on the paper's MGS
// QR. Masks and stop rules are the production ones, and the production
// Cholesky factor is the same R, so the two may differ only by
// round-off: between Φᵀ(y − Σzφ) and Φᵀy − ΣzΦᵀφ, and between the two
// factorizations.
func residualOMP(m sensing.Matrix, y linalg.Vector, opt Options, biased bool) (*Result, error) {
	p := m.Params()
	phi0 := m.ExtensionColumn(nil)
	size := p.N + 1
	var masked bitset
	masked.reset(size)
	if !biased {
		masked.set(0)
		size--
	}
	maxIter := clampMaxIter(opt.MaxIterations, p.M, size)
	qr := linalg.NewIncrementalQR(p.M)
	qr.SetTarget(y)
	yNorm := y.Norm2()
	res := &Result{Residual: yNorm}
	var (
		selected []int
		corr     = make(linalg.Vector, p.N+1)
		residual = y.Clone()
		prevNorm = yNorm
		col      linalg.Vector
	)
loop:
	for yNorm != 0 && len(selected) < maxIter {
		corr[0] = phi0.Dot(residual)
		m.Correlate(residual, corr[1:])
		for {
			best, bestAbs := argMaxAbsMasked(corr, masked)
			if best < 0 || bestAbs <= 1e-14*yNorm {
				break loop
			}
			masked.set(best)
			if best == 0 {
				col = append(col[:0], phi0...)
			} else {
				col = m.Col(best-1, col)
			}
			if _, err := qr.Append(col); err == nil {
				selected = append(selected, best)
				break
			} else if !errors.Is(err, linalg.ErrRankDeficient) {
				return nil, err
			}
		}
		residual = qr.Residual(residual)
		norm := qr.ResidualNorm()
		res.Residual = norm
		if norm <= opt.residualTol()*yNorm {
			break
		}
		if !opt.disableEarlyStop && norm >= prevNorm*(1-stallRelTol) {
			res.StoppedEarly = true
			break
		}
		prevNorm = norm
	}
	res.Iterations = len(selected)
	if biased {
		res.Selection = selected
	}
	if len(selected) > 0 {
		z, err := qr.SolveInto(nil)
		if err != nil {
			return nil, err
		}
		for i, j := range selected {
			if j == 0 {
				res.Mode = z[i] / math.Sqrt(float64(p.N))
			} else {
				res.Support = append(res.Support, j-1)
				res.Coef = append(res.Coef, z[i])
			}
		}
	}
	res.X = assembleInto(nil, p.N, res.Mode, res.Support, res.Coef)
	return res, nil
}

// repeatedColumn is a dictionary with an exactly repeated column: column
// dup of the wrapped matrix reads as column src in every method, so φ₀
// counts src twice and dup never.
type repeatedColumn struct {
	sensing.Matrix
	src, dup int
	phi0     linalg.Vector
}

func newRepeatedColumn(m sensing.Matrix, src, dup int) *repeatedColumn {
	r := &repeatedColumn{Matrix: m, src: src, dup: dup}
	n := m.Params().N
	ones := make(linalg.Vector, n)
	r.phi0 = r.Measure(ones.Fill(1/math.Sqrt(float64(n))), nil)
	return r
}

func (r *repeatedColumn) col(j int) int {
	if j == r.dup {
		return r.src
	}
	return j
}

func (r *repeatedColumn) Col(j int, dst linalg.Vector) linalg.Vector {
	return r.Matrix.Col(r.col(j), dst)
}

func (r *repeatedColumn) AddCol(j int, v float64, y linalg.Vector) { r.Matrix.AddCol(r.col(j), v, y) }

func (r *repeatedColumn) Measure(x, dst linalg.Vector) linalg.Vector {
	moved := x.Clone()
	moved[r.src] += moved[r.dup]
	moved[r.dup] = 0
	return r.Matrix.Measure(moved, dst)
}

func (r *repeatedColumn) MeasureSparse(idx []int, vals []float64, dst linalg.Vector) linalg.Vector {
	moved := make([]int, len(idx))
	for k, j := range idx {
		moved[k] = r.col(j)
	}
	return r.Matrix.MeasureSparse(moved, vals, dst)
}

func (r *repeatedColumn) Correlate(x, dst linalg.Vector) linalg.Vector {
	dst = r.Matrix.Correlate(x, dst)
	dst[r.dup] = dst[r.src]
	return dst
}

func (r *repeatedColumn) CorrelateBatch(rs, dsts []linalg.Vector) {
	r.Matrix.CorrelateBatch(rs, dsts)
	for _, d := range dsts {
		d[r.dup] = d[r.src]
	}
}

func (r *repeatedColumn) ExtensionColumn(dst linalg.Vector) linalg.Vector {
	return append(dst[:0], r.phi0...)
}

// matchesReference fails unless the Gram-form result selected exactly
// the reference's columns in its order and recovered the same vector.
func matchesReference(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.StoppedEarly != want.StoppedEarly {
		t.Fatalf("%s: %d iterations (stalled %v), reference %d (stalled %v)",
			label, got.Iterations, got.StoppedEarly, want.Iterations, want.StoppedEarly)
	}
	for i := range want.Selection {
		if got.Selection[i] != want.Selection[i] {
			t.Fatalf("%s: Selection %v, reference %v", label, got.Selection, want.Selection)
		}
	}
	for i := range want.Support {
		if got.Support[i] != want.Support[i] {
			t.Fatalf("%s: Support %v, reference %v", label, got.Support, want.Support)
		}
	}
	scale := 1 + want.X.NormInf()
	if !got.X.Equal(want.X, 1e-9*scale) || math.Abs(got.Mode-want.Mode) > 1e-9*scale {
		t.Fatalf("%s: recovered vector or mode (%v vs %v) off the reference by more than 1e-9", label, got.Mode, want.Mode)
	}
}

// TestGramFormMatchesResidualReference runs the engine against the
// residual-correlate loop it replaced on the package's instance families:
// exactly sparse (where c₀ − Σzg cancels to round-off and the stop rules
// must still fire on the same iteration), jittered around the mode,
// noisy, budget-limited with large k (TestDetectLargeKRecall's shape) and
// run to exhaustion — BOMP, OMP and KnownModeOMP, on every ensemble.
func TestGramFormMatchesResidualReference(t *testing.T) {
	rng := xrand.New(2023)
	for _, tc := range warmEnsembles(t) {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mat.Params()
			exact, _ := biasedSparse(rng, p.N, 7, 1200, 150, 900)
			jittered, _ := biasedSparse(rng, p.N, 7, 1200, 150, 900)
			for i := range jittered {
				jittered[i] += 3 * rng.NormFloat64()
			}
			noisy := tc.mat.Measure(exact, nil)
			for i := range noisy {
				noisy[i] += 0.5 * rng.NormFloat64()
			}
			largeK, _ := workload.MajorityDominated(p.N, 20, 5000, 2000, 20000, 401)
			atZero, _ := biasedSparse(rng, p.N, 6, 0, 1, 10)
			for _, in := range []struct {
				name string
				y    linalg.Vector
				opt  Options
			}{
				{"exact", tc.mat.Measure(exact, nil), Options{}},
				{"exact/budget", tc.mat.Measure(exact, nil), Options{MaxIterations: IterationBudget(7)}},
				{"jittered", tc.mat.Measure(jittered, nil), Options{MaxIterations: IterationBudget(7)}},
				{"noisy", noisy, Options{MaxIterations: IterationBudget(7), ResidualTol: 0.01}},
				{"large-k", tc.mat.Measure(largeK, nil), Options{MaxIterations: IterationBudget(16)}},
				{"exhaust", tc.mat.Measure(jittered, nil), Options{MaxIterations: -1, disableEarlyStop: true, ResidualTol: -1}},
				{"at-zero", tc.mat.Measure(atZero, nil), Options{}},
			} {
				want, err := residualOMP(tc.mat, in.y, in.opt, true)
				if err != nil {
					t.Fatal(err)
				}
				got, err := BOMP(tc.mat, in.y, in.opt)
				if err != nil {
					t.Fatal(err)
				}
				matchesReference(t, in.name+"/BOMP", got, want)

				want, err = residualOMP(tc.mat, in.y, in.opt, false)
				if err != nil {
					t.Fatal(err)
				}
				got, err = NewWorkspace().OMP(tc.mat, in.y, in.opt)
				if err != nil {
					t.Fatal(err)
				}
				matchesReference(t, in.name+"/OMP", got, want)
			}
		})
	}
}

// TestRepeatedColumnMatchesResidualReference runs the engine on a
// dictionary with an exactly repeated column that carries an outlier, on
// every ensemble. The twins tie in every correlation, so the first is
// selected and the second is inside the span from then on: a run must
// never hold both, and must select, stop and stall as residualOMP (whose
// MGS QR rejects such a column) does.
func TestRepeatedColumnMatchesResidualReference(t *testing.T) {
	rng := xrand.New(4711)
	for _, tc := range warmEnsembles(t) {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mat.Params()
			x, sup := biasedSparse(rng, p.N, 7, 1200, 150, 900)
			src, dup := sup[0], sup[0]
			for slices.Contains(sup, dup) {
				dup = rng.Intn(p.N)
			}
			mat := newRepeatedColumn(tc.mat, src, dup)
			jittered := x.Clone()
			for i := range jittered {
				jittered[i] += 3 * rng.NormFloat64()
			}
			for _, in := range []struct {
				name string
				y    linalg.Vector
				opt  Options
			}{
				{"exact", mat.Measure(x, nil), Options{}},
				{"jittered", mat.Measure(jittered, nil), Options{MaxIterations: IterationBudget(7)}},
				// Half of M, no stop rule: long, but short of the last
				// columns, where ‖r‖ is round-off in both engines and
				// which of them reads an exact 0 first is chance.
				{"long", mat.Measure(jittered, nil), Options{MaxIterations: p.M / 2, disableEarlyStop: true, ResidualTol: -1}},
			} {
				for _, biased := range []bool{true, false} {
					label := fmt.Sprintf("%s/biased=%v", in.name, biased)
					want, err := residualOMP(mat, in.y, in.opt, biased)
					if err != nil {
						t.Fatal(err)
					}
					got, err := NewWorkspace().solveOne(mat, BatchItem{Y: in.y, Opt: in.opt}, biased)
					if err != nil {
						t.Fatal(err)
					}
					matchesReference(t, label, got, want)
					if slices.Contains(got.Support, src) && slices.Contains(got.Support, dup) {
						t.Fatalf("%s: both twins %d and %d selected: %v", label, src, dup, got.Support)
					}
				}
			}
		})
	}
}

// TestRepeatedColumnRejectedByPivot steps the loop by hand to the state
// where round-off makes the twin of a column in the basis the
// combination's argmax. The pivot must reject it: masked, never selected,
// and the column a masked scan of the SAME correlations names selected in
// its place, R and Qᵀy growing by that column only.
func TestRepeatedColumnRejectedByPivot(t *testing.T) {
	x, _ := workload.MajorityDominated(200, 5, 700, 100, 900, 3)
	const src, dup = 17, 150
	x[src] = 1e5 // the first pick, tied with its twin: the lower index wins
	mat := newRepeatedColumn(dense(t, 48, 200, 9), src, dup)
	y := mat.Measure(x, nil)

	ws := NewWorkspace()
	g := ws.bind(mat)
	defer func() { g.unpin(ws.pins) }()
	ws.greedyInit(y, Options{MaxIterations: -1, disableEarlyStop: true, ResidualTol: -1}, true)
	ws.c0[0] = g.phi0.Dot(y)
	mat.Correlate(y, ws.c0[1:])
	var top int
	ws.corr, top = linalg.SubCombination(ws.corr, ws.c0, ws.coef, ws.gcols)
	if top != src+1 {
		t.Fatalf("first argmax %d, want %d", top, src+1)
	}
	ws.greedyStep(top)

	ws.corr, _ = linalg.SubCombination(ws.corr, ws.c0, ws.coef, ws.gcols)
	ws.corr[dup+1] = 2 * ws.corr.NormInf() // what round-off could do
	masked := append(bitset(nil), ws.masked...)
	masked.set(dup + 1)
	next, _ := argMaxAbsMasked(ws.corr, masked)
	ws.greedyStep(dup + 1)
	if !ws.masked.has(dup+1) || !slices.Equal(ws.selected, []int{src + 1, next}) {
		t.Fatalf("selected %v (twin masked: %v), want [%d %d]", ws.selected, ws.masked.has(dup+1), src+1, next)
	}
	if len(ws.chol) != 3 || len(ws.qty) != 2 {
		t.Fatalf("R holds %d entries and Qᵀy %d after two columns, want 3 and 2", len(ws.chol), len(ws.qty))
	}
}

// TestPickMatchesMaskedScan holds the loop's selection — the
// combination's argmax unless it is masked — to a masked scan of the
// same correlations (linalg pins the combination's bits and argmax): for
// 0–13 terms, with the winner masked, a masked index tied with the free
// winner ahead of it, and an all-zero combination.
func TestPickMatchesMaskedScan(t *testing.T) {
	rng := xrand.New(99)
	const n = 70
	randVec := func(k int) linalg.Vector {
		v := make(linalg.Vector, k)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	var corr linalg.Vector
	for terms := 0; terms <= 13; terms++ {
		c, z := randVec(n), randVec(terms)
		g := make([]linalg.Vector, terms)
		for i := range g {
			g[i] = randVec(n)
		}
		for _, shape := range []string{"free", "winner masked", "masked tie", "all zero"} {
			var mask bitset
			mask.reset(n)
			mask.set(3)
			var top int
			corr, top = linalg.SubCombination(corr, c, z, g)
			switch shape {
			case "winner masked":
				mask.set(top)
			case "masked tie":
				// Index 1 takes the winner's magnitude, so it becomes the
				// first index of the maximum, and is masked.
				c[1] = -corr[top]
				for i := range g {
					g[i][1] = 0
				}
				mask.set(1)
			case "all zero":
				clear(c)
				for i := range g {
					clear(g[i])
				}
			}
			corr, top = linalg.SubCombination(corr, c, z, g)
			gotJ, gotAbs := pick(corr, top, mask)
			wantJ, wantAbs := argMaxAbsMasked(corr, mask)
			if gotJ != wantJ || math.Float64bits(gotAbs) != math.Float64bits(wantAbs) {
				t.Fatalf("%d terms, %s: pick (%d, %v), masked scan (%d, %v)", terms, shape, gotJ, gotAbs, wantJ, wantAbs)
			}
		}
	}
}

// TestGramCacheStateNeverChangesBits is the contract that let the
// predict/replay engine go: a Result is a function of (Φ, y, Options).
// The same query is solved on an empty cache, a full one, one squeezed
// to a single column (every run overflows it), with a true, a stale and
// no hint, alone and inside a batch of other queries — and every Result
// must equal the throwaway-workspace one bit for bit.
func TestGramCacheStateNeverChangesBits(t *testing.T) {
	rng := xrand.New(808)
	for _, tc := range warmEnsembles(t) {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mat.Params()
			opt := Options{MaxIterations: IterationBudget(6)}
			x, _ := biasedSparse(rng, p.N, 6, 900, 120, 700)
			for i := range x {
				x[i] += rng.NormFloat64()
			}
			y := tc.mat.Measure(x, nil)
			want, err := BOMP(tc.mat, y, opt)
			if err != nil {
				t.Fatal(err)
			}
			stale := append([]int{p.N + 9, -1, want.Selection[1], want.Selection[1]}, want.Selection[:3]...)
			others := make([]BatchItem, 3)
			for i := range others {
				ox, _ := biasedSparse(rng, p.N, 4+i, -300, 100, 500)
				others[i] = BatchItem{Y: tc.mat.Measure(ox, nil), Opt: Options{MaxIterations: 9 + 4*i}}
			}

			full := NewGramCache(tc.mat)
			one := NewGramCache(tc.mat)
			one.limit = 1
			for _, cache := range []struct {
				name string
				c    *GramCache
			}{{"empty", NewGramCache(tc.mat)}, {"full", full}, {"one-column", one}} {
				ws := cache.c.NewWorkspace()
				if cache.c == full {
					// Fill it: this query's columns and the other queries'.
					for _, it := range append([]BatchItem{{Y: y, Warm: want.Selection, Opt: opt}}, others...) {
						if _, err := ws.BOMPWarm(tc.mat, it.Y, it.Warm, it.Opt); err != nil {
							t.Fatal(err)
						}
					}
				}
				for hi, hint := range [][]int{nil, want.Selection, stale} {
					label := cache.name
					got, err := ws.BOMPWarm(tc.mat, y, hint, opt)
					if err != nil {
						t.Fatal(err)
					}
					resultsBitIdentical(t, label, got, want)

					items := append([]BatchItem{others[0], {Y: y, Warm: hint, Opt: opt}}, others[1:]...)
					wss := make([]*Workspace, len(items))
					for i := range wss {
						wss[i] = cache.c.NewWorkspace()
					}
					results, _, err := BOMPBatch(tc.mat, wss, items)
					if err != nil {
						t.Fatal(err)
					}
					resultsBitIdentical(t, label+" batched", results[1], want)
					if hi == 0 && cache.c == full && wss[1].stats.Misses != 0 {
						t.Fatalf("full cache missed %d columns of a query it has answered", wss[1].stats.Misses)
					}
				}
				if cache.c == one && len(one.slots) != 1 {
					t.Fatalf("one-column cache kept %d slots after its runs", len(one.slots))
				}
			}
		})
	}
}

// TestGramCacheRunLongerThanCache drives runs that need more columns
// than the cache may keep: every slot is pinned, so the cache must grow
// for the run, answer as an unbounded one would, and shrink back.
func TestGramCacheRunLongerThanCache(t *testing.T) {
	mat := dense(t, 24, 200, 5)
	x, _ := workload.MajorityDominated(200, 5, 700, 100, 900, 3)
	for i := range x {
		x[i] += float64(i%7) - 3
	}
	y := mat.Measure(x, nil)
	opt := Options{MaxIterations: -1, disableEarlyStop: true, ResidualTol: -1} // run to M columns
	want, err := BOMP(mat, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want.Iterations < 20 {
		t.Fatalf("degenerate instance: %d iterations", want.Iterations)
	}
	c := NewGramCache(mat)
	c.limit = 3
	ws := c.NewWorkspace()
	for round := 0; round < 3; round++ {
		got, err := ws.BOMPWarm(mat, y, want.Selection, opt)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, "squeezed", got, want)
		if len(c.slots) != 3 || len(c.index) > 3 {
			t.Fatalf("round %d: cache kept %d slots (%d indexed), bound 3", round, len(c.slots), len(c.index))
		}
		for _, s := range c.slots {
			if s.pins != 0 {
				t.Fatalf("round %d: slot of column %d still pinned %d times", round, s.col, s.pins)
			}
		}
	}
}

// TestGramCacheConcurrentRuns shares one small cache among goroutines
// solving overlapping queries (run with -race): slots are recycled and
// grown under contention, and every answer must equal the serial one.
func TestGramCacheConcurrentRuns(t *testing.T) {
	rng := xrand.New(31)
	for _, tc := range warmEnsembles(t) {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mat.Params()
			const queries = 6
			ys := make([]linalg.Vector, queries)
			wants := make([]*Result, queries)
			opt := Options{MaxIterations: IterationBudget(5)}
			base, sup := biasedSparse(rng, p.N, 5, 400, 80, 600)
			for q := range ys {
				x := base.Clone()
				x[sup[q%len(sup)]] += 40 * float64(q) // same support, drifting values
				x[(17*q+3)%p.N] += 300                // plus one outlier of its own
				ys[q] = tc.mat.Measure(x, nil)
				res, err := BOMP(tc.mat, ys[q], opt)
				if err != nil {
					t.Fatal(err)
				}
				wants[q] = cloneResult(res)
			}
			c := NewGramCache(tc.mat)
			c.limit = 8 // below what two concurrent runs pin
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					ws := c.NewWorkspace()
					for round := 0; round < 6; round++ {
						q := (g + round) % queries
						var hint []int
						if round%2 == 1 {
							hint = wants[q].Selection
						}
						got, err := ws.BOMPWarm(tc.mat, ys[q], hint, opt)
						if err != nil {
							t.Error(err)
							return
						}
						if !resultsIdentical(got, wants[q]) || math.Float64bits(got.Residual) != math.Float64bits(wants[q].Residual) {
							t.Errorf("goroutine %d round %d: query %d differs from its serial answer", g, round, q)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if len(c.slots) > 8 {
				t.Fatalf("cache kept %d slots after every run returned, bound 8", len(c.slots))
			}
		})
	}
}
