package recovery

import (
	"fmt"
	"math"
	"slices"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// Workspace owns every buffer the greedy recovery engine touches — the
// correlation vectors, column scratch, Cholesky factor, masks and the
// Result itself — so that a standing query replaying BOMP on each
// refreshed sketch performs no heap allocation after the first call
// (pinned by AllocsPerRun tests).
//
// The engine is Batch-OMP (Rubinstein, Zibulevsky & Elad 2008). It never
// forms the residual: with c₀ = Φᵀy computed once, the correlations of
// the residual after t selections s₁..s_t are
//
//	c_t = Φᵀ(y − Σᵢ zᵢ·φ_{sᵢ}) = c₀ − Σᵢ zᵢ·g_{sᵢ},   g_s = Φᵀφ_s,
//
// one O(t·N) combination (linalg.SubCombination, which also hands back
// the next column's index) instead of an O(M·N) pass over Φ. z is the
// least-squares solution on the current basis S. It comes from R, the
// upper-triangular Cholesky factor of G_SS = Φ_SᵀΦ_S — the R of the
// paper's Gram–Schmidt QR of Φ_S, without Q — grown by one column per
// selection from entries of the cached g_s (see extend), and Qᵀy: one
// O(t²) back-substitution. ‖r‖² is ‖y‖² − ‖Qᵀy‖². So an iteration reads
// one dictionary column (for ‖φ_b‖²) and, unless its Gram column is a
// miss, no other M-vector.
//
// The Gram columns g_s come from a GramCache: the one the workspace was
// made on (GramCache.NewWorkspace), else one of its own, kept while it is
// called with the same matrix. g_s is a function of Φ alone and the
// combination takes its terms in selection order, so a Result is a
// function of (Φ, y, Options): what the cache holds, and whether a hint
// prefetched it, never changes a bit.
//
// A Workspace is NOT safe for concurrent use. The *Result returned by
// its methods, including every slice inside it, is owned by the
// Workspace and is overwritten by the next call; callers that keep
// results across calls must copy what they need first.
type Workspace struct {
	gram     *GramCache
	chol     linalg.Vector   // R, packed by columns: column i is [i(i+1)/2, (i+1)(i+2)/2)
	qty      linalg.Vector   // Qᵀy in R's basis: R·z = qty
	c0       linalg.Vector   // [φ₀·y, Φ₀ᵀy]
	corr     linalg.Vector   // c_t, extended-dictionary length
	colBuf   linalg.Vector   // the candidate column
	coef     linalg.Vector   // least-squares coefficients z, selection order
	gcols    []linalg.Vector // g of every selected column but the last
	pins     []*gramSlot     // cache slots this run holds
	pending  []*gramSlot     // hinted misses awaiting the block correlate
	fillBuf  linalg.Vector   // their columns, flat ×M
	shifted  linalg.Vector   // KnownModeOMP's bias-cancelled measurement
	x        linalg.Vector   // assembled N-length output
	masked   bitset          // columns in the basis or excluded from it
	selected []int           // selection order, extended-dictionary indices
	selOut   []int           // Result.Selection backing (copy, see finish)
	support  []int           // Result.Support backing
	coefOut  []float64       // Result.Coef backing
	res      Result
	st       greedyState
	stats    GramStats

	// Scratch of the solve this workspace leads (wss[0] of a batch).
	rs, dsts []linalg.Vector
	results  []*Result
	self     [1]*Workspace
	item     [1]BatchItem
}

// NewWorkspace returns an empty workspace with a Gram cache of its own.
// Buffers are sized lazily on first use and retained across calls, so one
// workspace serves queries of mixed shapes (buffers grow to the largest
// seen).
func NewWorkspace() *Workspace { return &Workspace{} }

// GramStats reports the cache and correlate work of the last solve.
func (ws *Workspace) GramStats() GramStats { return ws.stats }

// BOMP is the workspace-backed form of the package-level BOMP.
func (ws *Workspace) BOMP(m sensing.Matrix, y linalg.Vector, opt Options) (*Result, error) {
	return ws.solveOne(m, BatchItem{Y: y, Opt: opt}, true)
}

// OMP is the workspace-backed form of the package-level OMP.
func (ws *Workspace) OMP(m sensing.Matrix, y linalg.Vector, opt Options) (*Result, error) {
	return ws.solveOne(m, BatchItem{Y: y, Opt: opt}, false)
}

// KnownModeOMP is the workspace-backed form of the package-level
// KnownModeOMP.
func (ws *Workspace) KnownModeOMP(m sensing.Matrix, y linalg.Vector, mode float64, opt Options) (*Result, error) {
	p := m.Params()
	if len(y) != p.M {
		return nil, fmt.Errorf("%w: len(y)=%d, M=%d", ErrDimension, len(y), p.M)
	}
	ws.shifted = ensureVec(ws.shifted, p.M)
	copy(ws.shifted, y)
	ws.shifted.AddScaled(-mode*math.Sqrt(float64(p.N)), ws.bind(m).phi0)
	res, err := ws.OMP(m, ws.shifted, opt)
	if err != nil {
		return nil, err
	}
	res.Mode = mode
	for i := range res.X {
		res.X[i] += mode
	}
	return res, nil
}

func (ws *Workspace) solveOne(m sensing.Matrix, it BatchItem, biased bool) (*Result, error) {
	if p := m.Params(); len(it.Y) != p.M {
		return nil, fmt.Errorf("%w: len(y)=%d, M=%d", ErrDimension, len(it.Y), p.M)
	}
	ws.self[0], ws.item[0] = ws, it
	solve(m, ws.self[:], ws.item[:], biased)
	ws.item[0] = BatchItem{}
	return ws.finish(), nil
}

// bind points the workspace at m's Gram columns: the cache it already
// has when that is m's, else a fresh one of its own.
func (ws *Workspace) bind(m sensing.Matrix) *GramCache {
	if ws.gram == nil || ws.gram.m != m {
		ws.gram = NewGramCache(m)
	}
	ws.gram.init()
	return ws.gram
}

// solve runs the greedy loop of every item on its workspace; finish
// packages each result. Everything the items can share happens in one
// pass over the matrix: all the c₀s, and every Gram column a warm hint
// names that its cache lacks, go through a single CorrelateBlock, which
// a regenerating ensemble serves by building each dictionary column
// once. From there each run is O(t·N) an iteration plus one correlate
// per column it selects that neither a hint nor an earlier run fetched.
func solve(m sensing.Matrix, wss []*Workspace, items []BatchItem, biased bool) {
	lead := wss[0]
	lead.rs, lead.dsts = lead.rs[:0], lead.dsts[:0]
	n := m.Params().N
	for i, ws := range wss {
		it := &items[i]
		ws.stats = GramStats{}
		// The hint first: it may be this workspace's previous Selection,
		// and ws.masked is free as scratch until greedyInit resets it.
		ws.prefetch(ws.bind(m), it, lead)
		ws.greedyInit(it.Y, it.Opt, biased)
		if ws.st.done {
			continue
		}
		ws.c0[0] = ws.gram.phi0.Dot(it.Y)
		lead.rs = append(lead.rs, it.Y)
		lead.dsts = append(lead.dsts, ws.c0[1:])
		ws.stats.CorrelateColumns += n
	}
	sensing.CorrelateBlock(m, lead.rs, lead.dsts)
	clear(lead.rs) // drop the callers' measurements
	clear(lead.dsts)
	for _, ws := range wss {
		for _, s := range ws.pending {
			ws.gram.publish(s)
		}
	}
	for _, ws := range wss {
		for !ws.st.done {
			var top int
			ws.corr, top = linalg.SubCombination(ws.corr, ws.c0, ws.coef, ws.gcols)
			ws.greedyStep(top)
		}
		ws.gram.unpin(ws.pins)
		clear(ws.pins)
		clear(ws.gcols)
		ws.pins, ws.gcols = ws.pins[:0], ws.gcols[:0]
	}
}

// prefetch pins the Gram columns a warm hint names, so the run finds
// them; those g lacks are queued on lead's block correlate.
func (ws *Workspace) prefetch(g *GramCache, it *BatchItem, lead *Workspace) {
	ws.pending = ws.pending[:0]
	p := g.m.Params()
	hint := it.Warm
	if maxIter := clampMaxIter(it.Opt.MaxIterations, p.M, g.stride); len(hint) > maxIter {
		hint = hint[:maxIter]
	}
	ws.fillBuf = ensureVec(ws.fillBuf, len(hint)*p.M)
	ws.masked.reset(g.stride)
	for _, j := range hint {
		if j < 0 || j >= g.stride || ws.masked.has(j) {
			continue // not a column, or a repeat: hints are untrusted
		}
		ws.masked.set(j)
		s, hit := g.pin(j)
		ws.pins = append(ws.pins, s)
		if hit {
			ws.stats.Hits++
			continue
		}
		k := len(ws.pending)
		col := g.column(j, ws.fillBuf[k*p.M:(k+1)*p.M:(k+1)*p.M])
		s.g[0] = g.phi0.Dot(col)
		lead.rs = append(lead.rs, col)
		lead.dsts = append(lead.dsts, s.g[1:])
		ws.pending = append(ws.pending, s)
		ws.stats.Misses++
		ws.stats.CorrelateColumns += p.N
	}
}

// gramColumn returns g of the column the run just selected (still in
// ws.colBuf), computing it on a miss. The loop fetches it only once the
// run goes on past that selection, so the last pick costs no correlate.
func (ws *Workspace) gramColumn(j int) linalg.Vector {
	s, hit := ws.gram.pin(j)
	ws.pins = append(ws.pins, s)
	if hit {
		ws.stats.Hits++
		return s.g
	}
	ws.gram.fill(s, ws.colBuf)
	ws.gram.publish(s)
	ws.stats.Misses++
	ws.stats.CorrelateColumns += len(s.g) - 1
	return s.g
}

// finish packages the Result of the run solve just made. Selection is
// copied into its own backing (not aliased to ws.selected) so a caller
// may hand the previous generation's Selection straight back as the
// next call's warm hint on the SAME workspace.
func (ws *Workspace) finish() *Result {
	st := &ws.st
	res := &ws.res
	*res = Result{
		Iterations:    len(ws.selected),
		Residual:      st.diag.residual,
		StoppedEarly:  st.diag.stalled,
		ModeTrace:     st.diag.modeTrace,
		ResidualTrace: st.diag.residualTrace,
	}
	if st.biased {
		ws.selOut = append(ws.selOut[:0], ws.selected...)
		res.Selection = ws.selOut
	}
	// Split the bias coefficient from the outlier coefficients.
	ws.support = ws.support[:0]
	ws.coefOut = ws.coefOut[:0]
	for i, j := range ws.selected {
		if j == 0 {
			res.Mode = ws.coef[i] / math.Sqrt(float64(st.n))
		} else {
			ws.support = append(ws.support, j-1)
			ws.coefOut = append(ws.coefOut, ws.coef[i])
		}
	}
	res.Support = ws.support
	res.Coef = ws.coefOut
	ws.x = assembleInto(ws.x, st.n, res.Mode, res.Support, res.Coef)
	res.X = ws.x
	return res
}

// greedyState is the loop-invariant context of one greedy run.
type greedyState struct {
	opt    Options
	n      int  // data-space size N; the dictionary is [φ₀, Φ₀], N+1 columns
	biased bool // φ₀ is selectable (BOMP); false masks it out (OMP)

	maxIter  int
	yy       float64 // ‖y‖², as y.Dot(y)
	yNorm    float64
	tol      float64
	prevNorm float64

	done bool
	diag diagnostics
}

// clampMaxIter applies the engine's iteration-budget clamps.
func clampMaxIter(maxIter, m, size int) int {
	if maxIter <= 0 || maxIter > m {
		maxIter = m
	}
	if maxIter > size {
		maxIter = size
	}
	return maxIter
}

// greedyInit resets the workspace for a run of the greedy loop
// (paper Algorithm 2) on measurement y against the bound matrix's
// extended dictionary [φ₀, Φ₀], or Φ₀ alone when !biased.
func (ws *Workspace) greedyInit(y linalg.Vector, opt Options, biased bool) {
	st := &ws.st
	size := ws.gram.stride
	*st = greedyState{opt: opt, n: size - 1, biased: biased}
	ws.masked.reset(size)
	if !biased {
		ws.masked.set(0)
		size--
	}
	st.maxIter = clampMaxIter(opt.MaxIterations, len(y), size)

	st.yy = y.Dot(y)
	st.yNorm = y.Norm2()
	st.prevNorm = st.yNorm
	st.diag.residual = st.yNorm // final norm if nothing gets selected

	ws.chol = ws.chol[:0]
	ws.qty = ws.qty[:0]
	ws.selected = ws.selected[:0]
	ws.coef = ws.coef[:0]
	ws.c0 = ensureVec(ws.c0, ws.gram.stride)

	if st.yNorm == 0 || st.maxIter < 1 {
		st.done = true // zero measurement: zero vector
		return
	}
	st.tol = opt.residualTol() * st.yNorm
}

// greedyStep consumes the correlation vector in ws.corr and top, the
// combination's argmax of it — one iteration of the greedy loop: select,
// extend R, re-solve, stop checks — and leaves ws.coef and ws.gcols ready
// for the next combination.
func (ws *Workspace) greedyStep(top int) {
	st := &ws.st
	// Select the best column not already in (or rejected from) the
	// basis. A rejected pivot only marks the column and scans the SAME
	// correlations again: the basis did not change.
	best, bestAbs := pick(ws.corr, top, ws.masked)
	for {
		if best < 0 || bestAbs <= 1e-14*st.yNorm {
			st.done = true // nothing correlates: residual is (numerically) zero
			return
		}
		ws.masked.set(best)
		ws.colBuf = ws.gram.column(best, ws.colBuf)
		if ws.extend(best) {
			break
		}
		// Numerically inside the span: never picked again.
		best, bestAbs = argMaxAbsMasked(ws.corr, ws.masked)
	}
	ws.selected = append(ws.selected, best)
	ws.solveCoef()

	qq := 0.0
	for _, c := range ws.qty {
		qq += c * c
	}
	d := st.yy - qq
	if d < 0 {
		d = 0 // cancellation
	}
	norm := math.Sqrt(d)
	st.diag.residual = norm
	if st.opt.TraceResidual {
		st.diag.residualTrace = append(st.diag.residualTrace, norm)
	}
	if st.opt.TraceMode && st.biased {
		st.diag.modeTrace = append(st.diag.modeTrace, modeFromExtended(ws.coef, ws.selected, st.n))
	}
	switch {
	case norm <= st.tol:
		st.done = true
	case !st.opt.DisableEarlyStop && norm >= st.prevNorm*(1-st.opt.stallRelTol()):
		// §5: floating-point drift makes the residual stop decreasing long
		// before the iteration budget on real data; cut the run there.
		st.diag.stalled = true
		st.done = true
	case len(ws.selected) >= st.maxIter:
		st.done = true
	default:
		st.prevNorm = norm
		ws.gcols = append(ws.gcols, ws.gramColumn(best))
	}
}

// pivotTol is the relative pivot at or below which a candidate column
// counts as inside the span of the basis: d² ≤ pivotTol·‖φ_b‖², a
// remainder of at most 1e-5 of the column's norm. It is a bound on a
// square because the Gram squares the basis's condition number.
const pivotTol = 1e-10

// extend grows R by candidate column b, whose M entries are in ws.colBuf,
// and reports false, leaving R as it was, when b is numerically inside the
// span of the basis S. With G_SS = RᵀR, R's new column is [w; d]:
//
//	Rᵀw = G_{S,b},   d² = ‖φ_b‖² − ‖w‖²,
//
// where G_{S,b}[i] = g_{sᵢ}[b] is read off the cached Gram columns of the
// basis and ‖φ_b‖² off the column itself, so selecting b costs no
// correlate. The new entry of Qᵀy is (φ_bᵀy − wᵀQᵀy)/d, with φ_bᵀy = c₀[b]:
// what Gram–Schmidt would give, without forming q.
func (ws *Workspace) extend(b int) bool {
	t := len(ws.qty)
	base := len(ws.chol) // t(t+1)/2
	ws.chol = slices.Grow(ws.chol, t+1)[:base+t+1]
	w := ws.chol[base : base+t]
	ww := 0.0
	for i, off := 0, 0; i < t; i, off = i+1, off+i+1 {
		ri := ws.chol[off : off+i+1] // column i of R
		wi := (ws.gcols[i][b] - ri[:i].Dot(w[:i])) / ri[i]
		w[i] = wi
		ww += wi * wi
	}
	nb := ws.colBuf.Dot(ws.colBuf)
	d2 := nb - ww
	if !(d2 > pivotTol*nb) {
		ws.chol = ws.chol[:base]
		return false
	}
	d := math.Sqrt(d2)
	ws.chol[base+t] = d
	ws.qty = append(ws.qty, (ws.c0[b]-w.Dot(ws.qty))/d)
	return true
}

// solveCoef back-substitutes R·z = Qᵀy into ws.coef, a column of R at a
// time.
func (ws *Workspace) solveCoef() {
	z := append(ws.coef[:0], ws.qty...)
	end := len(ws.chol)
	for j := len(z) - 1; j >= 0; j-- {
		rj := ws.chol[end-j-1 : end] // column j of R
		end -= j + 1
		z[j] /= rj[j]
		z[:j].AddScaled(-z[j], rj[:j])
	}
	ws.coef = z
}

// bitset is a fixed-universe set of column indices.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// reset resizes the set to universe [0, n) and clears it, retaining
// backing storage.
func (b *bitset) reset(n int) {
	words := (n + 63) >> 6
	if cap(*b) < words {
		*b = make(bitset, words)
	}
	*b = (*b)[:words]
	clear(*b)
}

// argMaxAbsMasked is Vector.ArgMaxAbs restricted to indices outside
// mask. Ties break toward the lower index; when every unmasked entry is
// zero the first unmasked index is returned with value 0 (and -1 only
// when every index is masked) — the same contract as ArgMaxAbs over a
// vector whose masked entries were zeroed.
func argMaxAbsMasked(v linalg.Vector, mask bitset) (int, float64) {
	best, bestAbs := -1, 0.0
	for i, x := range v {
		if mask.has(i) {
			continue
		}
		if a := math.Abs(x); a > bestAbs {
			best, bestAbs = i, a
		} else if best == -1 {
			best = i
		}
	}
	return best, bestAbs
}

// pick is argMaxAbsMasked(corr, masked) given top, the first index of
// the largest |corr[j]| over every j (SubCombination's): a free top with a
// nonzero value is the answer, and only otherwise does it scan.
func pick(corr linalg.Vector, top int, masked bitset) (int, float64) {
	if top >= 0 && !masked.has(top) {
		if a := math.Abs(corr[top]); a > 0 {
			return top, a
		}
	}
	return argMaxAbsMasked(corr, masked)
}

// ensureVec returns v resized to n without zeroing (callers overwrite).
func ensureVec(v linalg.Vector, n int) linalg.Vector {
	if cap(v) < n {
		return make(linalg.Vector, n)
	}
	return v[:n]
}

// assembleInto builds the full recovered vector from the mode and the
// (support, deviation) pairs, reusing x's storage.
func assembleInto(x linalg.Vector, n int, mode float64, support []int, coef []float64) linalg.Vector {
	x = ensureVec(x, n)
	x.Fill(mode)
	for i, j := range support {
		x[j] = mode + coef[i]
	}
	return x
}
