package recovery

import (
	"errors"
	"fmt"
	"math"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// Workspace owns every buffer the greedy recovery engine touches — the
// correlation vector, column scratch, residual, QR factorization, masks
// and the Result itself — so that a standing query replaying BOMP on
// each refreshed sketch performs no heap allocation after the first call
// (pinned by AllocsPerRun tests).
//
// A Workspace is NOT safe for concurrent use. The *Result returned by
// its methods, including every slice inside it, is owned by the
// Workspace and is overwritten by the next call; callers that keep
// results across calls must copy what they need first.
type Workspace struct {
	qr       *linalg.IncrementalQR
	corr     linalg.Vector // Φᵀr, extended-dictionary length
	colBuf   linalg.Vector // selected column scratch
	residual linalg.Vector // current residual r
	coef     linalg.Vector // least-squares coefficients
	phi0     linalg.Vector // cached-φ₀ copy for the biased dictionary
	shifted  linalg.Vector // KnownModeOMP's bias-cancelled measurement
	x        linalg.Vector // assembled N-length output
	masked   bitset        // columns in the basis or excluded from it
	selected []int         // selection order
	selOut   []int         // Result.Selection backing (copy, see finishBOMP)
	support  []int         // Result.Support backing
	coefOut  []float64     // Result.Coef backing
	res      Result
	bd       biasedDict
	pd       plainDict
	st       greedyState

	// Warm-start prediction state (see warm.go). qrSeed is a second QR
	// so the prediction pass never disturbs ws.qr, which the replay
	// rebuilds live.
	qrSeed   *linalg.IncrementalQR
	script   []int         // validated warm hint: the predicted selection order
	predRes  linalg.Vector // predicted residual rows, flat rows×M
	predCorr linalg.Vector // their biased correlations, flat rows×(N+1)
}

// NewWorkspace returns an empty workspace. Buffers are sized lazily on
// first use and retained across calls, so one workspace serves queries
// of mixed shapes (buffers grow to the largest seen).
func NewWorkspace() *Workspace { return &Workspace{} }

// BOMP is the workspace-backed form of the package-level BOMP.
func (ws *Workspace) BOMP(m sensing.Matrix, y linalg.Vector, opt Options) (*Result, error) {
	p := m.Params()
	if len(y) != p.M {
		return nil, fmt.Errorf("%w: len(y)=%d, M=%d", ErrDimension, len(y), p.M)
	}
	ws.phi0 = m.ExtensionColumn(ws.phi0)
	ws.bd.m, ws.bd.phi0 = m, ws.phi0
	// The mode closure is only needed (and only allocated) when tracing.
	var modeFn func(z linalg.Vector, idx []int) float64
	if opt.TraceMode {
		n := p.N
		modeFn = func(z linalg.Vector, idx []int) float64 {
			return modeFromExtended(z, idx, n)
		}
	}
	ws.greedyInit(&ws.bd, y, p.M, opt, modeFn)
	for !ws.st.done {
		ws.corr = ws.bd.correlate(ws.residual, ws.corr)
		ws.greedyStep()
	}
	return ws.finishBOMP(p)
}

// finishBOMP solves for the coefficients and packages the BOMP Result —
// shared tail of the cold, warm and batched entry points. Selection is
// copied into its own backing (not aliased to ws.selected) so a caller
// may hand the previous generation's Selection straight back as the
// next call's warm hint on the SAME workspace.
func (ws *Workspace) finishBOMP(p sensing.Params) (*Result, error) {
	sel, coef, diag, err := ws.greedyFinish()
	if err != nil {
		return nil, err
	}
	res := &ws.res
	*res = Result{
		Iterations:    len(sel),
		Residual:      diag.residual,
		StoppedEarly:  diag.stalled,
		ModeTrace:     diag.modeTrace,
		ResidualTrace: diag.residualTrace,
	}
	ws.selOut = append(ws.selOut[:0], sel...)
	res.Selection = ws.selOut
	// Split the bias coefficient from the outlier coefficients.
	b := 0.0
	ws.support = ws.support[:0]
	ws.coefOut = ws.coefOut[:0]
	for i, j := range sel {
		if j == 0 {
			b = coef[i] / math.Sqrt(float64(p.N))
		} else {
			ws.support = append(ws.support, j-1)
			ws.coefOut = append(ws.coefOut, coef[i])
		}
	}
	res.Support = ws.support
	res.Coef = ws.coefOut
	res.Mode = b
	ws.x = assembleInto(ws.x, p.N, b, res.Support, res.Coef)
	res.X = ws.x
	return res, nil
}

// OMP is the workspace-backed form of the package-level OMP.
func (ws *Workspace) OMP(m sensing.Matrix, y linalg.Vector, opt Options) (*Result, error) {
	p := m.Params()
	if len(y) != p.M {
		return nil, fmt.Errorf("%w: len(y)=%d, M=%d", ErrDimension, len(y), p.M)
	}
	ws.pd = plainDict{m: m}
	sel, coef, diag, err := ws.greedy(&ws.pd, y, p.M, opt, nil)
	if err != nil {
		return nil, err
	}
	res := &ws.res
	*res = Result{
		Support:       sel,
		Coef:          coef,
		Iterations:    len(sel),
		Residual:      diag.residual,
		StoppedEarly:  diag.stalled,
		ResidualTrace: diag.residualTrace,
	}
	ws.x = assembleInto(ws.x, p.N, 0, sel, coef)
	res.X = ws.x
	return res, nil
}

// KnownModeOMP is the workspace-backed form of the package-level
// KnownModeOMP.
func (ws *Workspace) KnownModeOMP(m sensing.Matrix, y linalg.Vector, mode float64, opt Options) (*Result, error) {
	p := m.Params()
	if len(y) != p.M {
		return nil, fmt.Errorf("%w: len(y)=%d, M=%d", ErrDimension, len(y), p.M)
	}
	ws.phi0 = m.ExtensionColumn(ws.phi0)
	ws.shifted = ensureVec(ws.shifted, p.M)
	copy(ws.shifted, y)
	ws.shifted.AddScaled(-mode*math.Sqrt(float64(p.N)), ws.phi0)
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

// greedyState is the loop-invariant context of one greedy run, kept as
// a workspace field so cold, warm-started and batched drivers can all
// step the SAME algorithm: the cold path alternates correlate/step in a
// local loop, while the batch engine interleaves steps of many
// workspaces between shared correlation passes. Splitting the loop this
// way is what makes warm-start bit-identity provable — the replay path
// runs greedyStep itself, so it cannot diverge from the cold algorithm,
// only from the cost of computing its inputs.
type greedyState struct {
	d      dictionary
	opt    Options
	modeFn func(z linalg.Vector, idx []int) float64

	maxIter  int
	yNorm    float64
	tol      float64
	prevNorm float64

	done bool
	err  error
	diag diagnostics
}

// clampMaxIter applies the engine's iteration-budget clamps; predict
// (warm.go) must agree with greedyInit on this exactly.
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
// (paper Algorithm 2) on dictionary d and measurement y.
func (ws *Workspace) greedyInit(d dictionary, y linalg.Vector, m int, opt Options,
	modeFn func(z linalg.Vector, idx []int) float64) {

	st := &ws.st
	*st = greedyState{d: d, opt: opt, modeFn: modeFn}
	st.maxIter = clampMaxIter(opt.MaxIterations, m, d.size())

	ws.resetQR(y)
	st.yNorm = y.Norm2()
	st.prevNorm = st.yNorm
	st.diag.residual = st.yNorm // final norm if nothing gets selected

	ws.masked.reset(d.size())
	ws.selected = ws.selected[:0]
	ws.residual = ensureVec(ws.residual, m)
	copy(ws.residual, y)

	if st.yNorm == 0 || st.maxIter < 1 {
		st.done = true // zero measurement: zero vector
		return
	}
	st.tol = opt.residualTol() * st.yNorm
}

// resetQR rewinds the workspace's factorization to zero columns against
// the target y, keeping its storage.
func (ws *Workspace) resetQR(y linalg.Vector) {
	if ws.qr == nil {
		ws.qr = linalg.NewIncrementalQR(len(y))
	} else {
		ws.qr.Reset(len(y))
	}
	ws.qr.SetTarget(y)
}

// greedyStep consumes the correlation vector in ws.corr — one iteration
// of the greedy loop: argmax, QR append, residual update, stop checks.
// The caller (cold loop, scripted replay, or batch driver) is
// responsible for ws.corr holding Φᵀr for the CURRENT ws.residual.
func (ws *Workspace) greedyStep() {
	st := &ws.st
	qr := ws.qr
	// Select the best column not already in (or rejected from) the
	// basis. A rank-deficient rejection only marks the column and
	// re-runs the argmax on the SAME correlations — the residual did
	// not change, so re-correlating (as a naive loop restart would)
	// would redo the O(M·N) step for an identical answer.
	appended := false
	for {
		best, bestAbs := argMaxAbsMasked(ws.corr, ws.masked)
		if best < 0 || bestAbs <= 1e-14*st.yNorm {
			break // nothing correlates: residual is (numerically) zero
		}
		ws.colBuf = st.d.col(best, ws.colBuf)
		if _, err := qr.Append(ws.colBuf); err != nil {
			if errors.Is(err, linalg.ErrRankDeficient) {
				// Column numerically inside current span; never pick it again.
				ws.masked.set(best)
				continue
			}
			st.err = err
			st.done = true
			return
		}
		ws.selected = append(ws.selected, best)
		ws.masked.set(best)
		appended = true
		break
	}
	if !appended {
		st.done = true
		return
	}

	ws.residual = qr.Residual(ws.residual)
	norm := qr.ResidualNorm()
	st.diag.residual = norm
	if st.opt.TraceResidual {
		st.diag.residualTrace = append(st.diag.residualTrace, norm)
	}
	if st.opt.TraceMode && st.modeFn != nil {
		z, err := qr.SolveInto(ws.coef)
		if err != nil {
			st.err = err
			st.done = true
			return
		}
		ws.coef = z
		st.diag.modeTrace = append(st.diag.modeTrace, st.modeFn(z, ws.selected))
	}
	if norm <= st.tol {
		st.done = true
		return
	}
	// §5: floating-point drift makes the residual stop decreasing long
	// before the iteration budget on real data; cut the run there.
	if !st.opt.DisableEarlyStop && norm >= st.prevNorm*(1-st.opt.stallRelTol()) {
		st.diag.stalled = true
		st.done = true
		return
	}
	st.prevNorm = norm
	if len(ws.selected) >= st.maxIter {
		st.done = true
	}
}

// greedyFinish solves the least-squares system for the selected columns.
// It returns the selection order and coefficients, both aliasing
// workspace storage.
func (ws *Workspace) greedyFinish() ([]int, linalg.Vector, diagnostics, error) {
	st := &ws.st
	if st.err != nil {
		return nil, nil, st.diag, st.err
	}
	if len(ws.selected) == 0 {
		return nil, nil, st.diag, nil
	}
	z, err := ws.qr.SolveInto(ws.coef)
	if err != nil {
		return nil, nil, st.diag, err
	}
	ws.coef = z
	return ws.selected, z, st.diag, nil
}

// greedy is the cold driver of the shared OMP column-selection loop:
// correlate against the current residual, step, repeat. modeFn, when
// non-nil and opt.TraceMode is set, converts the running coefficients
// into a mode estimate per iteration.
func (ws *Workspace) greedy(d dictionary, y linalg.Vector, m int, opt Options,
	modeFn func(z linalg.Vector, idx []int) float64) ([]int, linalg.Vector, diagnostics, error) {

	ws.greedyInit(d, y, m, opt, modeFn)
	for !ws.st.done {
		ws.corr = d.correlate(ws.residual, ws.corr)
		ws.greedyStep()
	}
	return ws.greedyFinish()
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
