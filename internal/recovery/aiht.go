package recovery

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// AIHT implements normalized / accelerated Iterative Hard Thresholding
// (Blumensath & Davies 2010): plain IHT's fixed step μ = 1 is replaced
// by the adaptive exact line-search step on the current support τ,
//
//	μ = ‖g_τ‖² / ‖Φ·g_τ‖²,   g = Φᵀ(y − Φx),
//
// which is optimal while the support does not move. When the
// thresholded step DOES move the support, the normalized-IHT safeguard
// accepts μ only below the stability threshold
//
//	ω = (1−c)·‖x₁−x₀‖² / ‖Φ(x₁−x₀)‖²,
//
// halving μ until either the support settles or μ ≤ ω. Each iteration
// costs one correlation and O(s) column accumulations — no QR update —
// so at large target sparsity AIHT finishes in a few dozen iterations
// where BOMP pays 3s+1 QR-augmented greedy rounds. A final least-squares
// debias on the recovered support makes exact-sparse instances exact.
func AIHT(m sensing.Matrix, y linalg.Vector, s int, opt Options) (*Result, error) {
	return NewWorkspace().AIHT(m, y, s, opt)
}

// BiasedAIHT runs AIHT over BOMP's extended dictionary [φ₀, Φ₀], so
// data concentrated around an unknown bias is recovered the same way
// BOMP does it, with the bias occupying one sparse slot.
func BiasedAIHT(m sensing.Matrix, y linalg.Vector, s int, opt Options) (*Result, error) {
	return NewWorkspace().BiasedAIHTWarm(m, y, s, nil, opt)
}

// BiasedAIHTWarm is BiasedAIHT seeded with a warm-start hint: the
// extended-dictionary Selection of a previous Result for the same
// standing query (any BOMP/AIHT/Dantzig Selection works — solvers can
// migrate across fold generations). The hint initializes the support
// and coefficients by one least-squares solve; a stale or garbage hint
// only costs extra iterations, never a wrong answer, because the
// iteration corrects the support like a cold run.
func BiasedAIHTWarm(m sensing.Matrix, y linalg.Vector, s int, warm []int, opt Options) (*Result, error) {
	return NewWorkspace().BiasedAIHTWarm(m, y, s, warm, opt)
}

// AIHT is the workspace-backed form of the package-level AIHT.
func (ws *Workspace) AIHT(m sensing.Matrix, y linalg.Vector, s int, opt Options) (*Result, error) {
	return ws.aiht(m, y, s, opt, false, nil)
}

// BiasedAIHTWarm is the workspace-backed form of the package-level
// BiasedAIHTWarm (and, with a nil hint, of BiasedAIHT).
func (ws *Workspace) BiasedAIHTWarm(m sensing.Matrix, y linalg.Vector, s int, warm []int, opt Options) (*Result, error) {
	return ws.aiht(m, y, s, opt, true, warm)
}

func (ws *Workspace) aiht(m sensing.Matrix, y linalg.Vector, s int, opt Options, biased bool, warm []int) (*Result, error) {
	p := m.Params()
	if len(y) != p.M {
		return nil, fmt.Errorf("%w: len(y)=%d, M=%d", ErrDimension, len(y), p.M)
	}
	if s < 1 {
		return nil, fmt.Errorf("recovery: AIHT needs target sparsity >= 1, got %d", s)
	}
	var d sparseImager
	size := p.N
	if biased {
		ws.phi0 = m.ExtensionColumn(ws.phi0)
		ws.bd.m, ws.bd.phi0 = m, ws.phi0
		d = &ws.bd
		s++ // bias slot
		size = p.N + 1
	} else {
		ws.pd = plainDict{m: m}
		d = &ws.pd
	}
	if s > size {
		s = size
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = 200
	}
	yNorm := y.Norm2()
	if yNorm == 0 {
		ws.x = assembleInto(ws.x, p.N, 0, nil, nil)
		ws.res = Result{X: ws.x}
		return &ws.res, nil
	}
	tol := opt.residualTol() * yNorm

	ws.iter = ensureVec(ws.iter, size)
	x := ws.iter
	x.Fill(0)
	ws.residual = ensureVec(ws.residual, p.M)
	residual := ws.residual
	copy(residual, y)
	ws.cand = ensureVec(ws.cand, size)
	ws.step = ensureVec(ws.step, size)
	cand, step := ws.cand, ws.step

	// Warm start: least-squares on the hinted extended-dictionary
	// support. A useful hint lands the iterate next to the solution;
	// any other hint is just a different starting point.
	if len(warm) > 0 {
		ws.script = validWarmSupport(ws.script, &ws.masked, warm, size, s)
		if len(ws.script) > 0 {
			if kept, z, err := ws.leastSquares(d, y, ws.script); err == nil && len(kept) > 0 {
				for i, j := range kept {
					x[j] = z[i]
				}
				residual = ws.sp.applyResidual(d, y, x, residual)
			}
		}
	}

	// Current support τ (ws.tau): where x is nonzero, or the s strongest
	// proxy entries while the iterate is still zero (snippet-2
	// initialization). ws.tauNext holds each proposal's support; the two
	// trade places when a step that moves the support is accepted.
	ws.tau = nonzeroIndices(ws.tau, x)
	prevNorm := residual.Norm2()
	if ft := warmFastTol(tol, yNorm); ft > 0 && prevNorm <= ft && len(ws.tau) > 0 {
		// Warm hint already explains the measurement to tolerance.
		return ws.finishAIHT(d, p, y, yNorm, ws.tau, 0, false, nil, biased)
	}
	if len(ws.tau) == 0 {
		ws.corr = d.correlate(y, ws.corr)
		ws.tau = ws.sp.topAbsIndices(ws.tau, ws.corr, s)
	}
	prevNorm = residual.Norm2()

	const c = 0.01 // safeguard slack (1−c) from the NIHT analysis
	iters := 0
	stalled := false
	var trace []float64
	for t := 0; t < maxIter; t++ {
		iters = t + 1
		ws.corr = d.correlate(residual, ws.corr)
		grad := ws.corr

		// Adaptive step on the current support: μ = ‖g_τ‖²/‖Φ g_τ‖².
		num := 0.0
		step.Fill(0)
		for _, j := range ws.tau {
			num += grad[j] * grad[j]
			step[j] = grad[j]
		}
		if num == 0 {
			// Gradient vanishes on the support: the residual is
			// orthogonal to every selected column — converged.
			break
		}
		ws.gImg = ws.sp.sparseImage(d, step, ws.tau, ws.gImg)
		den := ws.gImg.Dot(ws.gImg)
		if den == 0 {
			break
		}
		mu := num / den

		// Propose, and safeguard support changes by the ω threshold. Each
		// accept branch knows Φ·(x₁−x₀) already — μ·Φg_τ when the support
		// holds, the safeguard's step image when it moves — so the
		// residual updates incrementally (r ← r − Φ·Δx) instead of paying
		// a full sparse measurement per iteration.
		accepted := false
		var applied linalg.Vector
		appliedScale := 1.0
		for halvings := 0; halvings < 64; halvings++ {
			for i := range cand {
				cand[i] = x[i] + mu*grad[i]
			}
			ws.sp.hardThreshold(cand, s)
			ws.tauNext = nonzeroIndices(ws.tauNext, cand)
			if intsEqual(ws.tauNext, ws.tau) {
				accepted = true
				applied, appliedScale = ws.gImg, mu
				break
			}
			// Support moved: accept only a provably stable step.
			for i := range step {
				step[i] = cand[i] - x[i]
			}
			diffNorm2 := step.Dot(step)
			ws.diffImg = ws.sp.sparseImage(d, step, nil, ws.diffImg)
			imgNorm2 := ws.diffImg.Dot(ws.diffImg)
			if imgNorm2 == 0 {
				break
			}
			omega := (1 - c) * diffNorm2 / imgNorm2
			if mu <= omega {
				ws.tau, ws.tauNext = ws.tauNext, ws.tau
				accepted = true
				applied, appliedScale = ws.diffImg, 1
				break
			}
			mu /= 2
		}
		if !accepted {
			stalled = true
			break
		}
		copy(x, cand)
		residual.AddScaled(-appliedScale, applied)
		norm := residual.Norm2()
		if opt.TraceResidual {
			trace = append(trace, norm)
		}
		if norm <= tol {
			break
		}
		if !opt.DisableEarlyStop && norm >= prevNorm*(1-opt.stallRelTol()) && t > 0 {
			stalled = true
			break
		}
		prevNorm = norm
	}

	ws.tau = nonzeroIndices(ws.tau, x)
	return ws.finishAIHT(d, p, y, yNorm, ws.tau, iters, stalled, trace, biased)
}

// finishAIHT debiases the final iterate's support and maps it into the
// workspace's Result.
func (ws *Workspace) finishAIHT(d dictionary, p sensing.Params, y linalg.Vector, yNorm float64,
	support []int, iters int, stalled bool, trace []float64, biased bool) (*Result, error) {
	kept, coef, resNorm, err := ws.debiasPruned(d, y, yNorm, support)
	if err != nil {
		return nil, err
	}
	res := ws.extendedResult(p.N, kept, coef, biased)
	res.Iterations = iters
	res.StoppedEarly = stalled
	res.ResidualTrace = trace
	res.Residual = resNorm
	return res, nil
}

// thresholdScratch is the scratch the hard-thresholding family (IHT,
// AIHT) works in: a Workspace owns one, a one-shot caller declares one.
type thresholdScratch struct {
	work linalg.Vector // |v|, partially reordered by kthLargest
	idx  []int         // sparse image: where v is nonzero
	vals []float64     // sparse image: v there
	img  linalg.Vector // applyResidual's Φ·x
}

// sparseImage computes Φ·v into dst for a vector supported on the given
// indices (nil = derive from nonzeros) through the ensemble's fused
// MeasureSparse kernel.
func (sc *thresholdScratch) sparseImage(d sparseImager, v linalg.Vector, support []int, dst linalg.Vector) linalg.Vector {
	idx := support
	if idx == nil {
		sc.idx = sc.idx[:0]
		for j, val := range v {
			if val != 0 {
				sc.idx = append(sc.idx, j)
			}
		}
		idx = sc.idx
	}
	sc.vals = sc.vals[:0]
	for _, j := range idx {
		sc.vals = append(sc.vals, v[j])
	}
	return d.image(idx, sc.vals, dst)
}

// validWarmSupport sanitizes a warm Selection hint into dst: in-range
// extended indices, deduplicated through seen, first s kept (hints are
// emitted energy-first), sorted.
func validWarmSupport(dst []int, seen *bitset, warm []int, size, s int) []int {
	seen.reset(size)
	dst = dst[:0]
	for _, j := range warm {
		if j < 0 || j >= size || seen.has(j) {
			continue
		}
		seen.set(j)
		dst = append(dst, j)
		if len(dst) == s {
			break
		}
	}
	sort.Ints(dst)
	return dst
}

// coefPruneFrac is the relative coefficient floor used when debiasing a
// sparsity-targeted solver's support: a least-squares coefficient below
// this fraction of ‖y‖ is numerical residue (the solver's tolerance
// stop fires at 1e-9·‖y‖), not a recovered outlier, and reporting it
// would surface phantom support entries when the target sparsity
// exceeds the true one.
const coefPruneFrac = 1e-7

// warmFastTol is the warm fast-path acceptance threshold: a hinted
// support whose least-squares fit leaves at most this much of ‖y‖
// unexplained is accepted without iterating. The default ResidualTol
// (1e-9 relative) sits below incremental-QR float noise on real
// supports (~1e-8 relative at repo scales), so without the floor the
// fast path would never fire; the floor reuses coefPruneFrac because
// energy below it is numerical residue, not a missed outlier. A
// non-positive tol (the negative ResidualTol sentinel) disables
// tolerance stops, and with them the fast path — callers must skip the
// shortcut when the returned threshold is zero.
func warmFastTol(tol, yNorm float64) float64 {
	if tol <= 0 {
		return 0
	}
	if floor := coefPruneFrac * yNorm; tol < floor {
		return floor
	}
	return tol
}

// leastSquares solves min ‖y − Φ_sup·z‖ over the given (extended)
// support in the workspace's QR, skipping numerically dependent columns.
// kept and z alias workspace storage; kept is empty when no column of
// sup was usable.
func (ws *Workspace) leastSquares(d dictionary, y linalg.Vector, sup []int) (kept []int, z linalg.Vector, err error) {
	ws.resetQR(y)
	ws.selected = ws.selected[:0]
	for _, j := range sup {
		ws.colBuf = d.col(j, ws.colBuf)
		if _, err := ws.qr.Append(ws.colBuf); err != nil {
			continue
		}
		ws.selected = append(ws.selected, j)
	}
	if len(ws.selected) == 0 {
		return nil, nil, nil
	}
	z, err = ws.qr.SolveInto(ws.coef)
	if err != nil {
		return nil, nil, err
	}
	ws.coef = z
	return ws.selected, z, nil
}

// debiasPruned least-squares-solves y over the given (extended) support,
// drops coefficients below coefPruneFrac·‖y‖, and re-solves over the
// survivors so the reported coefficients and residual are exact for the
// pruned support. kept and coef alias workspace storage.
func (ws *Workspace) debiasPruned(d dictionary, y linalg.Vector, yNorm float64, support []int) (kept []int, coef []float64, resNorm float64, err error) {
	if len(support) == 0 {
		return nil, nil, yNorm, nil
	}
	kept, coef, err = ws.leastSquares(d, y, support)
	if err != nil || len(kept) == 0 {
		return nil, nil, yNorm, err
	}
	floor := coefPruneFrac * yNorm
	ws.pruned = ws.pruned[:0]
	for i, j := range kept {
		if math.Abs(coef[i]) > floor {
			ws.pruned = append(ws.pruned, j)
		}
	}
	if len(ws.pruned) == len(kept) {
		return kept, coef, ws.qr.ResidualNorm(), nil
	}
	if len(ws.pruned) == 0 {
		return nil, nil, yNorm, nil
	}
	kept, coef, err = ws.leastSquares(d, y, ws.pruned)
	if err != nil || len(kept) == 0 {
		return nil, nil, yNorm, err
	}
	return kept, coef, ws.qr.ResidualNorm(), nil
}

// debiasPruned is the one-shot form for solvers that run outside a
// Workspace.
func debiasPruned(d dictionary, y linalg.Vector, yNorm float64, support []int) ([]int, []float64, float64, error) {
	return NewWorkspace().debiasPruned(d, y, yNorm, support)
}

// extItem is one extended-dictionary (column, coefficient) pair.
type extItem struct {
	j int
	c float64
}

// extendedResult maps an extended-dictionary (support, coef) solution
// into the workspace's Result: the bias column becomes Mode, data
// columns shift down by one, Support/Coef are ordered by |coef|
// descending (the energy order BOMP's greedy selection produces
// naturally), and Selection carries the extended indices in the same
// order so any solver can warm the next generation's run — including a
// BOMP one.
func (ws *Workspace) extendedResult(n int, kept []int, coef []float64, biased bool) *Result {
	ws.items = ws.items[:0]
	mode := 0.0
	if biased {
		for i, j := range kept {
			if j == 0 {
				mode = coef[i] / math.Sqrt(float64(n))
				continue
			}
			ws.items = append(ws.items, extItem{j, coef[i]})
		}
	} else {
		for i, j := range kept {
			ws.items = append(ws.items, extItem{j + 1, coef[i]})
		}
	}
	// Columns are distinct, so the order is total and any sort agrees.
	slices.SortFunc(ws.items, func(a, b extItem) int {
		switch da, db := math.Abs(a.c), math.Abs(b.c); {
		case da > db:
			return -1
		case da < db:
			return 1
		}
		return a.j - b.j
	})
	ws.selOut, ws.support, ws.coefOut = ws.selOut[:0], ws.support[:0], ws.coefOut[:0]
	if biased && mode != 0 {
		ws.selOut = append(ws.selOut, 0)
	}
	for _, it := range ws.items {
		ws.support = append(ws.support, it.j-1)
		ws.coefOut = append(ws.coefOut, it.c)
		ws.selOut = append(ws.selOut, it.j)
	}
	res := &ws.res
	*res = Result{Mode: mode}
	if len(ws.items) > 0 {
		res.Support, res.Coef = ws.support, ws.coefOut
	}
	if biased && len(ws.selOut) > 0 {
		res.Selection = ws.selOut
	}
	ws.x = assembleInto(ws.x, n, mode, res.Support, res.Coef)
	res.X = ws.x
	return res
}

// extendedResult is the one-shot form for solvers that run outside a
// Workspace.
func extendedResult(n int, kept []int, coef []float64, biased bool) *Result {
	return NewWorkspace().extendedResult(n, kept, coef, biased)
}

// intsEqual reports whether two sorted index slices are identical.
func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
