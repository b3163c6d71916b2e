package recovery

import (
	"fmt"
	"math"
	"sort"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// Dantzig-selector solver constants. λ is chosen relative to the proxy
// scale ‖Φᵀy‖∞ — small enough that the exact-sparse regime reproduces
// the basis-pursuit answer, large enough to regularize when the
// sparsity assumption degrades (the solver's reason to exist).
const (
	dsLambdaFrac = 1e-3
	dsRho        = 1.0
	dsADMMTol    = 1e-9
	dsMaxRounds  = 6 // support-correction rounds after ADMM
)

// Dantzig solves the Dantzig selector (Candès & Tao 2007)
//
//	minimize ‖x‖₁  subject to  ‖Φᵀ(y − Φx)‖∞ ≤ λ
//
// via ADMM on the equivalent split problem: the β-update solves the
// ridge system (ΦᵀΦ + ρI)β = Φᵀy − z + u, the z-update clips the
// constraint residual Φᵀ(y − Φβ) + u into the ±λ box, and the scaled
// dual u accumulates what the clip removed. The ridge solve runs
// through the Woodbury identity against the M×M Gram ρI + ΦΦᵀ —
// factored ONCE by Cholesky, so each iteration costs four matrix-vector
// products and two triangular solves instead of an O(N³) solve in data
// space.
//
// The ℓ∞ constraint on the *correlated* residual is what distinguishes
// it from basis pursuit's equality constraint: with noise folded into
// the sketch, the selector tolerates a residual as long as no
// dictionary column can explain it — the robust choice when the data is
// only approximately sparse. After ADMM, the support is read off the
// largest |β| entries and polished by least squares with CoSaMP-style
// correction rounds, so exact-sparse instances recover exactly.
func Dantzig(m sensing.Matrix, y linalg.Vector, s int, opt Options) (*Result, error) {
	return dantzig(m, y, s, opt, false, nil)
}

// BiasedDantzig runs the Dantzig selector over BOMP's extended
// dictionary [φ₀, Φ₀], recovering data concentrated around an unknown
// bias with the bias in one sparse slot.
func BiasedDantzig(m sensing.Matrix, y linalg.Vector, s int, opt Options) (*Result, error) {
	return dantzig(m, y, s, opt, true, nil)
}

// BiasedDantzigWarm is BiasedDantzig seeded with a warm-start hint (a
// previous Result's extended-dictionary Selection, from any solver).
// The hint initializes β by one least-squares solve on the hinted
// support; when that already explains the measurement to tolerance the
// ADMM loop is skipped entirely — the standing-query fast path.
func BiasedDantzigWarm(m sensing.Matrix, y linalg.Vector, s int, warm []int, opt Options) (*Result, error) {
	return dantzig(m, y, s, opt, true, warm)
}

func dantzig(m sensing.Matrix, y linalg.Vector, s int, opt Options, biased bool, warm []int) (*Result, error) {
	p := m.Params()
	if len(y) != p.M {
		return nil, fmt.Errorf("%w: len(y)=%d, M=%d", ErrDimension, len(y), p.M)
	}
	if s < 1 {
		return nil, fmt.Errorf("recovery: Dantzig needs target sparsity >= 1, got %d", s)
	}
	var d dictionary
	size := p.N
	if biased {
		d = &biasedDict{m: m, phi0: m.ExtensionColumn(nil)}
		s++ // bias slot
		size = p.N + 1
	} else {
		d = &plainDict{m: m}
	}
	if s > size {
		s = size
	}
	yNorm := y.Norm2()
	if yNorm == 0 {
		return &Result{X: make(linalg.Vector, p.N)}, nil
	}
	tol := opt.residualTol() * yNorm

	// Warm fast path: if a least-squares fit on the hinted support
	// already explains y to tolerance, skip ADMM — the answer is
	// correct by construction (it IS a tolerance-satisfying sparse
	// explanation), just not bit-identical to a cold run's path. A
	// negative ResidualTol disables tolerance stops (the PR 6 sentinel
	// contract), and with them this shortcut.
	fastTol := warmFastTol(tol, yNorm)
	if len(warm) > 0 && fastTol > 0 {
		if sup := validWarmSupport(nil, new(bitset), warm, size, s); len(sup) > 0 {
			kept, coef, resNorm, err := debiasPruned(d, y, yNorm, sup)
			if err == nil && len(kept) > 0 && resNorm <= fastTol {
				res := extendedResult(p.N, kept, coef, biased)
				res.Residual = resNorm
				return res, nil
			}
		}
	}

	// Materialize the (extended) dictionary once: amat is M×size, so
	// MulVec is Φ·x and MulVecT is Φᵀ·r. Same O(N·M) memory trade OLS
	// makes — the Dantzig selector is the robustness solver, not the
	// default hot path.
	amat := linalg.NewMatrix(p.M, size)
	colBuf := make(linalg.Vector, p.M)
	for j := 0; j < size; j++ {
		colBuf = d.col(j, colBuf)
		for i := 0; i < p.M; i++ {
			amat.Data[i*size+j] = colBuf[i]
		}
	}
	// Gram ρI + Φ·Φᵀ, factored once.
	gram := linalg.NewMatrix(p.M, p.M)
	for i := 0; i < p.M; i++ {
		ri := amat.Row(i)
		for j := i; j < p.M; j++ {
			v := ri.Dot(amat.Row(j))
			if i == j {
				v += dsRho
			}
			gram.Set(i, j, v)
			gram.Set(j, i, v)
		}
	}
	chol, err := linalg.NewCholesky(gram)
	if err != nil {
		return nil, fmt.Errorf("recovery: Dantzig Gram factorization: %w", err)
	}

	aty := amat.MulVecT(y, nil)
	lambda := dsLambdaFrac * aty.NormInf()

	beta := make(linalg.Vector, size)
	z := make(linalg.Vector, size)
	u := make(linalg.Vector, size)
	q := make(linalg.Vector, size)
	betaOld := make(linalg.Vector, size)
	corr := make(linalg.Vector, size)
	t := make(linalg.Vector, p.M)
	w := make(linalg.Vector, p.M)
	img := make(linalg.Vector, p.M)
	r := make(linalg.Vector, p.M)

	// Note: the β-update below depends only on (z, u), so seeding β from
	// the warm hint would be inert — the fast path above is the only
	// useful warm start.

	maxADMM := opt.MaxIterations
	if maxADMM <= 0 {
		maxADMM = 400
	}
	iters := 0
	for it := 0; it < maxADMM; it++ {
		iters = it + 1
		copy(betaOld, beta)
		// β-update via Woodbury: β = (q − Φᵀ(ρI+ΦΦᵀ)⁻¹Φq)/ρ.
		for i := range q {
			q[i] = aty[i] - z[i] + u[i]
		}
		t = amat.MulVec(q, t)
		w, err = chol.SolveInto(w, t)
		if err != nil {
			return nil, err
		}
		beta = amat.MulVecT(w, beta)
		for i := range beta {
			beta[i] = (q[i] - beta[i]) / dsRho
		}
		// z-update: clip the constraint residual into the ±λ box.
		img = amat.MulVec(beta, img)
		for i := range r {
			r[i] = y[i] - img[i]
		}
		corr = amat.MulVecT(r, corr)
		for i := range z {
			v := corr[i] + u[i]
			if v > lambda {
				v = lambda
			} else if v < -lambda {
				v = -lambda
			}
			z[i] = v
			u[i] += corr[i] - z[i]
		}
		// Converged when β stops moving.
		maxDelta, scale := 0.0, 1.0
		for i := range beta {
			if dlt := math.Abs(beta[i] - betaOld[i]); dlt > maxDelta {
				maxDelta = dlt
			}
			if a := math.Abs(beta[i]); a > scale {
				scale = a
			}
		}
		if maxDelta <= dsADMMTol*scale {
			break
		}
	}

	// Read the support off β: strongest entries first, least-squares
	// polish, then CoSaMP-style correction rounds until the residual
	// meets the tolerance or stalls. The correction loop is what lets
	// the combination recover exactly even when ADMM's ℓ1 ranking is
	// slightly off.
	cands := topAbsIndices(beta, min(size, 3*s))
	// topAbsIndices sorts ascending; rebuild in |β|-descending order.
	sortByAbsDesc(cands, beta)
	qr := linalg.NewIncrementalQR(p.M)
	qr.SetTarget(y)
	var support []int
	for _, j := range cands {
		if beta[j] == 0 && len(support) > 0 {
			break
		}
		colBuf = d.col(j, colBuf)
		if _, err := qr.Append(colBuf); err != nil {
			continue
		}
		support = append(support, j)
		if qr.ResidualNorm() <= tol || len(support) == s {
			break
		}
	}
	resNorm := qr.ResidualNorm()
	if len(support) == 0 {
		resNorm = yNorm
	}
	residual := qr.Residual(make(linalg.Vector, p.M))

	stalled := false
	var trace []float64
	for round := 0; resNorm > tol && round < dsMaxRounds; round++ {
		prevNorm := resNorm
		corr = amat.MulVecT(residual, corr)
		merged := mergeSupports(sortedIdxCopy(support), topAbsIndices(corr, 2*s))
		kept, coef, _, err := lsOnSupport(d, y, merged, p.M)
		if err != nil {
			return nil, err
		}
		pruneToStrongest(&kept, &coef, s)
		kept2, _, norm2, err := lsOnSupport(d, y, kept, p.M)
		if err != nil {
			return nil, err
		}
		support = kept2
		// Recompute the residual for the next round.
		qr2 := linalg.NewIncrementalQR(p.M)
		qr2.SetTarget(y)
		for _, j := range support {
			colBuf = d.col(j, colBuf)
			if _, err := qr2.Append(colBuf); err != nil {
				continue
			}
		}
		residual = qr2.Residual(residual)
		resNorm = norm2
		if opt.TraceResidual {
			trace = append(trace, resNorm)
		}
		if resNorm <= tol {
			break
		}
		if !opt.DisableEarlyStop && resNorm >= prevNorm*(1-opt.stallRelTol()) {
			stalled = true
			break
		}
	}

	kept, coef, finalNorm, err := debiasPruned(d, y, yNorm, sortedIdxCopy(support))
	if err != nil {
		return nil, err
	}
	res := extendedResult(p.N, kept, coef, biased)
	res.Iterations = iters
	res.StoppedEarly = stalled
	res.ResidualTrace = trace
	res.Residual = finalNorm
	return res, nil
}

// lsOnSupport least-squares-solves y over the support, skipping
// dependent columns.
func lsOnSupport(d dictionary, y linalg.Vector, support []int, m int) ([]int, []float64, float64, error) {
	qr := linalg.NewIncrementalQR(m)
	qr.SetTarget(y)
	colBuf := make(linalg.Vector, m)
	var kept []int
	for _, j := range support {
		colBuf = d.col(j, colBuf)
		if _, err := qr.Append(colBuf); err != nil {
			continue
		}
		kept = append(kept, j)
	}
	if len(kept) == 0 {
		return nil, nil, y.Norm2(), nil
	}
	z, err := qr.Solve()
	if err != nil {
		return nil, nil, 0, err
	}
	return kept, append([]float64(nil), z...), qr.ResidualNorm(), nil
}

// pruneToStrongest keeps the s largest-|coef| (support, coef) pairs,
// re-sorted by index.
func pruneToStrongest(support *[]int, coef *[]float64, s int) {
	if len(*support) <= s {
		return
	}
	sup, cf := *support, *coef
	idx := make([]int, len(sup))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		da, db := math.Abs(cf[idx[a]]), math.Abs(cf[idx[b]])
		if da != db {
			return da > db
		}
		return sup[idx[a]] < sup[idx[b]]
	})
	idx = idx[:s]
	sort.Slice(idx, func(a, b int) bool { return sup[idx[a]] < sup[idx[b]] })
	newSup := make([]int, 0, s)
	newCoef := make([]float64, 0, s)
	for _, i := range idx {
		newSup = append(newSup, sup[i])
		newCoef = append(newCoef, cf[i])
	}
	*support = newSup
	*coef = newCoef
}

// sortByAbsDesc reorders the index slice by |v| descending (index
// ascending on ties).
func sortByAbsDesc(idx []int, v linalg.Vector) {
	sort.Slice(idx, func(a, b int) bool {
		da, db := math.Abs(v[idx[a]]), math.Abs(v[idx[b]])
		if da != db {
			return da > db
		}
		return idx[a] < idx[b]
	})
}

func sortedIdxCopy(a []int) []int {
	out := append([]int(nil), a...)
	sort.Ints(out)
	return out
}
