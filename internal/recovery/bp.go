package recovery

import (
	"fmt"
	"math"

	"csoutlier/internal/linalg"
	"csoutlier/internal/lp"
	"csoutlier/internal/sensing"
)

// Basis-pursuit solver constants. Small instances go through the exact
// two-phase simplex; past bpLPMaxDim dictionary columns the dense
// tableau's pivot count (and its tolerance-driven degeneracy stalls)
// grow faster than the problem, so larger instances run ADMM projection
// splitting against the same M×M Gram factorization the Dantzig
// selector uses.
const (
	bpLPMaxDim   = 200  // LP path: at most this many dictionary columns
	bpRho        = 1.0  // ADMM penalty (problem is normalized to ‖y‖=1)
	bpMaxADMM    = 600  // ADMM iteration cap
	bpCheckEvery = 25   // ADMM early-exit support check cadence
	bpRidge      = 1e-8 // Gram diagonal ridge (factorization robustness)
)

// BP recovers a sparse-at-zero vector by Basis Pursuit (paper §2.2):
//
//	minimize ‖x‖₁  subject to  y = Φ₀·x.
//
// Small instances solve the standard-form LP over the split x = u − v,
// u,v ≥ 0 (minimize Σ(u+v) s.t. [Φ₀, −Φ₀]·[u; v] = y) with the exact
// two-phase simplex; larger ones run ADMM projection splitting (the
// x-update projects onto {x : Φ₀x = y} through a Cholesky-factored
// M×M Gram, the z-update soft-thresholds), which scales where the
// dense tableau stalls. The paper prefers OMP over BP for the outlier
// problem (speed, and OMP's greediness surfaces the significant
// components first); BP is kept as the convex-relaxation baseline.
func BP(m sensing.Matrix, y linalg.Vector) (*Result, error) {
	return bp(m, y, false)
}

// BiasedBP runs Basis Pursuit over BOMP's extended dictionary [φ₀, Φ₀],
// recovering data concentrated around an unknown bias with the bias in
// one sparse slot — the convex-relaxation counterpart of BOMP. Unlike
// the sparsity-targeted solvers it needs no target s: the ℓ1 objective
// finds the sparsest consistent explanation on its own.
func BiasedBP(m sensing.Matrix, y linalg.Vector) (*Result, error) {
	return bp(m, y, true)
}

func bp(m sensing.Matrix, y linalg.Vector, biased bool) (*Result, error) {
	p := m.Params()
	if len(y) != p.M {
		return nil, fmt.Errorf("%w: len(y)=%d, M=%d", ErrDimension, len(y), p.M)
	}
	var d dictionary
	size := p.N
	if biased {
		d = &biasedDict{m: m, phi0: m.ExtensionColumn(nil)}
		size = p.N + 1
	} else {
		d = &plainDict{m: m}
	}
	yNorm := y.Norm2()
	if yNorm == 0 {
		return &Result{X: make(linalg.Vector, p.N)}, nil
	}
	// Solve against y/‖y‖: both paths' tolerances are absolute (the
	// simplex tableau's ratio test, the ADMM shrinkage threshold), so a
	// large-valued measurement (a mode in the thousands over hundreds of
	// keys) would swamp them. The columns are unit-norm already;
	// normalizing the RHS keeps everything O(1). The ℓ1 problem is
	// scale-equivariant, so the support is unchanged, and the
	// least-squares debias at the end runs against the original y,
	// restoring the scale.
	yUnit := make(linalg.Vector, p.M)
	for i, v := range y {
		yUnit[i] = v / yNorm
	}
	if size <= bpLPMaxDim {
		return bpLP(d, p, y, yUnit, yNorm, size, biased)
	}
	return bpADMM(d, p, y, yUnit, yNorm, size, biased)
}

// bpLP solves the exact LP formulation with the two-phase simplex.
func bpLP(d dictionary, p sensing.Params, y, yUnit linalg.Vector, yNorm float64, size int, biased bool) (*Result, error) {
	n2 := 2 * size
	a := make([]float64, p.M*n2)
	col := make(linalg.Vector, p.M)
	for j := 0; j < size; j++ {
		col = d.col(j, col)
		for i := 0; i < p.M; i++ {
			a[i*n2+j] = col[i]
			a[i*n2+size+j] = -col[i]
		}
	}
	c := make([]float64, n2)
	for j := range c {
		c[j] = 1
	}
	sol, _, err := lp.Solve(lp.Problem{M: p.M, N: n2, A: a, B: yUnit, C: c}, lp.Options{})
	if err != nil {
		return nil, fmt.Errorf("recovery: basis pursuit LP: %w", err)
	}
	// On the unit-scale solution the coefficient prune floor is relative
	// by construction: anything under coefPruneFrac is simplex-tolerance
	// residue, not a recovered component. (The old absolute 1e-8 cutoff
	// on the unscaled solution reported phantom support on large-valued
	// data.)
	const floor = coefPruneFrac
	var support []int
	for j := 0; j < size; j++ {
		if math.Abs(sol[j]-sol[size+j]) > floor {
			support = append(support, j)
		}
	}
	// Debias: the LP meets the equality constraint only to simplex
	// tolerance; a least-squares polish on its support makes exact-sparse
	// instances exact and fills in Mode/Selection for the biased variant.
	kept, coef, resNorm, err := debiasPruned(d, y, yNorm, support)
	if err != nil {
		return nil, err
	}
	res := extendedResult(p.N, kept, coef, biased)
	res.Iterations = len(res.Support)
	res.Residual = resNorm
	return res, nil
}

// bpADMM solves basis pursuit by ADMM projection splitting (Boyd et al.
// §6.2): x-update projects z−u onto the constraint set {x : Φx = y}
// through the once-factored Gram ΦΦᵀ, z-update soft-thresholds x+u at
// 1/ρ, u accumulates the gap. Every few iterations the (sparse by
// construction) z is tried as a support: if a least-squares fit on it
// already explains y, the solve exits early — on exact-sparse instances
// that happens long before full ADMM convergence.
func bpADMM(d dictionary, p sensing.Params, y, yUnit linalg.Vector, yNorm float64, size int, biased bool) (*Result, error) {
	amat := linalg.NewMatrix(p.M, size)
	colBuf := make(linalg.Vector, p.M)
	for j := 0; j < size; j++ {
		colBuf = d.col(j, colBuf)
		for i := 0; i < p.M; i++ {
			amat.Data[i*size+j] = colBuf[i]
		}
	}
	gram := linalg.NewMatrix(p.M, p.M)
	for i := 0; i < p.M; i++ {
		ri := amat.Row(i)
		for j := i; j < p.M; j++ {
			v := ri.Dot(amat.Row(j))
			if i == j {
				v += bpRidge
			}
			gram.Set(i, j, v)
			gram.Set(j, i, v)
		}
	}
	chol, err := linalg.NewCholesky(gram)
	if err != nil {
		return nil, fmt.Errorf("recovery: basis pursuit Gram factorization: %w", err)
	}

	// Acceptance for the early support exits: float noise through the QR
	// debias sits around 1e-8 of ‖y‖, so the default 1e-9 tolerance is
	// floored the same way the warm fast paths are.
	accept := warmFastTol(Options{}.residualTol()*yNorm, yNorm)
	supCap := p.M / 2
	if supCap < 1 {
		supCap = 1
	}

	x := make(linalg.Vector, size)
	z := make(linalg.Vector, size)
	u := make(linalg.Vector, size)
	v := make(linalg.Vector, size)
	t := make(linalg.Vector, p.M)
	w := make(linalg.Vector, p.M)
	const shrink = 1 / bpRho
	iters := 0
	for it := 0; it < bpMaxADMM; it++ {
		iters = it + 1
		// x-update: project z − u onto {x : Φx = yUnit}.
		for i := range v {
			v[i] = z[i] - u[i]
		}
		t = amat.MulVec(v, t)
		for i := range t {
			t[i] -= yUnit[i]
		}
		w, err = chol.SolveInto(w, t)
		if err != nil {
			return nil, err
		}
		x = amat.MulVecT(w, x)
		for i := range x {
			x[i] = v[i] - x[i]
		}
		// z-update: soft-threshold; u-update: accumulate the gap.
		gap, scale := 0.0, 1.0
		for i := range z {
			xi := x[i] + u[i]
			switch {
			case xi > shrink:
				z[i] = xi - shrink
			case xi < -shrink:
				z[i] = xi + shrink
			default:
				z[i] = 0
			}
			u[i] += x[i] - z[i]
			if g := math.Abs(x[i] - z[i]); g > gap {
				gap = g
			}
			if a := math.Abs(x[i]); a > scale {
				scale = a
			}
		}
		if gap <= dsADMMTol*scale {
			break
		}
		if (it+1)%bpCheckEvery == 0 {
			var sup []int
			for j, zj := range z {
				if zj != 0 {
					sup = append(sup, j)
				}
			}
			if len(sup) > 0 && len(sup) <= supCap {
				kept, coef, resNorm, err := debiasPruned(d, y, yNorm, sup)
				if err == nil && len(kept) > 0 && resNorm <= accept {
					res := extendedResult(p.N, kept, coef, biased)
					res.Iterations = iters
					res.Residual = resNorm
					return res, nil
				}
			}
		}
	}

	// Read the support off the ℓ1 solution, strongest entries first, and
	// polish by least squares with the Dantzig selector's correction
	// rounds — the combination recovers exactly even when the ADMM
	// ranking is slightly off at the cap.
	ranking := z
	if z.Norm2() == 0 {
		ranking = x
	}
	cands := topAbsIndices(ranking, min(size, supCap))
	sortByAbsDesc(cands, ranking)
	qr := linalg.NewIncrementalQR(p.M)
	qr.SetTarget(y)
	var support []int
	for _, j := range cands {
		if ranking[j] == 0 && len(support) > 0 {
			break
		}
		colBuf = d.col(j, colBuf)
		if _, err := qr.Append(colBuf); err != nil {
			continue
		}
		support = append(support, j)
		if qr.ResidualNorm() <= accept || len(support) == supCap {
			break
		}
	}
	resNorm := qr.ResidualNorm()
	if len(support) == 0 {
		resNorm = yNorm
	}
	residual := qr.Residual(make(linalg.Vector, p.M))
	corr := make(linalg.Vector, size)
	for round := 0; resNorm > accept && round < dsMaxRounds; round++ {
		prevNorm := resNorm
		corr = amat.MulVecT(residual, corr)
		merged := mergeSupports(sortedIdxCopy(support), topAbsIndices(corr, supCap))
		kept, coef, _, err := lsOnSupport(d, y, merged, p.M)
		if err != nil {
			return nil, err
		}
		pruneToStrongest(&kept, &coef, supCap)
		kept2, _, norm2, err := lsOnSupport(d, y, kept, p.M)
		if err != nil {
			return nil, err
		}
		support = kept2
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
		if resNorm <= accept || resNorm >= prevNorm {
			break
		}
	}

	kept, coef, finalNorm, err := debiasPruned(d, y, yNorm, sortedIdxCopy(support))
	if err != nil {
		return nil, err
	}
	res := extendedResult(p.N, kept, coef, biased)
	res.Iterations = iters
	res.Residual = finalNorm
	return res, nil
}
