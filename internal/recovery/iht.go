package recovery

import (
	"fmt"
	"math"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// IHT implements Iterative Hard Thresholding (Blumensath & Davies 2009)
// for sparse-at-zero recovery: gradient steps on ‖y − Φx‖² followed by
// hard thresholding to the s largest coefficients,
//
//	x_{t+1} = H_s( x_t + μ·Φᵀ(y − Φ·x_t) ).
//
// IHT completes the repository's recovery spectrum: OMP/BOMP (greedy,
// what the paper deploys), CoSaMP (support-correcting), BP (convex
// relaxation), IHT (first-order / cheapest per iteration — no
// least-squares solve at all, only matrix-vector products, which makes
// it the natural candidate for the GPU offload the paper leaves as
// future work). The step size μ uses the normalized-IHT rule: the
// Gaussian ensemble's columns are unit-norm in expectation, so μ = 1 is
// stable for M in the usual recovery regime; a backtracking halving
// guards the rest.
func IHT(m sensing.Matrix, y linalg.Vector, s int, opt Options) (*Result, error) {
	return iht(m, y, s, opt, false)
}

// BiasedIHT runs IHT over BOMP's extended dictionary [φ₀, Φ₀], so data
// concentrated around an unknown bias is recovered the same way BOMP
// does it, with the bias occupying one sparse slot.
func BiasedIHT(m sensing.Matrix, y linalg.Vector, s int, opt Options) (*Result, error) {
	return iht(m, y, s, opt, true)
}

func iht(m sensing.Matrix, y linalg.Vector, s int, opt Options, biased bool) (*Result, error) {
	p := m.Params()
	if len(y) != p.M {
		return nil, fmt.Errorf("%w: len(y)=%d, M=%d", ErrDimension, len(y), p.M)
	}
	if s < 1 {
		return nil, fmt.Errorf("recovery: IHT needs target sparsity >= 1, got %d", s)
	}
	var d sparseImager
	size := p.N
	if biased {
		d = &biasedDict{m: m, phi0: m.ExtensionColumn(nil)}
		s++ // bias slot
		size = p.N + 1
	} else {
		d = &plainDict{m: m}
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = 200
	}
	yNorm := y.Norm2()
	if yNorm == 0 {
		return &Result{X: make(linalg.Vector, p.N)}, nil
	}
	tol := opt.residualTol() * yNorm

	x := make(linalg.Vector, size) // current sparse iterate (dense buffer)
	residual := y.Clone()          // y − Φx
	grad := make(linalg.Vector, size)
	prox := make(linalg.Vector, size)
	candRes := make(linalg.Vector, p.M)
	var sc thresholdScratch
	prevNorm := math.Inf(1)
	iters := 0
	stalled := false
	var trace []float64
	for t := 0; t < maxIter; t++ {
		iters = t + 1
		grad = d.correlate(residual, grad)
		mu := 1.0
		norm := prevNorm
		// Backtracking: halve μ until the step does not increase ‖r‖.
		// If no μ in the range does, reject the step entirely and keep
		// the previous iterate — accepting a residual-increasing iterate
		// here used to let the loop ping-pong between two bad supports
		// for the whole budget under DisableEarlyStop.
		accepted := false
		for attempt := 0; attempt < 8; attempt++ {
			for i := range prox {
				prox[i] = x[i] + mu*grad[i]
			}
			sc.hardThreshold(prox, s)
			candRes = sc.applyResidual(d, y, prox, candRes)
			if cn := candRes.Norm2(); cn <= prevNorm {
				copy(x, prox)
				residual, candRes = candRes, residual
				norm = cn
				accepted = true
				break
			}
			mu /= 2
		}
		if opt.TraceResidual {
			if accepted {
				trace = append(trace, norm)
			} else {
				trace = append(trace, prevNorm)
			}
		}
		if !accepted {
			stalled = true
			break
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

	// Debias: least squares on the final support (standard IHT polish)
	// with coefficient pruning, so exact-sparse instances recover exactly
	// and spare sparsity slots don't surface as phantom outliers.
	kept, coef, resNorm, err := debiasPruned(d, y, yNorm, nonzeroIndices(nil, x))
	if err != nil {
		return nil, err
	}
	res := extendedResult(p.N, kept, coef, biased)
	res.Iterations = iters
	res.StoppedEarly = stalled
	res.ResidualTrace = trace
	res.Residual = resNorm
	return res, nil
}

// hardThreshold zeroes all but the s largest-magnitude entries in place.
func (sc *thresholdScratch) hardThreshold(v linalg.Vector, s int) {
	if s >= len(v) {
		return
	}
	// Same keep-set as topAbsIndices(v, s) — strictly-above the s-th
	// largest magnitude plus lowest-index ties — zeroed in place without
	// the index sort or a map (this runs on every IHT/AIHT step
	// proposal, including each backtracking halving).
	th := sc.kthLargestAbs(v, s)
	above := 0
	for _, x := range v {
		if math.Abs(x) > th {
			above++
		}
	}
	rem := s - above
	for i, x := range v {
		a := math.Abs(x)
		if a > th {
			continue
		}
		if a == th && rem > 0 {
			rem--
			continue
		}
		v[i] = 0
	}
}

// kthLargestAbs returns the k-th largest |v| entry (1 ≤ k ≤ len(v)).
func (sc *thresholdScratch) kthLargestAbs(v linalg.Vector, k int) float64 {
	sc.work = ensureVec(sc.work, len(v))
	for i, x := range v {
		sc.work[i] = math.Abs(x)
	}
	return kthLargest(sc.work, k)
}

// applyResidual computes y − Φ·x into dst for a sparse iterate x, by one
// fused sparse measurement.
func (sc *thresholdScratch) applyResidual(d sparseImager, y, x, dst linalg.Vector) linalg.Vector {
	sc.img = sc.sparseImage(d, x, nil, sc.img)
	dst = ensureVec(dst, len(y))
	copy(dst, y)
	dst.AddScaled(-1, sc.img)
	return dst
}

// nonzeroIndices collects into dst, ascending, where v is nonzero.
func nonzeroIndices(dst []int, v linalg.Vector) []int {
	dst = dst[:0]
	for i, x := range v {
		if x != 0 {
			dst = append(dst, i)
		}
	}
	return dst
}
