package recovery

import (
	"fmt"
	"math"
	"sort"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// CoSaMP implements Compressive Sampling Matching Pursuit (Needell &
// Tropp 2009) for sparse-at-zero data: per iteration it merges the 2s
// strongest residual correlations into the current support, solves the
// least-squares problem over the merged support, prunes back to the s
// strongest coefficients, and repeats until the residual stalls.
//
// It is provided as the second recovery family next to OMP: CoSaMP
// offers uniform guarantees and can correct early support mistakes that
// greedy OMP commits to, at the price of a target sparsity s that must
// be supplied up front. The paper's pipeline uses OMP (no sparsity
// estimate needed, natural any-time behaviour for k-outlier queries);
// CoSaMP backs the cross-validation tests and the recovery ablations.
func CoSaMP(m sensing.Matrix, y linalg.Vector, s int, opt Options) (*Result, error) {
	return cosamp(m, y, s, opt, false)
}

// BiasedCoSaMP is CoSaMP over BOMP's extended dictionary [φ₀, Φ₀]: it
// recovers data concentrated around an unknown bias, like BOMP, but
// with CoSaMP's support-correction iteration. The bias occupies one of
// the s+1 sparse slots.
func BiasedCoSaMP(m sensing.Matrix, y linalg.Vector, s int, opt Options) (*Result, error) {
	return cosamp(m, y, s, opt, true)
}

func cosamp(m sensing.Matrix, y linalg.Vector, s int, opt Options, biased bool) (*Result, error) {
	p := m.Params()
	if len(y) != p.M {
		return nil, fmt.Errorf("%w: len(y)=%d, M=%d", ErrDimension, len(y), p.M)
	}
	if s < 1 {
		return nil, fmt.Errorf("recovery: CoSaMP needs target sparsity >= 1, got %d", s)
	}
	var d dictionary
	if biased {
		d = &biasedDict{m: m, phi0: m.ExtensionColumn(nil)}
		s++ // one slot for the bias column
	} else {
		d = &plainDict{m: m}
	}
	if s > p.M/3 {
		// LS over the 3s merged columns must stay overdetermined.
		s = p.M / 3
		if s < 1 {
			s = 1
		}
	}

	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = 50
	}
	yNorm := y.Norm2()
	if yNorm == 0 {
		res := &Result{X: make(linalg.Vector, p.N)}
		return res, nil
	}
	tol := opt.residualTol() * yNorm

	var (
		support  []int // current s-sparse support (sorted)
		coef     []float64
		residual = y.Clone()
		corr     linalg.Vector
		colBuf   linalg.Vector
		prevNorm = math.Inf(1)
	)
	for iter := 0; iter < maxIter; iter++ {
		// Identify: 2s strongest proxy entries.
		corr = d.correlate(residual, corr)
		merged := mergeSupports(support, topAbsIndices(corr, 2*s))

		// Solve LS over the merged support.
		qr := linalg.NewIncrementalQR(p.M)
		qr.SetTarget(y)
		var kept []int
		for _, j := range merged {
			colBuf = d.col(j, colBuf)
			if _, err := qr.Append(colBuf); err != nil {
				continue // numerically dependent column: skip
			}
			kept = append(kept, j)
		}
		z, err := qr.Solve()
		if err != nil {
			return nil, err
		}

		// Prune to the s largest coefficients.
		type jc struct {
			j int
			c float64
		}
		items := make([]jc, len(kept))
		for i, j := range kept {
			items[i] = jc{j, z[i]}
		}
		sort.Slice(items, func(a, b int) bool {
			da, db := math.Abs(items[a].c), math.Abs(items[b].c)
			if da != db {
				return da > db
			}
			return items[a].j < items[b].j
		})
		if len(items) > s {
			items = items[:s]
		}
		sort.Slice(items, func(a, b int) bool { return items[a].j < items[b].j })
		support = support[:0]
		coef = coef[:0]
		for _, it := range items {
			support = append(support, it.j)
			coef = append(coef, it.c)
		}

		// Re-solve on the pruned support for the exact residual.
		qr2 := linalg.NewIncrementalQR(p.M)
		qr2.SetTarget(y)
		for i, j := range support {
			colBuf = d.col(j, colBuf)
			if _, err := qr2.Append(colBuf); err != nil {
				return nil, fmt.Errorf("recovery: CoSaMP pruned support became dependent at %d: %w", i, err)
			}
		}
		z2, err := qr2.Solve()
		if err != nil {
			return nil, err
		}
		copy(coef, z2)
		residual = qr2.Residual(residual)
		norm := qr2.ResidualNorm()
		if norm <= tol {
			break
		}
		if !opt.DisableEarlyStop && norm >= prevNorm*(1-opt.stallRelTol()) {
			break
		}
		prevNorm = norm
	}

	// Final debias with coefficient pruning: when the target sparsity
	// exceeds the true one, CoSaMP fills the spare slots with junk
	// columns whose least-squares coefficients sit at float-noise level —
	// without the prune they would surface as phantom outliers.
	kept, coefOut, resNorm, err := debiasPruned(d, y, yNorm, support)
	if err != nil {
		return nil, err
	}
	res := extendedResult(p.N, kept, coefOut, biased)
	res.Iterations = len(support)
	res.Residual = resNorm
	return res, nil
}

// topAbsIndices returns the indices of the k largest |v| entries,
// ascending.
func topAbsIndices(v linalg.Vector, k int) []int {
	var sc thresholdScratch
	return sc.topAbsIndices(nil, v, k)
}

// topAbsIndices is the package-level topAbsIndices collecting into dst.
func (sc *thresholdScratch) topAbsIndices(dst []int, v linalg.Vector, k int) []int {
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	if k >= len(v) {
		for i := range v {
			dst = append(dst, i)
		}
		return dst
	}
	// O(N) threshold by quickselect, then two gather passes: everything
	// strictly above the k-th largest magnitude, and ties in ascending
	// index order until k entries are kept — the same set a full
	// magnitude-descending sort with index tie-breaks selects, without
	// the O(N log N) comparator-closure sort (the IHT family calls this
	// on every step proposal, where the sort dominated the profile).
	th := sc.kthLargestAbs(v, k)
	for i, x := range v {
		if math.Abs(x) > th {
			dst = append(dst, i)
		}
	}
	need := k - len(dst)
	for i, x := range v {
		if need == 0 {
			break
		}
		if math.Abs(x) == th {
			dst = append(dst, i)
			need--
		}
	}
	sort.Ints(dst)
	return dst
}

// kthLargest returns the k-th largest value of a (1 ≤ k ≤ len(a)),
// partially reordering a in place. Hoare quickselect in descending
// order with a middle-element pivot; the returned value is deterministic
// (it is a rank statistic), whatever the pivot path.
func kthLargest(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] > p {
				i++
			}
			for a[j] < p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch t := k - 1; {
		case t <= j:
			hi = j
		case t >= i:
			lo = i
		default:
			return p // between the partitions: equal to the pivot
		}
	}
	return a[lo]
}

// mergeSupports returns the sorted union of two sorted index sets.
func mergeSupports(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
