package recovery

import (
	"fmt"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// NaiveOMP is the ablation reference for the paper's §5 QR optimization:
// a textbook OMP that re-solves the least-squares problem from scratch
// via the normal equations (ΦₛᵀΦₛ)z = Φₛᵀy at every iteration, instead
// of growing an incremental factorization. Identical output
// (up to floating point), asymptotically worse per-iteration cost —
// BenchmarkAblationNaiveOMP quantifies the gap. Not for production use.
func NaiveOMP(m sensing.Matrix, y linalg.Vector, opt Options) (*Result, error) {
	p := m.Params()
	if len(y) != p.M {
		return nil, fmt.Errorf("%w: len(y)=%d, M=%d", ErrDimension, len(y), p.M)
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 || maxIter > p.M {
		maxIter = p.M
	}
	yNorm := y.Norm2()
	if yNorm == 0 {
		return &Result{X: make(linalg.Vector, p.N)}, nil
	}
	tol := opt.residualTol() * yNorm

	var (
		selected []int
		cols     []linalg.Vector
		inBasis  = make(map[int]bool)
		residual = y.Clone()
		corr     linalg.Vector
		z        linalg.Vector
		prevNorm = yNorm
	)
	for len(selected) < maxIter {
		corr = m.Correlate(residual, corr)
		for j := range inBasis {
			corr[j] = 0
		}
		best, bestAbs := corr.ArgMaxAbs()
		if best < 0 || bestAbs <= 1e-14*yNorm {
			break
		}
		cols = append(cols, m.Col(best, nil))
		selected = append(selected, best)
		inBasis[best] = true

		// Normal equations, rebuilt from scratch: the O(k²M + k³) work
		// the incremental path avoids.
		k := len(cols)
		g := linalg.NewMatrix(k, k)
		rhs := make(linalg.Vector, k)
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				v := cols[i].Dot(cols[j])
				g.Set(i, j, v)
				g.Set(j, i, v)
			}
			rhs[i] = cols[i].Dot(y)
		}
		var err error
		z, err = linalg.SolveDense(g, rhs)
		if err != nil {
			// Numerically dependent column: drop it and keep going.
			cols = cols[:k-1]
			selected = selected[:k-1]
			continue
		}
		copy(residual, y)
		for i, c := range cols {
			residual.AddScaled(-z[i], c)
		}
		norm := residual.Norm2()
		if norm <= tol {
			break
		}
		if !opt.disableEarlyStop && norm >= prevNorm*(1-stallRelTol) {
			break
		}
		prevNorm = norm
	}
	res := &Result{Support: selected, Coef: z, Iterations: len(selected)}
	res.X = assembleInto(nil, p.N, 0, selected, z)
	return res, nil
}
