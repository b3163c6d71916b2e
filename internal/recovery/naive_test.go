package recovery

import (
	"fmt"
	"math"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// NaiveOMP is the ablation reference for the paper's §5 QR optimization:
// a textbook OMP that re-solves the least-squares problem from scratch
// via the normal equations (ΦₛᵀΦₛ)z = Φₛᵀy at every iteration, instead
// of growing an incremental factorization. Identical output
// (up to floating point), asymptotically worse per-iteration cost —
// BenchmarkAblationNaiveOMP quantifies the gap.
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
		best, bestAbs := -1, 0.0
		for j, c := range corr {
			if a := math.Abs(c); a > bestAbs && !inBasis[j] {
				best, bestAbs = j, a
			}
		}
		if best < 0 || bestAbs <= 1e-14*yNorm {
			break
		}
		cols = append(cols, m.Col(best, nil))
		selected = append(selected, best)
		inBasis[best] = true

		// Normal equations, rebuilt from scratch: the O(k²M + k³) work
		// the incremental path avoids.
		k := len(cols)
		g := make([]float64, k*k)
		rhs := make(linalg.Vector, k)
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				v := cols[i].Dot(cols[j])
				g[i*k+j], g[j*k+i] = v, v
			}
			rhs[i] = cols[i].Dot(y)
		}
		var ok bool
		if z, ok = solveNormal(g, rhs); !ok {
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

// solveNormal solves G·z = b for the k×k Gram matrix G (row-major) by
// Cholesky, G = LLᵀ, then a forward and a back substitution. It reports
// false on a pivot that is not positive: the columns are numerically
// dependent.
func solveNormal(g []float64, b linalg.Vector) (linalg.Vector, bool) {
	k := len(b)
	l := make([]float64, k*k)
	for j := 0; j < k; j++ {
		for i := j; i < k; i++ {
			s := g[i*k+j]
			for p := 0; p < j; p++ {
				s -= l[i*k+p] * l[j*k+p]
			}
			switch {
			case i > j:
				l[i*k+j] = s / l[j*k+j]
			case s > 0:
				l[j*k+j] = math.Sqrt(s)
			default:
				return nil, false
			}
		}
	}
	z := b.Clone()
	for i := 0; i < k; i++ {
		for p := 0; p < i; p++ {
			z[i] -= l[i*k+p] * z[p]
		}
		z[i] /= l[i*k+i]
	}
	for i := k - 1; i >= 0; i-- {
		for p := i + 1; p < k; p++ {
			z[i] -= l[p*k+i] * z[p]
		}
		z[i] /= l[i*k+i]
	}
	return z, true
}

func TestNaiveOMPMatchesOMP(t *testing.T) {
	r := xrand.New(1)
	const n, m, s = 200, 80, 6
	d := dense(t, m, n, 31)
	x, want := biasedSparse(r, n, s, 0, 1, 10)
	y := d.Measure(x, nil)
	fast, err := NewWorkspace().OMP(d, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaiveOMP(d, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !supportEqual(naive.Support, sortedCopy(fast.Support)) {
		t.Fatalf("supports differ: naive %v, qr %v", naive.Support, fast.Support)
	}
	if !naive.X.Equal(fast.X, 1e-6) {
		t.Fatal("recovered vectors differ")
	}
	if !supportEqual(naive.Support, want) {
		t.Fatalf("naive missed the truth: %v vs %v", naive.Support, want)
	}
}

func TestNaiveOMPZeroMeasurement(t *testing.T) {
	d := dense(t, 20, 50, 32)
	res, err := NaiveOMP(d, make(linalg.Vector, 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support) != 0 {
		t.Fatalf("support = %v", res.Support)
	}
	if _, err := NaiveOMP(d, make(linalg.Vector, 19), Options{}); err == nil {
		t.Fatal("bad dimension accepted")
	}
}

func ablationInstance(b *testing.B, n, m, s int) (*sensing.Dense, linalg.Vector) {
	b.Helper()
	d, err := sensing.NewDense(sensing.Params{M: m, N: n, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	x, _ := workload.MajorityDominated(n, s, 0, 1, 10, 6)
	return d, d.Measure(x, nil)
}

// BenchmarkAblationQROMP vs BenchmarkAblationNaiveOMP: the paper's §5 QR
// optimization against re-solving the normal equations per iteration.
// Each op solves on a fresh workspace, so the engine pays every Gram
// column it selects.
func BenchmarkAblationQROMP(b *testing.B) {
	d, y := ablationInstance(b, 1000, 300, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewWorkspace().OMP(d, y, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNaiveOMP(b *testing.B) {
	d, y := ablationInstance(b, 1000, 300, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NaiveOMP(d, y, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
