package linalg

import (
	"fmt"
	"math"
)

// IncrementalQR maintains a thin QR factorization A = Q·R of a tall
// matrix whose columns arrive one at a time — exactly the access pattern
// of orthogonal matching pursuit, which appends the newly selected
// dictionary column each iteration and then needs the least-squares
// coefficients against all selected columns.
//
// Q is m×k with orthonormal columns, R is k×k upper-triangular. Columns
// are orthogonalized by modified Gram–Schmidt with one re-orthogonalization
// pass ("twice is enough", Giraud et al.), which keeps ‖QᵀQ−I‖ at the
// round-off level even after many hundreds of appended columns — the
// floating-point drift the paper calls out in §5 as a practical obstacle.
//
// The factorization is reusable: Reset rewinds it to zero columns while
// keeping all backing storage, so a recovery Workspace that replays
// queries of similar size performs no allocations after warm-up.
type IncrementalQR struct {
	m int // row count
	k int // active column count; q[:k], r[:k] are live
	// q and r retain capacity beyond k across Reset: slot i is reused by
	// the (i+1)-th Append of the next run when its buffer is big enough.
	q   []Vector // orthonormal columns, each of length m
	r   []Vector // r[j] holds column j of R: entries 0..j
	qty Vector   // Qᵀy cache for the current target, see SetTarget
	y   Vector   // current target
}

// NewIncrementalQR returns an empty factorization for m-row columns.
func NewIncrementalQR(m int) *IncrementalQR {
	return &IncrementalQR{m: m}
}

// Reset rewinds the factorization to zero columns for m-row columns,
// retaining all previously allocated storage for reuse.
func (f *IncrementalQR) Reset(m int) {
	f.m = m
	f.k = 0
	f.y = nil
	f.qty = f.qty[:0]
}

// slot returns the k-th column buffer resized to n, reusing retained
// storage when possible. vecs is f.q or f.r; k ≤ len(vecs).
func slot(vecs []Vector, k, n int) ([]Vector, Vector) {
	if k < len(vecs) && cap(vecs[k]) >= n {
		return vecs, vecs[k][:n]
	}
	v := make(Vector, n)
	if k < len(vecs) {
		vecs[k] = v
	} else {
		vecs = append(vecs, v)
	}
	return vecs, v
}

// Append orthogonalizes column a against the current basis and appends
// it. It returns the norm of the orthogonal remainder (the new diagonal
// entry of R); a value near zero means a is numerically inside the span
// of the existing columns, in which case the column is NOT appended and
// ErrRankDeficient is returned.
func (f *IncrementalQR) Append(a Vector) (float64, error) {
	if len(a) != f.m {
		return 0, fmt.Errorf("linalg: Append column length %d, want %d", len(a), f.m)
	}
	k := f.k
	var v Vector
	f.q, v = slot(f.q, k, f.m)
	copy(v, a)
	var rcol Vector
	f.r, rcol = slot(f.r, k, k+1)
	clear(rcol)
	origNorm := v.Norm2()

	// Modified Gram–Schmidt, then one re-orthogonalization sweep to
	// recover the orthogonality MGS loses in ill-conditioned bases.
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < k; j++ {
			c := f.q[j].Dot(v)
			rcol[j] += c
			v.AddScaled(-c, f.q[j])
		}
	}
	norm := v.Norm2()
	rcol[k] = norm
	if norm <= 1e-12*math.Max(origNorm, 1) {
		return norm, ErrRankDeficient
	}
	v.Scale(1 / norm)
	f.q[k] = v
	f.r[k] = rcol
	f.k = k + 1
	if f.y != nil {
		f.qty = append(f.qty, v.Dot(f.y))
	}
	return norm, nil
}

// ErrRankDeficient is returned by Append when the candidate column lies
// (numerically) in the span of the already-appended columns.
var ErrRankDeficient = fmt.Errorf("linalg: column is in span of existing basis (rank deficient)")

// SetTarget fixes the right-hand side y for subsequent Residual and
// SolveInto calls and primes the Qᵀy cache. The caller must not mutate y
// afterwards.
func (f *IncrementalQR) SetTarget(y Vector) {
	if len(y) != f.m {
		panic(fmt.Sprintf("linalg: target length %d, want %d", len(y), f.m))
	}
	f.y = y
	f.qty = f.qty[:0]
	for _, q := range f.q[:f.k] {
		f.qty = append(f.qty, q.Dot(y))
	}
}

// Residual writes y − proj(y, span Q) into dst and returns it. This is
// the r-update in OMP's iteration (Algorithm 2 in the paper): because Q
// is orthonormal, proj(y, ΦS) = Q·(Qᵀy), no normal equations needed.
func (f *IncrementalQR) Residual(dst Vector) Vector {
	if f.y == nil {
		panic("linalg: Residual before SetTarget")
	}
	if cap(dst) < f.m {
		dst = make(Vector, f.m)
	}
	dst = dst[:f.m]
	copy(dst, f.y)
	for j, q := range f.q[:f.k] {
		dst.AddScaled(-f.qty[j], q)
	}
	return dst
}

// ResidualNorm returns ‖y − proj(y, span Q)‖₂ without materializing the
// residual: ‖r‖² = ‖y‖² − ‖Qᵀy‖² (Pythagoras for orthonormal Q). The max
// with 0 guards against cancellation.
func (f *IncrementalQR) ResidualNorm() float64 {
	if f.y == nil {
		panic("linalg: ResidualNorm before SetTarget")
	}
	yy := f.y.Dot(f.y)
	qq := 0.0
	for _, c := range f.qty {
		qq += c * c
	}
	d := yy - qq
	if d < 0 {
		d = 0
	}
	return math.Sqrt(d)
}

// SolveInto returns the least-squares coefficients z minimizing
// ‖A·z − y‖₂ over the appended columns, by back-substituting R·z = Qᵀy.
// It writes into dst (allocated when nil or too small), for callers that
// reuse the coefficient buffer across queries.
func (f *IncrementalQR) SolveInto(dst Vector) (Vector, error) {
	if f.y == nil {
		return nil, fmt.Errorf("linalg: Solve before SetTarget")
	}
	k := f.k
	if cap(dst) < k {
		dst = make(Vector, k)
	}
	z := dst[:k]
	copy(z, f.qty)
	// R is stored by columns: f.r[j][i] = R[i][j] for i <= j.
	for i := k - 1; i >= 0; i-- {
		s := z[i]
		for j := i + 1; j < k; j++ {
			s -= f.r[j][i] * z[j]
		}
		diag := f.r[i][i]
		if diag == 0 {
			return nil, fmt.Errorf("linalg: zero diagonal in R at %d", i)
		}
		z[i] = s / diag
	}
	return z, nil
}
