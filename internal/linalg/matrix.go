package linalg

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols, element (i,j) at Data[i*Cols+j]
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes dst = m·x. It panics on dimension mismatch.
// dst is allocated when nil; it must not alias x.
//
// Each row product runs through the 4-accumulator unrolled Dot kernel;
// like all the unrolled kernels here, the sum is reassociated relative
// to a naive left-fold, so results agree with it only to ~1 ulp per
// term (and exactly between repeated calls — the kernel itself is
// deterministic).
func (m *Matrix) MulVec(x, dst Vector) Vector {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dims %dx%d with vector %d", m.Rows, m.Cols, len(x)))
	}
	if cap(dst) < m.Rows {
		dst = make(Vector, m.Rows)
	}
	dst = dst[:m.Rows]
	for i := 0; i < m.Rows; i++ {
		dst[i] = Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).Dot(x)
	}
	return dst
}

// MulVecT computes dst = mᵀ·x (correlations of every column with x).
// It panics on dimension mismatch. dst is allocated when nil.
//
// Rows are blocked four at a time so each output element accumulates
// four products per pass (ILP across the FP add chain); a block whose
// four x entries are all zero is skipped, and the remainder rows run
// unblocked.
func (m *Matrix) MulVecT(x, dst Vector) Vector {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVecT dims %dx%d with vector %d", m.Rows, m.Cols, len(x)))
	}
	if cap(dst) < m.Cols {
		dst = make(Vector, m.Cols)
	}
	dst = dst[:m.Cols]
	clear(dst)
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		if x0 == 0 && x1 == 0 && x2 == 0 && x3 == 0 {
			continue
		}
		r0 := m.Row(i)
		r1 := m.Row(i + 1)[:len(r0)]
		r2 := m.Row(i + 2)[:len(r0)]
		r3 := m.Row(i + 3)[:len(r0)]
		out := dst[:len(r0)]
		for j := range r0 {
			out[j] += (x0*r0[j] + x1*r1[j]) + (x2*r2[j] + x3*r3[j])
		}
	}
	for ; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range m.Row(i) {
			dst[j] += v * xi
		}
	}
	return dst
}

// SolveDense solves the square system A·x = b by Gaussian elimination
// with partial pivoting, overwriting neither input. It returns an error
// when A is (numerically) singular.
func SolveDense(a *Matrix, b Vector) (Vector, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: SolveDense needs square system, got %dx%d and b of %d", a.Rows, a.Cols, len(b))
	}
	m := a.Clone()
	x := b.Clone()
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot, pivotAbs := col, abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := abs(m.At(r, col)); a > pivotAbs {
				pivot, pivotAbs = r, a
			}
		}
		if pivotAbs < 1e-300 {
			return nil, fmt.Errorf("linalg: singular matrix at column %d", col)
		}
		if pivot != col {
			swapRows(m, pivot, col)
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			m.Set(r, col, 0)
			for c := col + 1; c < n; c++ {
				m.Set(r, c, m.At(r, c)-f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= m.At(r, c) * x[c]
		}
		x[r] = s / m.At(r, r)
	}
	return x, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
