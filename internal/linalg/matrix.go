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

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

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
