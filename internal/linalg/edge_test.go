package linalg

import (
	"math"
	"testing"
)

func TestFillSumClone(t *testing.T) {
	v := NewVector(4).Fill(2.5)
	if v.Sum() != 10 {
		t.Fatalf("Sum = %v", v.Sum())
	}
	c := v.Clone()
	c[0] = -1
	if v[0] != 2.5 {
		t.Fatal("Clone aliases original")
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestAddScaledLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Vector{1}.AddScaled(1, Vector{1, 2})
}

func TestMulVecDimensionPanics(t *testing.T) {
	m := NewMatrix(2, 3)
	for _, f := range []func(){
		func() { m.MulVec(Vector{1, 2}, nil) },
		func() { m.MulVecT(Vector{1, 2, 3}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on dimension mismatch")
				}
			}()
			f()
		}()
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 5)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 5 {
		t.Fatal("Clone aliases storage")
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestVectorEqualLengthMismatch(t *testing.T) {
	if (Vector{1}).Equal(Vector{1, 2}, 1) {
		t.Fatal("length mismatch reported equal")
	}
}

func TestSolveDenseRejectsNonSquare(t *testing.T) {
	if _, err := SolveDense(NewMatrix(2, 3), Vector{1, 2}); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := SolveDense(NewMatrix(2, 2), Vector{1}); err == nil {
		t.Fatal("mis-sized rhs accepted")
	}
}

func TestIncrementalQRErrors(t *testing.T) {
	f := NewIncrementalQR(3)
	if _, err := f.Append(Vector{1, 2}); err == nil {
		t.Fatal("wrong-length column accepted")
	}
	if _, err := f.Solve(); err == nil {
		t.Fatal("Solve before SetTarget accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Residual before SetTarget did not panic")
			}
		}()
		f.Residual(nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ResidualNorm before SetTarget did not panic")
			}
		}()
		f.ResidualNorm()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("wrong-length SetTarget did not panic")
			}
		}()
		f.SetTarget(Vector{1})
	}()
}

func TestIncrementalQREmptySolve(t *testing.T) {
	f := NewIncrementalQR(3)
	f.SetTarget(Vector{1, 2, 3})
	z, err := f.Solve()
	if err != nil || len(z) != 0 {
		t.Fatalf("empty Solve = %v, %v", z, err)
	}
	if rn := f.ResidualNorm(); math.Abs(rn-math.Sqrt(14)) > 1e-12 {
		t.Fatalf("empty-basis residual = %v", rn)
	}
}
