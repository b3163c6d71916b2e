package linalg

import (
	"math"
	"testing"
)

func TestFillClone(t *testing.T) {
	v := make(Vector, 4).Fill(2.5)
	if !v.Equal(Vector{2.5, 2.5, 2.5, 2.5}, 0) {
		t.Fatalf("Fill = %v", v)
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

func TestIncrementalQRErrors(t *testing.T) {
	f := NewIncrementalQR(3)
	if _, err := f.Append(Vector{1, 2}); err == nil {
		t.Fatal("wrong-length column accepted")
	}
	if _, err := f.SolveInto(nil); err == nil {
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
	z, err := f.SolveInto(nil)
	if err != nil || len(z) != 0 {
		t.Fatalf("empty Solve = %v, %v", z, err)
	}
	if rn := f.ResidualNorm(); math.Abs(rn-math.Sqrt(14)) > 1e-12 {
		t.Fatalf("empty-basis residual = %v", rn)
	}
}
