package sensing

import (
	"testing"

	"csoutlier/internal/linalg"
)

func TestSpecDepthDefault(t *testing.T) {
	cs := Spec{Params: Params{M: 320, N: 400}, Kind: KindCountSketch}
	if d := cs.depth(); d != DefaultCountSketchDepth {
		t.Fatalf("depth default = %d, want %d", d, DefaultCountSketchDepth)
	}
	cs.D = 7
	if d := cs.depth(); d != 7 {
		t.Fatalf("explicit depth = %d", d)
	}
	if k, err := ParseKind("countsketch"); err != nil || k != KindCountSketch {
		t.Fatalf("ParseKind(countsketch) = %v, %v", k, err)
	}
	if KindCountSketch.String() != "countsketch" {
		t.Fatalf("String = %q", KindCountSketch.String())
	}
	if err := (Spec{Params: Params{M: 10, N: 40}, Kind: KindCountSketch + 1}).Validate(); err == nil {
		t.Fatal("Validate accepted an unknown kind")
	}
}

func TestSpecNewAgreesWithDirectConstructors(t *testing.T) {
	p := Params{M: 10, N: 40, Seed: 21}
	for _, spec := range []Spec{
		GaussianSpec(p),
		{Params: p, Kind: KindCountSketch, D: 4},
	} {
		m, err := New(spec, 0)
		if err != nil {
			t.Fatalf("%v: %v", spec.Kind, err)
		}
		var direct Matrix
		switch spec.Kind {
		case KindGaussian:
			direct, err = NewDense(p)
		case KindCountSketch:
			direct, err = NewCountSketch(p, 4)
		}
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < p.N; j++ {
			if !m.Col(j, nil).Equal(direct.Col(j, nil), 0) {
				t.Fatalf("%v: New disagrees with direct constructor at column %d", spec.Kind, j)
			}
		}
	}
}

func TestSpecNewGaussianDenseLimit(t *testing.T) {
	p := Params{M: 10, N: 40, Seed: 1}
	m, err := New(GaussianSpec(p), 1) // force column-regenerating
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*Seeded); !ok {
		t.Fatalf("tiny dense limit did not force Seeded, got %T", m)
	}
	if kindName := KindGaussian.String(); kindName != "gaussian" {
		t.Fatalf("String = %q", kindName)
	}
}

func TestCompressionRatioAndParamsAccessors(t *testing.T) {
	p := Params{M: 25, N: 100, Seed: 1}
	if r := p.CompressionRatio(); r != 0.25 {
		t.Fatalf("CompressionRatio = %v", r)
	}
	d, _ := NewDense(p)
	sd, _ := NewSeeded(p)
	cs, _ := NewCountSketch(p, 4)
	for _, m := range []Matrix{d, sd, cs} {
		if m.Params() != p {
			t.Fatalf("%T.Params() = %+v", m, m.Params())
		}
	}
}

func TestMeasurePanicsOnBadLength(t *testing.T) {
	p := Params{M: 4, N: 10, Seed: 1}
	d, _ := NewDense(p)
	sd, _ := NewSeeded(p)
	for _, m := range []Matrix{d, sd} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T.Measure accepted wrong length", m)
				}
			}()
			m.Measure(make(linalg.Vector, 9), nil)
		}()
	}
	// Sparse index bounds.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Dense.MeasureSparse accepted out-of-range index")
			}
		}()
		// Use the low-density path (few indices) to hit the bound check.
		d.MeasureSparse([]int{10}, []float64{0}, nil)
		d.MeasureSparse([]int{10}, []float64{1}, nil)
	}()
}

func TestSketchArithmeticPanicsOnMismatch(t *testing.T) {
	a := make(linalg.Vector, 3)
	b := make(linalg.Vector, 4)
	for _, f := range []func(){
		func() { AddSketch(a, b) },
		func() { SubSketch(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("sketch length mismatch accepted")
				}
			}()
			f()
		}()
	}
}

// TestRetiredKindRefused: wire numbers 1 and 2 and the names "sparse"
// and "srht" belonged to ensembles this build no longer carries. Every
// door answers with the one error, and none substitutes another
// ensemble.
func TestRetiredKindRefused(t *testing.T) {
	p := Params{M: 10, N: 40, Seed: 1}
	for kind, name := range map[Kind]string{1: "sparse", 2: "srht"} {
		want := `sensing: ensemble "` + name + `" was retired (use gaussian or countsketch)`
		if k, err := ParseKind(name); err == nil || err.Error() != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %q", name, k, err, want)
		}
		spec := Spec{Params: p, Kind: kind, D: 4}
		if err := spec.Validate(); err == nil || err.Error() != want {
			t.Errorf("Validate(kind %d) = %v, want %q", kind, err, want)
		}
		if m, err := New(spec, 0); err == nil || err.Error() != want || m != nil {
			t.Errorf("New(kind %d) = %T, %v; want %q", kind, m, err, want)
		}
		if kind.String() != name {
			t.Errorf("Kind(%d).String() = %q, want %q", kind, kind.String(), name)
		}
	}
	// The kept kinds keep their wire numbers.
	if KindGaussian != 0 || KindCountSketch != 3 {
		t.Fatalf("wire numbers moved: gaussian=%d countsketch=%d", KindGaussian, KindCountSketch)
	}
}
