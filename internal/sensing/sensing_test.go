package sensing

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"csoutlier/internal/linalg"
	"csoutlier/internal/xrand"
)

func params() Params { return Params{M: 40, N: 120, Seed: 99} }

func both(t *testing.T, p Params) (*Dense, *Seeded) {
	t.Helper()
	d, err := NewDense(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSeeded(p)
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

func TestValidate(t *testing.T) {
	if err := (Params{M: 0, N: 5}).Validate(); err == nil {
		t.Fatal("M=0 accepted")
	}
	if err := (Params{M: 5, N: 0}).Validate(); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := NewDense(Params{M: -1, N: 3}); err == nil {
		t.Fatal("NewDense accepted bad params")
	}
	if _, err := NewSeeded(Params{M: 3, N: -1}); err == nil {
		t.Fatal("NewSeeded accepted bad params")
	}
}

func TestDenseSeededAgree(t *testing.T) {
	// The protocol requires every representation of (seed, M, N) to be the
	// same matrix, bit for bit.
	p := params()
	d, s := both(t, p)
	for j := 0; j < p.N; j++ {
		dc := d.Col(j, nil)
		sc := s.Col(j, nil)
		for i := range dc {
			if dc[i] != sc[i] {
				t.Fatalf("col %d row %d: dense %v != seeded %v", j, i, dc[i], sc[i])
			}
		}
	}
}

// TestGaussianGolden pins Φ and φ₀ to constants: FNV-1a over the
// little-endian Float64bits of Dense's column-major entries followed by
// its φ₀, and over Seeded's φ₀, for the shapes the benchmark workloads
// build and an odd M. Every deployed sketch depends on these bits. The
// constants were recorded on amd64 and agree on 386 (scripts/verify.sh
// runs both); other architectures are not covered.
func TestGaussianGolden(t *testing.T) {
	hash := func(vs ...linalg.Vector) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for _, v := range vs {
			for _, x := range v {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
		return h.Sum64()
	}
	for _, c := range []struct {
		p            Params
		dense, phi0s uint64
	}{
		{Params{M: 384, N: 4096, Seed: 1}, 0x5a9c862b88067987, 0x4066d11fb88b6295},
		{Params{M: 320, N: 2000, Seed: 1}, 0x24cca9cc932a34fe, 0xa04bc32433fab1e8},
		{Params{M: 97, N: 301, Seed: 7919}, 0x3db61bf9a5508548, 0xea70c96aafe4d826},
	} {
		d, s := both(t, c.p)
		if got := hash(d.cols, d.ExtensionColumn(nil)); got != c.dense {
			t.Errorf("%+v: Dense Φ+φ₀ hash = %#x, want %#x", c.p, got, c.dense)
		}
		if got := hash(s.ExtensionColumn(nil)); got != c.phi0s {
			t.Errorf("%+v: Seeded φ₀ hash = %#x, want %#x", c.p, got, c.phi0s)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	p := params()
	p2 := p
	p2.Seed++
	d1, _ := NewDense(p)
	d2, _ := NewDense(p2)
	c1, c2 := d1.Col(0, nil), d2.Col(0, nil)
	if c1.Equal(c2, 1e-12) {
		t.Fatal("different seeds produced equal columns")
	}
}

func TestEntryDistribution(t *testing.T) {
	// Entries must be ~N(0, 1/M): column norm concentrates near 1.
	p := Params{M: 400, N: 50, Seed: 7}
	d, _ := NewDense(p)
	for j := 0; j < p.N; j++ {
		n := d.Col(j, nil).Norm2()
		if n < 0.8 || n > 1.2 {
			t.Fatalf("col %d norm %v, want ≈1 for N(0,1/M) entries", j, n)
		}
	}
}

func TestMeasureMatchesColumns(t *testing.T) {
	p := params()
	d, s := both(t, p)
	r := xrand.New(1)
	x := make(linalg.Vector, p.N)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	want := make(linalg.Vector, p.M)
	col := make(linalg.Vector, p.M)
	for j := 0; j < p.N; j++ {
		want.AddScaled(x[j], d.Col(j, col))
	}
	if got := d.Measure(x, nil); !got.Equal(want, 1e-9) {
		t.Fatal("dense Measure mismatch")
	}
	if got := s.Measure(x, nil); !got.Equal(want, 1e-9) {
		t.Fatal("seeded Measure mismatch")
	}
}

func TestMeasureSparse(t *testing.T) {
	p := params()
	d, s := both(t, p)
	x := make(linalg.Vector, p.N)
	idx := []int{3, 50, 3, 119}
	vals := []float64{2, -1, 0.5, 7}
	for k, j := range idx {
		x[j] += vals[k]
	}
	want := d.Measure(x, nil)
	if got := d.MeasureSparse(idx, vals, nil); !got.Equal(want, 1e-9) {
		t.Fatal("dense MeasureSparse mismatch (repeated index must accumulate)")
	}
	if got := s.MeasureSparse(idx, vals, nil); !got.Equal(want, 1e-9) {
		t.Fatal("seeded MeasureSparse mismatch")
	}
}

// A run of AddCol lands on the bits of one Col and one AddScaled per
// index, in index order, whatever y held and however often an index
// repeats — for every matrix type (TestCountSketchAddColsBitIdentical
// adds the count-sketch's signed-zero cases).
func TestAddColsBitIdentical(t *testing.T) {
	p := params()
	d, sd := both(t, p)
	cs, err := NewCountSketch(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    Matrix
	}{{"Dense", d}, {"Seeded", sd}, {"CountSketch", cs}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(5)
			for _, n := range []int{0, 1, 7, 64} {
				idx, vals := make([]int, n), make([]float64, n)
				for k := range idx {
					idx[k] = rng.Intn(p.N / 4) // repeats
					vals[k] = math.Ldexp(rng.Float64()-0.5, int(rng.Uint64()%40)-20)
				}
				got, want := make(linalg.Vector, p.M), make(linalg.Vector, p.M)
				for i := range got {
					got[i] = rng.Float64() - 0.5
					want[i] = got[i]
				}
				col := make(linalg.Vector, p.M)
				for k, j := range idx {
					tc.m.AddCol(j, vals[k], got)
					want.AddScaled(vals[k], tc.m.Col(j, col))
				}
				bitsEqual(t, "AddCol", got, want)
			}
		})
	}
}

func TestCorrelate(t *testing.T) {
	p := params()
	d, s := both(t, p)
	r := xrand.New(2)
	rv := make(linalg.Vector, p.M)
	for i := range rv {
		rv[i] = r.NormFloat64()
	}
	want := make(linalg.Vector, p.N)
	col := make(linalg.Vector, p.M)
	for j := 0; j < p.N; j++ {
		want[j] = d.Col(j, col).Dot(rv)
	}
	if got := d.Correlate(rv, nil); !got.Equal(want, 1e-9) {
		t.Fatal("dense Correlate mismatch")
	}
	if got := s.Correlate(rv, nil); !got.Equal(want, 1e-9) {
		t.Fatal("seeded Correlate mismatch")
	}
}

func TestExtensionColumn(t *testing.T) {
	p := params()
	d, s := both(t, p)
	want := make(linalg.Vector, p.M)
	col := make(linalg.Vector, p.M)
	for j := 0; j < p.N; j++ {
		want.Add(d.Col(j, col))
	}
	want.Scale(1 / math.Sqrt(float64(p.N)))
	if got := d.ExtensionColumn(nil); !got.Equal(want, 1e-9) {
		t.Fatal("dense ExtensionColumn mismatch")
	}
	if got := s.ExtensionColumn(nil); !got.Equal(want, 1e-9) {
		t.Fatal("seeded ExtensionColumn mismatch")
	}
}

// The core protocol identity (paper eq. 1): summing local sketches equals
// sketching the summed data, for any split of the data across nodes.
func TestSketchLinearityProperty(t *testing.T) {
	p := Params{M: 20, N: 30, Seed: 5}
	d, _ := NewDense(p)
	check := func(seed uint64, nodes8 uint8) bool {
		nNodes := int(nodes8%5) + 2
		r := xrand.New(seed)
		slices := make([]linalg.Vector, nNodes)
		global := make(linalg.Vector, p.N)
		for l := range slices {
			slices[l] = make(linalg.Vector, p.N)
			for i := range slices[l] {
				v := math.Floor(10 * (r.Float64() - 0.5))
				slices[l][i] = v
				global[i] += v
			}
		}
		sum := make(linalg.Vector, p.M)
		for _, sl := range slices {
			AddSketch(sum, d.Measure(sl, nil))
		}
		return sum.Equal(d.Measure(global, nil), 1e-8)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubSketchRoundTrip(t *testing.T) {
	p := params()
	d, _ := NewDense(p)
	r := xrand.New(3)
	x1 := make(linalg.Vector, p.N)
	x2 := make(linalg.Vector, p.N)
	for i := range x1 {
		x1[i], x2[i] = r.NormFloat64(), r.NormFloat64()
	}
	y1 := d.Measure(x1, nil)
	y2 := d.Measure(x2, nil)
	total := y1.Clone()
	AddSketch(total, y2)
	total.AddScaled(-1, y2) // node 2 leaves the aggregation
	if !total.Equal(y1, 1e-10) {
		t.Fatal("add/sub sketch did not round-trip")
	}
}

func TestSketchBytes(t *testing.T) {
	if SketchBytes(100) != 800 {
		t.Fatalf("SketchBytes(100) = %d", SketchBytes(100))
	}
}

func TestSeededColBounds(t *testing.T) {
	_, s := both(t, params())
	for _, j := range []int{-1, params().N} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Col(%d) did not panic", j)
				}
			}()
			s.Col(j, nil)
		}()
	}
}

func BenchmarkDenseMeasure(b *testing.B) {
	p := Params{M: 200, N: 10000, Seed: 1}
	d, _ := NewDense(p)
	x := make(linalg.Vector, p.N)
	r := xrand.New(1)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	dst := make(linalg.Vector, p.M)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Measure(x, dst)
	}
}

func BenchmarkSeededMeasureSparse(b *testing.B) {
	p := Params{M: 200, N: 1000000, Seed: 1}
	s, _ := NewSeeded(p)
	idx := make([]int, 500)
	vals := make([]float64, 500)
	r := xrand.New(1)
	for i := range idx {
		idx[i] = r.Intn(p.N)
		vals[i] = r.NormFloat64()
	}
	dst := make(linalg.Vector, p.M)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MeasureSparse(idx, vals, dst)
	}
}
