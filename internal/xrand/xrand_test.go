package xrand

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs", same)
	}
}

// TestKnownGoldenSequence pins the generator's output to constants: the
// distributed protocol depends on every binary generating identical
// matrices, so a change to the PCG step, the seeding, Split, Intn or
// Box–Muller must not move a single bit. The constants were recorded on
// amd64 and agree on 386 (scripts/verify.sh runs both); other
// architectures are not covered.
func TestKnownGoldenSequence(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want [4]uint64
	}{
		{0, [4]uint64{0x3cdee518ef1ecd4c, 0x8e01003396c1933f, 0xeb65c3c84b73d435, 0x5c1033f2d07e7a53}},
		{1, [4]uint64{0xe054e023bb9129a, 0x3806fed8a7b7fa7a, 0x25d3d544eda9b72c, 0xd5684b20f0e36bb5}},
		{12345, [4]uint64{0xb33897664f9c5937, 0x6a0c87b3c59c4ffe, 0x64f8cad58cb88bc5, 0x55bea23519edde95}},
		{math.MaxUint64, [4]uint64{0x126a79bf9cdaaeba, 0xb5afb744215e32f3, 0x98ddcfdef795836b, 0x41c4db6567e48a73}},
	} {
		r := New(c.seed)
		for i, want := range c.want {
			if got := r.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 #%d = %#x, want %#x", c.seed, i, got, want)
			}
		}
	}

	// An odd count, so the last draw leaves a spare behind.
	r := New(12345)
	for i, want := range []uint64{0xbfe731e2d8368461, 0x3fdbbaafa92488fa, 0xbfe6349e6f797bf3, 0x3ff2ca36ec740a96, 0x3f9ac2b2d006ed09} {
		if got := math.Float64bits(r.NormFloat64()); got != want {
			t.Fatalf("NormFloat64 #%d bits = %#x, want %#x", i, got, want)
		}
	}

	r = New(12345)
	for i, c := range []struct{ n, want int }{
		{1, 0}, {2, 0}, {3, 1}, {10, 3}, {1000, 999}, {1 << 20, 957725}, {1<<30 + 1, 725261906}, {3 << 29, 906926142},
	} {
		if got := r.Intn(c.n); got != c.want {
			t.Fatalf("Intn #%d (n=%d) = %d, want %d", i, c.n, got, c.want)
		}
	}

	for _, c := range []struct{ label, u, norm uint64 }{
		{1, 0xbe4cb107fe3f6d9d, 0xbfd7dd82f6926669},
		{2, 0xb8192dda5fc7f706, 0xbff26a6f64efbd02},
		{4097, 0x7f3c49577aa677c3, 0x3fe214c904e06b85},
	} {
		s := New(12345).Split(c.label)
		if got := s.Uint64(); got != c.u {
			t.Fatalf("Split(%d) Uint64 = %#x, want %#x", c.label, got, c.u)
		}
		if got := math.Float64bits(s.NormFloat64()); got != c.norm {
			t.Fatalf("Split(%d) NormFloat64 bits = %#x, want %#x", c.label, got, c.norm)
		}
	}

	// Longer streams, FNV-1a over their little-endian words: 10,001
	// Gaussians, 10,000 bounded ints and 1,000 sibling sub-streams.
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	r = New(1)
	for i := 0; i < 10001; i++ {
		put(math.Float64bits(r.NormFloat64()))
	}
	r = New(2)
	for i := 0; i < 10000; i++ {
		put(uint64(r.Intn(1000003)))
	}
	r = New(3)
	for i := 0; i < 1000; i++ {
		put(r.Split(uint64(i)).Uint64())
	}
	if got, want := h.Sum64(), uint64(0x7380c385715a4474); got != want {
		t.Fatalf("stream hash = %#x, want %#x", got, want)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	s1 := parent.Split(1)
	s2 := parent.Split(2)
	s1b := New(7).Split(1)
	same12 := 0
	for i := 0; i < 200; i++ {
		v1, v2, v1b := s1.Uint64(), s2.Uint64(), s1b.Uint64()
		if v1 == v2 {
			same12++
		}
		if v1 != v1b {
			t.Fatalf("split sub-stream not reproducible at %d", i)
		}
	}
	if same12 > 0 {
		t.Fatalf("sibling sub-streams collided %d times", same12)
	}
}

func TestSplitDoesNotPerturbParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split(99)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split consumed parent randomness")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(6)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("gaussian variance = %v, want ~1", variance)
	}
}

func TestNormFloat64Tails(t *testing.T) {
	r := New(11)
	const n = 100000
	beyond2 := 0
	for i := 0; i < n; i++ {
		if math.Abs(r.NormFloat64()) > 2 {
			beyond2++
		}
	}
	// P(|Z|>2) ≈ 4.55%.
	frac := float64(beyond2) / n
	if frac < 0.035 || frac > 0.057 {
		t.Fatalf("tail mass beyond 2σ = %v, want ~0.0455", frac)
	}
}

// TestNormPairMatchesNormFloat64 pins the contract fillColumn relies on:
// with no spare pending, a NormPair is the next two NormFloat64s.
func TestNormPairMatchesNormFloat64(t *testing.T) {
	a, b := New(15), New(15)
	for i := 0; i < 1000; i++ {
		z0, z1 := a.NormPair()
		w0, w1 := b.NormFloat64(), b.NormFloat64()
		if math.Float64bits(z0) != math.Float64bits(w0) || math.Float64bits(z1) != math.Float64bits(w1) {
			t.Fatalf("pair %d: NormPair (%v, %v), NormFloat64 (%v, %v)", i, z0, z1, w0, w1)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	check := func(n uint8) bool {
		size := int(n%64) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMul128AgainstSmallCases(t *testing.T) {
	cases := []struct{ aHi, aLo, bHi, bLo, wantHi, wantLo uint64 }{
		{0, 2, 0, 3, 0, 6},
		{0, 1 << 63, 0, 2, 1, 0},
		{0, math.MaxUint64, 0, 2, 1, math.MaxUint64 - 1},
		{1, 0, 0, 5, 5, 0},
	}
	for _, c := range cases {
		hi, lo := mul128(c.aHi, c.aLo, c.bHi, c.bLo)
		if hi != c.wantHi || lo != c.wantLo {
			t.Fatalf("mul128(%d:%d, %d:%d) = %d:%d, want %d:%d",
				c.aHi, c.aLo, c.bHi, c.bLo, hi, lo, c.wantHi, c.wantLo)
		}
	}

	// Against math/big: every 4-tuple of boundary words (all-ones words,
	// 32-bit limb edges and top bits, whose products carry through every
	// limb), then 10,000 seeded operand pairs mixing random and boundary
	// words.
	edges := []uint64{0, 1, math.MaxUint64, 1 << 63, math.MaxUint32, math.MaxUint32 + 1, 0xffffffff00000000, math.MaxUint64 - 1}
	mod := new(big.Int).Lsh(big.NewInt(1), 128)
	wide := func(hi, lo uint64) *big.Int {
		v := new(big.Int).SetUint64(hi)
		return v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(lo))
	}
	check := func(aHi, aLo, bHi, bLo uint64) {
		t.Helper()
		want := new(big.Int).Mul(wide(aHi, aLo), wide(bHi, bLo))
		want.Mod(want, mod)
		hi, lo := mul128(aHi, aLo, bHi, bLo)
		if wide(hi, lo).Cmp(want) != 0 {
			t.Fatalf("mul128(%#x:%#x, %#x:%#x) = %#x:%#x, want %#x", aHi, aLo, bHi, bLo, hi, lo, want)
		}
	}
	for _, aHi := range edges {
		for _, aLo := range edges {
			for _, bHi := range edges {
				for _, bLo := range edges {
					check(aHi, aLo, bHi, bLo)
				}
			}
		}
	}
	r := New(128)
	word := func() uint64 {
		if r.Intn(4) == 0 {
			return edges[r.Intn(len(edges))]
		}
		return r.Uint64()
	}
	for i := 0; i < 10000; i++ {
		check(word(), word(), word(), word())
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// TestValueConstructorsBitIdentical pins NewValue/SplitValue to the
// pointer-returning constructors: the sensing kernels build one
// stack-allocated generator per column through the value API, and the
// consensus protocol requires the streams to be bit-for-bit the same.
func TestValueConstructorsBitIdentical(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef, ^uint64(0)} {
		a := New(seed)
		b := NewValue(seed)
		for i := 0; i < 64; i++ {
			if got, want := b.Uint64(), a.Uint64(); got != want {
				t.Fatalf("seed %d: NewValue diverges at output %d: %x vs %x", seed, i, got, want)
			}
		}
		for _, label := range []uint64{1, 7, 1 << 40} {
			sa := New(seed).Split(label)
			sb := New(seed).SplitValue(label)
			for i := 0; i < 64; i++ {
				if got, want := sb.NormFloat64(), sa.NormFloat64(); got != want {
					t.Fatalf("seed %d label %d: SplitValue diverges at output %d", seed, label, i)
				}
			}
		}
	}
}
