package keydict

import (
	"bytes"
	"strings"
	"testing"
)

func TestBuilderFreezeCanonical(t *testing.T) {
	b1 := NewBuilder()
	b1.AddAll([]string{"zebra", "apple", "mango"})
	b2 := NewBuilder()
	b2.AddAll([]string{"mango", "zebra", "apple", "apple"})
	d1, d2 := b1.Freeze(), b2.Freeze()
	if d1.N() != 3 || d2.N() != 3 {
		t.Fatalf("N = %d, %d", d1.N(), d2.N())
	}
	for i := 0; i < 3; i++ {
		if d1.Key(i) != d2.Key(i) {
			t.Fatalf("dictionaries disagree at %d: %q vs %q", i, d1.Key(i), d2.Key(i))
		}
	}
	if d1.Key(0) != "apple" || d1.Key(2) != "zebra" {
		t.Fatalf("not sorted: %v", d1.Keys())
	}
}

func TestIndexRoundTrip(t *testing.T) {
	d := FromSorted([]string{"a", "b", "c"})
	for i := 0; i < d.N(); i++ {
		j, ok := d.Index(d.Key(i))
		if !ok || j != i {
			t.Fatalf("roundtrip %d -> %q -> %d, %v", i, d.Key(i), j, ok)
		}
	}
	if _, ok := d.Index("missing"); ok {
		t.Fatal("found missing key")
	}
}

func TestFromSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted input accepted")
		}
	}()
	FromSorted([]string{"b", "a"})
}

func TestFromSortedPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate input accepted")
		}
	}()
	FromSorted([]string{"a", "a"})
}

func TestVectorize(t *testing.T) {
	d := FromSorted([]string{"a", "b", "c"})
	x, err := d.Vectorize(map[string]float64{"a": 2, "c": -1})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 || x[1] != 0 || x[2] != -1 {
		t.Fatalf("Vectorize = %v", x)
	}
	if _, err := d.Vectorize(map[string]float64{"zz": 1}); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestSparseVectorize(t *testing.T) {
	d := FromSorted([]string{"a", "b", "c", "d"})
	idx, vals, err := d.SparseVectorize(map[string]float64{"d": 4, "a": 1, "b": 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 3 || vals[0] != 1 || vals[1] != 4 {
		t.Fatalf("SparseVectorize = %v %v (zero values must be dropped, sorted by index)", idx, vals)
	}
	if _, _, err := d.SparseVectorize(map[string]float64{"zz": 1}); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := FromSorted([]string{"ads|en-US", "core|en-GB", "core|zh-CN"})
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.N() != d.N() {
		t.Fatalf("N = %d, want %d", d2.N(), d.N())
	}
	for i := 0; i < d.N(); i++ {
		if d.Key(i) != d2.Key(i) {
			t.Fatalf("key %d: %q vs %q", i, d.Key(i), d2.Key(i))
		}
	}
}

func TestReadRejectsUnsorted(t *testing.T) {
	if _, err := Read(strings.NewReader("b\na\n")); err == nil {
		t.Fatal("unsorted serialized dictionary accepted")
	}
}

func TestKeysReturnsCopy(t *testing.T) {
	d := FromSorted([]string{"a", "b"})
	ks := d.Keys()
	ks[0] = "mutated"
	if d.Key(0) != "a" {
		t.Fatal("Keys exposed internal storage")
	}
}
