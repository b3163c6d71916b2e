package frame

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

// The protocols' own suites (internal/stream/wire_test.go,
// internal/cluster/wire_test.go) drive the reader with their kinds, limits
// and fuzzers; this pins the contract they share.

// prelude is a frame's first bytes as a peer may send them: the version,
// the kind and the length's bytes, whatever they say.
func prelude(version, kind byte, length ...byte) []byte {
	return append([]byte{version, kind}, length...)
}

// bodyless fails the test on any read: what a frame's body would be.
type bodyless struct{ t *testing.T }

func (b bodyless) Read([]byte) (int, error) {
	b.t.Error("a body byte was read")
	return 0, io.ErrUnexpectedEOF
}

func TestReaderLimitsAndEOF(t *testing.T) {
	a := End(append(Begin(nil, 2), "hello"...))
	b := End(Begin(nil, 3))
	if want := append(prelude(Version, 2, 5), "hello"...); !bytes.Equal(a, want) {
		t.Fatalf("a 5-byte body framed as %x, want %x", a, want)
	}
	limits := []int{2: 5, 3: 1, 4: 300}
	fr := Reader{R: iotest.OneByteReader(bytes.NewReader(append(append([]byte(nil), a...), b...))), Limits: limits}
	kind, body, err := fr.Next()
	if err != nil || kind != 2 || string(body) != "hello" {
		t.Fatalf("first frame: kind %d body %q err %v", kind, body, err)
	}
	if kind, body, err = fr.Next(); err != nil || kind != 3 || len(body) != 0 {
		t.Fatalf("empty frame: kind %d body %q err %v", kind, body, err)
	}
	if _, _, err = fr.Next(); err != io.EOF {
		t.Fatalf("between frames: %v, want io.EOF", err)
	}
	if cap(fr.Buf) > MaxOverhead+5 {
		t.Fatalf("buffer grew to %d bytes for a 5-byte body", cap(fr.Buf))
	}
	// A body of 128 bytes or more takes a longer length, and the prelude
	// is as long as its length needs.
	long := bytes.Repeat([]byte{'x'}, 300)
	c := End(append(Begin(nil, 4), long...))
	if want := append(prelude(Version, 4, 0xac, 0x02), long...); !bytes.Equal(c, want) {
		t.Fatalf("a 300-byte body framed as %x…, want %x…", c[:MaxOverhead], want[:MaxOverhead])
	}
	fr = Reader{R: bytes.NewReader(c), Limits: limits}
	if kind, body, err = fr.Next(); err != nil || kind != 4 || !bytes.Equal(body, long) {
		t.Fatalf("300-byte frame: kind %d, %d bytes, err %v", kind, len(body), err)
	}

	for name, tc := range map[string]struct {
		in   []byte
		want error
	}{
		"over the kind's limit":         {prelude(Version, 2, 6), ErrMalformed},
		"kind with no limit":            {End(Begin(nil, 1)), ErrMalformed},
		"kind past the table":           {End(Begin(nil, 9)), ErrMalformed},
		"another version":               {prelude(Version+1, 2, 0), ErrMalformed},
		"the u32 length of version 4":   {[]byte{5, 0, 0, 0, 4, 2}, ErrMalformed},
		"a length longer than it needs": {prelude(Version, 2, 0x85, 0x00), ErrMalformed},
		"a zero length in two bytes":    {prelude(Version, 3, 0x80, 0x00), ErrMalformed},
		"a length past the limit":       {prelude(Version, 4, 0xad, 0x02), ErrMalformed},
		"a 5-byte length past uint32":   {prelude(Version, 4, 0x80, 0x80, 0x80, 0x80, 0x10), ErrMalformed},
		"a length of six bytes":         {prelude(Version, 4, 0x81, 0x80, 0x80, 0x80, 0x80, 0x00), ErrMalformed},
		"cut inside the body":           {a[:len(a)-1], io.ErrUnexpectedEOF},
		"cut inside the prelude":        {a[:2], io.ErrUnexpectedEOF},
		"cut inside the length":         {c[:3], io.ErrUnexpectedEOF},
	} {
		fr := Reader{R: bytes.NewReader(tc.in), Limits: limits}
		if _, _, err := fr.Next(); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", name, err, tc.want)
		}
		if tc.want != ErrMalformed {
			continue
		}
		// Refused from the prelude alone (each case is one): read a byte
		// at a time, the reader asks for nothing past it and grows no
		// buffer for a body.
		fr = Reader{R: io.MultiReader(iotest.OneByteReader(bytes.NewReader(tc.in)), bodyless{t}), Limits: limits}
		if _, _, err := fr.Next(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s, a byte at a time: %v, want %v", name, err, ErrMalformed)
		}
		if cap(fr.Buf) > MaxOverhead {
			t.Errorf("%s: buffer grew to %d bytes", name, cap(fr.Buf))
		}
	}
}

func TestCursorPoisons(t *testing.T) {
	buf := AppendF64(AppendString([]byte{7, 1, 0}, "ab"), -2.5)
	r := Cursor{B: buf}
	if r.U8() != 7 || r.U16() != 1 || string(r.Str()) != "ab" || math.Float64frombits(r.U64()) != -2.5 || r.Err != nil || len(r.B) != 0 {
		t.Fatalf("cursor misread its own encoding: %+v", r)
	}
	if r.U8() != 0 || r.Err != ErrTruncated {
		t.Fatalf("read past the end: err %v", r.Err)
	}
	r = Cursor{B: []byte{0x80}} // a varint that never ends
	if r.Uvarint() != 0 || r.Err != ErrTruncated || r.U64() != 0 || r.Take(0) != nil {
		t.Fatalf("overlong varint: %+v", r)
	}
	// A varint longer than its value needs: 0x80 0x00 is binary.Uvarint's
	// (0, 2), and one value has one encoding.
	for _, b := range [][]byte{{0x80, 0x00}, {0x81, 0x00}, {0xff, 0x80, 0x00}} {
		r = Cursor{B: b}
		if r.Uvarint() != 0 || r.Err != ErrTruncated {
			t.Fatalf("non-minimal varint %x: %+v", b, r)
		}
	}
	if r = (Cursor{B: []byte{0x00, 0x80, 0x01}}); r.Uvarint() != 0 || r.Uvarint() != 128 || r.Err != nil {
		t.Fatalf("minimal varints 0 and 128: %+v", r)
	}
	r = Cursor{B: []byte{200, 1, 'x'}} // a string longer than what is left
	if r.Str() != nil || r.Err != ErrTruncated {
		t.Fatalf("overlong string: %+v", r)
	}
}
