package frame

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// The protocols' own suites (internal/stream/wire_test.go,
// internal/cluster/wire_test.go) drive the reader with their kinds, limits
// and fuzzers; this pins the contract they share.

func TestReaderLimitsAndEOF(t *testing.T) {
	a := End(append(Begin(nil, 2), "hello"...))
	b := End(Begin(nil, 3))
	limits := []int{2: 5, 3: 1}
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
	if cap(fr.Buf) > Overhead+5 {
		t.Fatalf("buffer grew to %d bytes for a 5-byte body", cap(fr.Buf))
	}

	for name, tc := range map[string]struct {
		in   []byte
		want error
	}{
		"over the kind's limit":  {End(append(Begin(nil, 2), "hello!"...)), ErrMalformed},
		"kind with no limit":     {End(Begin(nil, 1)), ErrMalformed},
		"kind past the table":    {End(Begin(nil, 9)), ErrMalformed},
		"another version":        {[]byte{0, 0, 0, 0, Version + 1, 2}, ErrMalformed},
		"cut inside the body":    {a[:len(a)-1], io.ErrUnexpectedEOF},
		"cut inside the prelude": {a[:3], io.ErrUnexpectedEOF},
	} {
		fr := Reader{R: bytes.NewReader(tc.in), Limits: limits}
		if _, _, err := fr.Next(); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", name, err, tc.want)
		}
	}
}

func TestCursorPoisons(t *testing.T) {
	buf := AppendF64(AppendString([]byte{7, 1, 0}, "ab"), -2.5)
	r := Cursor{B: buf}
	if r.U8() != 7 || r.U16() != 1 || string(r.Str()) != "ab" || r.F64() != -2.5 || r.Err != nil || len(r.B) != 0 {
		t.Fatalf("cursor misread its own encoding: %+v", r)
	}
	if r.U8() != 0 || r.Err != ErrTruncated {
		t.Fatalf("read past the end: err %v", r.Err)
	}
	r = Cursor{B: []byte{0x80}} // a varint that never ends
	if r.Uvarint() != 0 || r.Err != ErrTruncated || r.U64() != 0 || r.Take(0) != nil {
		t.Fatalf("overlong varint: %+v", r)
	}
	r = Cursor{B: []byte{200, 1, 'x'}} // a string longer than what is left
	if r.Str() != nil || r.Err != ErrTruncated {
		t.Fatalf("overlong string: %+v", r)
	}
}
