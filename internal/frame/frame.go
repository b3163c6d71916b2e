// Package frame is the byte layer the repository's two wire protocols
// share: the push stream (internal/stream) and the pull RPCs
// (internal/cluster). Every message, in either direction, is a prelude
// of three to seven bytes and a body:
//
//	version uint8  Version
//	kind    uint8  the protocol's message kind
//	length  uv     size of the body in bytes, below 2^32
//	body    length bytes, laid out per kind by the protocol
//
// The package knows nothing about kinds or bodies. It reads frames off a
// connection into one reused buffer, with the length capped per kind
// before any of the body is read; it starts and finishes frames in a
// caller's buffer; and it gives body parsers a bounds-checked cursor.
// Bodies are built from unsigned varints (uv, minimal: no longer than
// the value needs), strings (a uv length, then that many bytes) and
// IEEE-754 doubles, little-endian (f64).
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

const (
	// Version is the prelude's version byte: the layout of every body
	// of both protocols. A peer that sends another is disconnected;
	// there is no negotiation.
	Version = 9
	// MinOverhead and MaxOverhead bound the prelude in front of a frame
	// body: three bytes for a body under 128 bytes, seven at most.
	MinOverhead = 1 + 1 + 1
	MaxOverhead = 1 + 1 + binary.MaxVarintLen32
)

// ErrMalformed marks input no conforming peer produces.
var ErrMalformed = errors.New("malformed frame")

// ErrTruncated is a Cursor's error: a read ran past the end of its bytes.
var ErrTruncated = errors.New("truncated input")

// Reader reads frames off one connection into one reused buffer.
type Reader struct {
	R io.Reader
	// Limits is the largest body accepted per kind; a kind past its end,
	// or with limit 0, is not accepted at all.
	Limits []int
	// Buf is the read buffer. It may start nil or pre-sized; it grows to
	// the largest body seen, never past the kind's limit.
	Buf      []byte
	off, end int // Buf[off:end] is read but not yet consumed
}

// Next returns the next frame's kind and body. The body aliases the
// reader's buffer and is valid until the following call. io.EOF means
// the peer closed between frames; a close inside one is
// io.ErrUnexpectedEOF.
func (fr *Reader) Next() (kind uint8, body []byte, err error) {
	if err := fr.fill(MinOverhead); err != nil {
		return 0, nil, err
	}
	version, kind := fr.Buf[fr.off], fr.Buf[fr.off+1]
	if version != Version {
		return 0, nil, fmt.Errorf("%w: version %d", ErrMalformed, version)
	}
	if int(kind) >= len(fr.Limits) || fr.Limits[kind] == 0 {
		return 0, nil, fmt.Errorf("%w: unexpected kind %d", ErrMalformed, kind)
	}
	// The length a byte at a time, so nothing past it is waited for.
	var n uint64
	for i := 0; ; i++ {
		if i == binary.MaxVarintLen32 {
			return 0, nil, fmt.Errorf("%w: kind %d length runs past %d bytes", ErrMalformed, kind, i)
		}
		if err := fr.fill(2 + i + 1); err != nil {
			return 0, nil, err
		}
		b := fr.Buf[fr.off+2+i]
		n |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if i > 0 && b == 0 {
				return 0, nil, fmt.Errorf("%w: kind %d length in %d bytes, longer than it needs", ErrMalformed, kind, i+1)
			}
			fr.off += 2 + i + 1
			break
		}
	}
	if n > math.MaxUint32 || n > uint64(fr.Limits[kind]) {
		return 0, nil, fmt.Errorf("%w: kind %d body of %d bytes, limit %d", ErrMalformed, kind, n, fr.Limits[kind])
	}
	if err := fr.fill(int(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	body = fr.Buf[fr.off : fr.off+int(n)]
	fr.off += int(n)
	return kind, body, nil
}

// fill blocks until n unconsumed bytes are buffered.
func (fr *Reader) fill(n int) error {
	if fr.end-fr.off >= n {
		return nil
	}
	fr.end = copy(fr.Buf, fr.Buf[fr.off:fr.end])
	fr.off = 0
	if n > len(fr.Buf) {
		size := max(n, MaxOverhead) // a prelude grows the buffer once
		fr.Buf = append(make([]byte, 0, size), fr.Buf[:fr.end]...)[:size]
	}
	for fr.end < n {
		got, err := fr.R.Read(fr.Buf[fr.end:])
		fr.end += got
		if err != nil && fr.end < n {
			if err == io.EOF && fr.end > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Begin starts a frame of the given kind in buf's storage, room left
// for the longest length; End fills in the length once the body is
// appended.
func Begin(buf []byte, kind uint8) []byte {
	return append(buf[:0], Version, kind, 0, 0, 0, 0, 0)
}

// End finishes the frame Begin started: it writes the length and moves
// the body up against it. The frame is the returned slice, which starts
// where buf does.
func End(buf []byte) []byte {
	n := len(buf) - MaxOverhead
	s := binary.PutUvarint(buf[2:], uint64(n))
	copy(buf[2+s:], buf[MaxOverhead:])
	return buf[:2+s+n]
}

// AppendString appends s as a str: a uv length, then the bytes.
func AppendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// AppendF64 appends v as an f64.
func AppendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// Cursor is a bounds-checked little-endian cursor over a frame body or
// any other encoded blob; the first overrun poisons it (Err becomes
// ErrTruncated) and every subsequent read returns zero values. B is what
// is left to read.
type Cursor struct {
	B   []byte
	Err error
}

// Take consumes and returns the next n bytes, nil on overrun.
func (r *Cursor) Take(n int) []byte {
	if r.Err != nil {
		return nil
	}
	if n < 0 || n > len(r.B) {
		r.Err = ErrTruncated
		return nil
	}
	out := r.B[:n]
	r.B = r.B[n:]
	return out
}

// U8 reads one byte.
func (r *Cursor) U8() uint8 {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Cursor) U16() uint16 {
	if b := r.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Cursor) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Cursor) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads one unsigned varint; a short or overlong encoding, or
// one longer than its value needs, poisons the cursor like any other
// overrun.
func (r *Cursor) Uvarint() uint64 {
	v, n := binary.Uvarint(r.B)
	if n <= 0 || n > 1 && r.B[n-1] == 0 {
		n = len(r.B) + 1
	}
	if r.Take(n) == nil {
		return 0
	}
	return v
}

// Str reads a uvarint length and that many bytes.
func (r *Cursor) Str() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.B)) {
		n = uint64(len(r.B)) + 1
	}
	return r.Take(int(n))
}
