package csoutlier

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary sketch wire format, for shipping sketches between processes
// without bringing a serialization framework along:
//
//	magic    [4]byte  "CSK2"
//	m        uint32
//	n        uint32
//	seed     uint64
//	ensemble uint8
//	density  uint32   (SparseRademacher D or CountSketch depth; 0 otherwise)
//	payload  m × float64 (little endian)
//	crc32    uint32 (IEEE, over everything above)
//
// The full consensus identity travels with the payload so the receiver
// can verify sketch compatibility before summing — a mismatched seed or
// ensemble silently corrupting an aggregation is the protocol's worst
// failure mode. The second worst is a non-finite measurement: sums are
// linear, so one NaN or ±Inf makes every span over the window it was
// folded into unanswerable for the window's ring lifetime. Every
// decoder below therefore refuses a payload that carries one, and the
// entry points that take floats from the caller (FromPayload,
// SketchPairs, SketchVector, Observe, ObserveBatch) refuse them too.

var sketchMagic = [4]byte{'C', 'S', 'K', '2'}

const sketchHeaderLen = 4 + 4 + 4 + 8 + 1 + 4
const sketchTrailerLen = 4

// EncodedSketchLen returns the size in bytes of the binary encoding of
// a sketch of m measurements — what a transport needs to bound a frame
// before reading it.
func EncodedSketchLen(m int) int { return sketchHeaderLen + 8*m + sketchTrailerLen }

// AppendBinary appends the binary encoding of s to dst and returns the
// extended slice; with cap(dst)-len(dst) ≥ EncodedSketchLen(M) it does
// not allocate.
func (s Sketch) AppendBinary(dst []byte) ([]byte, error) {
	if s.m == 0 || len(s.Y) != s.m {
		return dst, fmt.Errorf("csoutlier: cannot marshal zero-value or inconsistent sketch (m=%d, len=%d)", s.m, len(s.Y))
	}
	start, n := len(dst), EncodedSketchLen(s.m)
	if cap(dst)-start < n {
		dst = append(make([]byte, 0, start+n), dst...)
	}
	dst = dst[:start+n]
	buf := dst[start:]
	copy(buf[0:4], sketchMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], uint32(s.m))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(s.n))
	binary.LittleEndian.PutUint64(buf[12:20], s.seed)
	buf[20] = byte(s.ens)
	binary.LittleEndian.PutUint32(buf[21:25], uint32(s.d))
	for i, v := range s.Y {
		binary.LittleEndian.PutUint64(buf[sketchHeaderLen+8*i:], math.Float64bits(v))
	}
	sum := crc32.ChecksumIEEE(buf[:n-sketchTrailerLen])
	binary.LittleEndian.PutUint32(buf[n-sketchTrailerLen:], sum)
	return dst, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s Sketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// UnmarshalSketch decodes a sketch produced by MarshalBinary and
// verifies both its integrity (checksum) and its compatibility with
// this Sketcher's consensus parameters.
func (s *Sketcher) UnmarshalSketch(data []byte) (Sketch, error) {
	out := s.emptySketch()
	if err := s.UnmarshalSketchInto(data, out); err != nil {
		return Sketch{}, err
	}
	return out, nil
}

// UnmarshalSketchInto is UnmarshalSketch into a caller-provided sketch
// of this Sketcher (e.g. from ZeroSketch): zero allocation, and dst is
// untouched when data is rejected.
func (s *Sketcher) UnmarshalSketchInto(data []byte, dst Sketch) error {
	sk, err := decodeSketchID(data)
	if err != nil {
		return err
	}
	if err := sk.compatible(s.sketchID()); err != nil {
		return err
	}
	if err := dst.compatible(s.sketchID()); err != nil {
		return err
	}
	readFloats(dst.Y, data)
	return nil
}

// AddToBinary adds s into data, a binary-encoded sketch of the same
// consensus, in place: afterwards data encodes (what it held) + s,
// bit-for-bit what decoding it, Add(s) and re-encoding would produce.
// data is untouched when it is rejected.
func (s Sketch) AddToBinary(data []byte) error {
	enc, err := decodeSketchID(data)
	if err != nil {
		return err
	}
	if err := enc.compatible(s); err != nil {
		return err
	}
	if len(s.Y) != s.m {
		return fmt.Errorf("csoutlier: inconsistent sketch (m=%d, len=%d)", s.m, len(s.Y))
	}
	if err := checkFinite(s.Y); err != nil {
		return err
	}
	body := data[sketchHeaderLen : len(data)-sketchTrailerLen]
	for i, v := range s.Y {
		cell := body[8*i : 8*i+8]
		sum := math.Float64frombits(binary.LittleEndian.Uint64(cell)) + v
		binary.LittleEndian.PutUint64(cell, math.Float64bits(sum))
	}
	sum := crc32.ChecksumIEEE(data[:len(data)-sketchTrailerLen])
	binary.LittleEndian.PutUint32(data[len(data)-sketchTrailerLen:], sum)
	return nil
}

// DecodeSketch decodes a sketch without a Sketcher, for transport
// layers that only relay sketches. Compatibility is still enforced at
// Add/Sub/Detect time.
func DecodeSketch(data []byte) (Sketch, error) {
	sk, err := decodeSketchID(data)
	if err != nil {
		return Sketch{}, err
	}
	sk.Y = make([]float64, sk.m)
	readFloats(sk.Y, data)
	return sk, nil
}

// decodeSketchID validates an encoded sketch — length, magic, checksum,
// dimensions, finite measurements — and returns its consensus identity
// with no payload (Y nil, no allocation). After it succeeds, data holds
// exactly m finite floats at sketchHeaderLen.
func decodeSketchID(data []byte) (Sketch, error) {
	if len(data) < sketchHeaderLen+sketchTrailerLen {
		return Sketch{}, fmt.Errorf("csoutlier: sketch payload too short (%d bytes)", len(data))
	}
	if [4]byte(data[0:4]) != sketchMagic {
		return Sketch{}, fmt.Errorf("csoutlier: bad sketch magic %q", data[0:4])
	}
	wantSum := binary.LittleEndian.Uint32(data[len(data)-sketchTrailerLen:])
	if got := crc32.ChecksumIEEE(data[:len(data)-sketchTrailerLen]); got != wantSum {
		return Sketch{}, fmt.Errorf("csoutlier: sketch checksum mismatch (corrupted in transit?)")
	}
	m := int(binary.LittleEndian.Uint32(data[4:8]))
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	seed := binary.LittleEndian.Uint64(data[12:20])
	ens := Ensemble(data[20])
	d := int(binary.LittleEndian.Uint32(data[21:25]))
	// A zero-dimension header can carry a valid checksum (an m=0 payload
	// is just header+trailer), but would decode into a Sketch that
	// MarshalBinary refuses to round-trip and Add/Detect cannot use.
	if m <= 0 || n <= 0 {
		return Sketch{}, fmt.Errorf("csoutlier: sketch header has non-positive dimensions (m=%d, n=%d)", m, n)
	}
	if want := EncodedSketchLen(m); len(data) != want {
		return Sketch{}, fmt.Errorf("csoutlier: sketch payload is %d bytes, header says %d", len(data), want)
	}
	if i := firstNonFinite(data[sketchHeaderLen : len(data)-sketchTrailerLen]); i >= 0 {
		return Sketch{}, fmt.Errorf("csoutlier: sketch measurement %d is not finite", i)
	}
	return Sketch{m: m, n: n, seed: seed, ens: ens, d: d}, nil
}

// expMask is a float64's exponent bits; NaN and ±Inf are exactly the
// values with all of them set.
const expMask = 0x7ff << 52

// firstNonFinite returns the index of the first NaN or ±Inf among the
// little-endian float64s of body, or -1. The push path runs it over
// every frame before folding, so the common all-finite case is kept
// branch-free: (bits&expMask)+1<<52 carries into the sign bit exactly
// when every exponent bit is set, and OR-ing that over the body, four
// floats a step, costs about what the checksum pass does.
func firstNonFinite(body []byte) int {
	const carry = 1 << 52
	var acc uint64
	b := body
	for ; len(b) >= 32; b = b[32:] {
		acc |= (binary.LittleEndian.Uint64(b)&expMask + carry) |
			(binary.LittleEndian.Uint64(b[8:])&expMask + carry) |
			(binary.LittleEndian.Uint64(b[16:])&expMask + carry) |
			(binary.LittleEndian.Uint64(b[24:])&expMask + carry)
	}
	for ; len(b) >= 8; b = b[8:] {
		acc |= binary.LittleEndian.Uint64(b)&expMask + carry
	}
	if acc>>63 == 0 {
		return -1
	}
	for i := 0; ; i++ {
		if binary.LittleEndian.Uint64(body[8*i:])&expMask == expMask {
			return i
		}
	}
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return math.Float64bits(v)&expMask != expMask }

// checkFinite refuses a NaN or ±Inf among values a caller or a peer
// supplied, before they reach a sketch.
func checkFinite(vals []float64) error {
	for i, v := range vals {
		if !finite(v) {
			return fmt.Errorf("csoutlier: value %d is not finite (%v)", i, v)
		}
	}
	return nil
}

// readFloats copies the len(y) payload floats of a validated encoded
// sketch into y.
func readFloats(y []float64, data []byte) {
	body := data[sketchHeaderLen:]
	for i := range y {
		y[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
}
