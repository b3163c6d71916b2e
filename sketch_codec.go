package csoutlier

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"csoutlier/internal/linalg"
)

// Binary sketch wire format, for shipping sketches between processes
// without bringing a serialization framework along:
//
//	magic    [4]byte  "CSK2"
//	m        uint32
//	n        uint32
//	seed     uint64
//	ensemble uint8
//	density  uint32   (CountSketch depth; 0 for Gaussian)
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
//
// A delta of few observations has a second encoding, the observations
// themselves — the paper's "ALL" baseline for as long as it is the
// cheaper one:
//
//	magic    [4]byte  "CSKP"
//	m, n, seed, ensemble, density   as above
//	count    uvarint
//	pairs    count × (uvarint key index, float64 value), in the order observed
//	crc32    uint32 (IEEE, over everything above)
//
// The sketch is linear, so the receiver computes Σ valueᵢ·φ_indexᵢ itself,
// with Observe's arithmetic in Observe's order, and lands on the bits the
// sender's sketch would have held. Which encoding a delta gets is a
// function of the two sizes alone: pairs exactly when they are strictly
// smaller than EncodedSketchLen(m) (Updater.DrainEncoded), and a
// decoder refuses a pairs payload that is not.

var (
	sketchMagic = [4]byte{'C', 'S', 'K', '2'}
	pairsMagic  = [4]byte{'C', 'S', 'K', 'P'}
)

const sketchHeaderLen = 4 + 4 + 4 + 8 + 1 + 4
const sketchTrailerLen = 4

// MinEncodedPairsLen is the smallest delta payload either encoding
// produces for m ≥ 2: one observation of a key index below 128.
const MinEncodedPairsLen = sketchHeaderLen + 1 + (1 + 8) + sketchTrailerLen

// EncodedSketchLen returns the size in bytes of the binary encoding of
// a sketch of m measurements — what a transport needs to bound a frame
// before reading it.
func EncodedSketchLen(m int) int { return sketchHeaderLen + 8*m + sketchTrailerLen }

// PairsEncoded reports whether data is a delta in the pairs encoding,
// from its magic alone: for transports that count or convert deltas by
// encoding without decoding them.
func PairsEncoded(data []byte) bool {
	return len(data) >= len(pairsMagic) && [4]byte(data[:4]) == pairsMagic
}

// AppendBinary appends the binary encoding of s to dst and returns the
// extended slice; with cap(dst)-len(dst) ≥ EncodedSketchLen(M) it does
// not allocate.
func (s Sketch) AppendBinary(dst []byte) ([]byte, error) {
	if s.m == 0 || len(s.Y) != s.m {
		return dst, fmt.Errorf("csoutlier: cannot marshal zero-value or inconsistent sketch (m=%d, len=%d)", s.m, len(s.Y))
	}
	start, n := len(dst), EncodedSketchLen(s.m)
	dst = s.appendIdentity(slices.Grow(dst, n), sketchMagic)[:start+n]
	buf := dst[start:]
	for i, v := range s.Y {
		binary.LittleEndian.PutUint64(buf[sketchHeaderLen+8*i:], math.Float64bits(v))
	}
	sum := crc32.ChecksumIEEE(buf[:n-sketchTrailerLen])
	binary.LittleEndian.PutUint32(buf[n-sketchTrailerLen:], sum)
	return dst, nil
}

// appendIdentity appends the magic and the consensus identity: the 25
// bytes both encodings open with.
func (s Sketch) appendIdentity(dst []byte, magic [4]byte) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.m))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.n))
	dst = binary.LittleEndian.AppendUint64(dst, s.seed)
	dst = append(dst, byte(s.ens))
	return binary.LittleEndian.AppendUint32(dst, uint32(s.d))
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
// untouched when data is rejected. A pairs payload decodes to the sketch
// of its observations, measured here.
func (s *Sketcher) UnmarshalSketchInto(data []byte, dst Sketch) error {
	id := s.sketchID()
	if err := dst.compatible(id); err != nil {
		return err
	}
	if PairsEncoded(data) {
		pairs, err := s.decodePairs(data)
		if err != nil {
			return err
		}
		s.measurePairs(dst.Y, pairs)
		return nil
	}
	sk, err := decodeSketchID(data)
	if err != nil {
		return err
	}
	if err := sk.compatible(id); err != nil {
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
// Add/Sub/Detect time. A pairs payload is refused: measuring it takes
// the Sketcher's matrix (UnmarshalSketch).
func DecodeSketch(data []byte) (Sketch, error) {
	sk, err := decodeSketchID(data)
	if err != nil {
		return Sketch{}, err
	}
	sk.Y = make([]float64, sk.m)
	readFloats(sk.Y, data)
	return sk, nil
}

// decodeIdentity validates what both encodings share — minimum length,
// magic, checksum, positive dimensions — and returns the consensus
// identity (Y nil, no allocation).
func decodeIdentity(data []byte, magic [4]byte) (Sketch, error) {
	if len(data) < sketchHeaderLen+sketchTrailerLen {
		return Sketch{}, fmt.Errorf("csoutlier: sketch payload too short (%d bytes)", len(data))
	}
	if [4]byte(data[0:4]) != magic {
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
	return Sketch{m: m, n: n, seed: seed, ens: ens, d: d}, nil
}

// decodeSketchID validates an encoded sketch — length, magic, checksum,
// dimensions, finite measurements — and returns its consensus identity
// with no payload (Y nil, no allocation). After it succeeds, data holds
// exactly m finite floats at sketchHeaderLen.
func decodeSketchID(data []byte) (Sketch, error) {
	id, err := decodeIdentity(data, sketchMagic)
	if err != nil {
		return Sketch{}, err
	}
	if want := EncodedSketchLen(id.m); len(data) != want {
		return Sketch{}, fmt.Errorf("csoutlier: sketch payload is %d bytes, header says %d", len(data), want)
	}
	if i := firstNonFinite(data[sketchHeaderLen : len(data)-sketchTrailerLen]); i >= 0 {
		return Sketch{}, fmt.Errorf("csoutlier: sketch measurement %d is not finite", i)
	}
	return id, nil
}

// pairLog is count observations as the pairs encoding carries them:
// count × (uvarint key index, float64 value), in the order observed.
type pairLog struct {
	count int
	bytes []byte
}

// add appends one observation.
func (l *pairLog) add(idx int, delta float64) {
	l.bytes = binary.LittleEndian.AppendUint64(binary.AppendUvarint(l.bytes, uint64(idx)), math.Float64bits(delta))
	l.count++
}

// reset empties the log, keeping its storage.
func (l *pairLog) reset() { *l = pairLog{bytes: l.bytes[:0]} }

// nextPair reads the observation at the head of b (its value as
// Float64bits) and returns the bytes after it; ok is false when b ends
// inside it.
func nextPair(b []byte) (idx, val uint64, rest []byte, ok bool) {
	idx, n := binary.Uvarint(b)
	if n <= 0 || len(b)-n < 8 {
		return 0, 0, nil, false
	}
	return idx, binary.LittleEndian.Uint64(b[n:]), b[n+8:], true
}

// uvarintLen is the size of v as a uvarint.
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// pairsLen is the size of the pairs payload of count observations whose
// (index, value) bytes total body.
func pairsLen(count, body int) int {
	return sketchHeaderLen + uvarintLen(count) + body + sketchTrailerLen
}

// appendPairs appends the pairs payload of l under id's identity.
func (l pairLog) appendPairs(dst []byte, id Sketch) []byte {
	start := len(dst)
	dst = id.appendIdentity(slices.Grow(dst, pairsLen(l.count, len(l.bytes))), pairsMagic)
	dst = append(binary.AppendUvarint(dst, uint64(l.count)), l.bytes...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// decodePairs validates a pairs payload in full before anything is
// measured from it: identity and checksum, this Sketcher's consensus,
// the size rule (a conforming sender ships pairs only when they are
// strictly smaller than the sketch, which also bounds count), every
// index inside the key space, every value finite, no byte left over.
func (s *Sketcher) decodePairs(data []byte) (pairLog, error) {
	id, err := decodeIdentity(data, pairsMagic)
	if err != nil {
		return pairLog{}, err
	}
	if err := id.compatible(s.sketchID()); err != nil {
		return pairLog{}, err
	}
	if limit := EncodedSketchLen(id.m); len(data) >= limit {
		return pairLog{}, fmt.Errorf("csoutlier: pairs payload of %d bytes is no smaller than the %d-byte sketch", len(data), limit)
	}
	body := data[sketchHeaderLen : len(data)-sketchTrailerLen]
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return pairLog{}, fmt.Errorf("csoutlier: pairs payload has no count")
	}
	body = body[n:]
	if count > uint64(len(body))/(1+8) {
		return pairLog{}, fmt.Errorf("csoutlier: pairs payload counts %d observations in %d bytes", count, len(body))
	}
	rest := body
	for i := 0; i < int(count); i++ {
		idx, val, after, ok := nextPair(rest)
		switch {
		case !ok:
			return pairLog{}, fmt.Errorf("csoutlier: pairs payload ends inside observation %d of %d", i, count)
		case idx >= uint64(id.n):
			return pairLog{}, fmt.Errorf("csoutlier: observation %d: key index %d outside [0, %d)", i, idx, id.n)
		case val&expMask == expMask:
			return pairLog{}, fmt.Errorf("csoutlier: observation %d: value is not finite", i)
		}
		rest = after
	}
	if len(rest) != 0 {
		return pairLog{}, fmt.Errorf("csoutlier: pairs payload has %d bytes after its %d observations", len(rest), count)
	}
	return pairLog{count: int(count), bytes: body}, nil
}

// measurePairs sets y to Σ valueᵢ·φ_indexᵢ of a validated log: from
// zero, in log order, one Matrix.AddCol per observation —
// Updater.Observe's arithmetic, so y ends on the bits an Updater that
// had observed the same pairs would hold. It writes nothing but y, so
// concurrent callers need only their own y.
func (s *Sketcher) measurePairs(y linalg.Vector, l pairLog) {
	clear(y)
	for b := l.bytes; len(b) > 0; {
		j, val, rest, _ := nextPair(b)
		s.matrix.AddCol(int(j), math.Float64frombits(val), y)
		b = rest
	}
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
