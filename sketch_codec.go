package csoutlier

import (
	"bytes"
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
//	magic    [4]byte  "CSKI" or "CSK2"
//	m        uint32
//	n        uint32
//	seed     uint64
//	ensemble uint8
//	density  uint32   (CountSketch depth; 0 for Gaussian)
//	payload  CSKI: m × minimal zigzag varint; CSK2: m × float64 (little endian)
//	crc32    uint32 (IEEE, over everything above)
//
// A sketch has one form: CSKI when every counter passes pairInt (a
// count-sketch of integer data, an all-zero sketch), CSK2 otherwise; a
// decoder refuses a CSK2 payload that CSKI would carry, so a payload that
// decodes re-encodes to the same bytes.
//
// The full consensus identity travels with the payload so the receiver
// can verify sketch compatibility before summing — a mismatched seed or
// ensemble silently corrupting an aggregation is the protocol's worst
// failure mode. The second worst is a non-finite measurement: sums are
// linear, so one NaN or ±Inf makes every span over the window it was
// folded into unanswerable for the window's ring lifetime. Every
// decoder below therefore refuses a payload that carries one, and the
// entry points that take floats from the caller (fromPayload,
// SketchPairs, SketchVector, Observe) refuse them too.
//
// A delta of few observations has a second encoding, the observations
// themselves — the paper's "ALL" baseline for as long as it is the
// cheaper one:
//
//	tag      uint8    'P' (a sketch payload starts with 'C')
//	count    uvarint
//	pairs    count × observation, in the order observed
//	crc32    uint32 (IEEE, over the 25-byte consensus identity, then everything above)
//
// An observation is uvarint(index<<1 | raw), then its value: raw = 0,
// a zigzag varint, for an integer of magnitude at most 2^53 other than
// −0 (a click-log count costs 1–3 bytes); raw = 1, the little-endian
// float64, for every other value. Each value has exactly one form, and
// every varint is minimal, so a payload that decodes re-encodes to the
// same bytes.
//
// A pairs payload does not carry the consensus identity: the consensus
// is fixed for a deployment (§3.1), so a push connection names it once,
// in its hello (internal/stream), and only a Sketcher, which holds it,
// measures pairs. The checksum still covers it: it runs over the
// identity — the 25 bytes a sketch payload opens with
// (Sketcher.AppendIdentity) — and then the payload, so a payload encoded
// under another consensus fails it. It fails with certainty when the
// two identities differ within 32 consecutive bits (M, N, the ensemble
// or the depth alone, or a seed in only its low or only its high
// word), and otherwise with probability 1 − 2⁻³².
//
// The sketch is linear, so the receiver computes Σ valueᵢ·φ_indexᵢ itself,
// with Observe's arithmetic in Observe's order, and lands on the bits the
// sender's sketch would have held. Which encoding a delta gets is a
// function of the log alone: pairs exactly when they are strictly
// smaller than pairLog.limit, EncodedSketchLen(m) or, for a count-sketch
// of integers, a bound on the CSKI sketch (Updater.DrainEncoded), and a
// decoder refuses a pairs payload no smaller than EncodedSketchLen(m).

// sketchMagic opens a CSK2 sketch, intSketchMagic a CSKI one.
var sketchMagic, intSketchMagic = [4]byte{'C', 'S', 'K', '2'}, [4]byte{'C', 'S', 'K', 'I'}

// pairsTag is a pairs payload's first byte.
const pairsTag = 'P'

const sketchHeaderLen = 4 + 4 + 4 + 8 + 1 + 4
const sketchTrailerLen = 4

// IdentityLen is the size of the consensus identity
// (Sketcher.AppendIdentity).
const IdentityLen = sketchHeaderLen

// MinEncodedPairsLen is the smallest delta payload either encoding
// produces: one observation of a key index below 64 and an integer
// value of magnitude below 64.
const MinEncodedPairsLen = 1 + 1 + (1 + 1) + sketchTrailerLen

// maxPairLen is the largest observation add writes: a 64-bit tag and a
// raw float64.
const maxPairLen = binary.MaxVarintLen64 + 8

// EncodedSketchLen returns the size in bytes of a CSK2 sketch of m
// measurements, which bounds a CSKI one (a counter's varint is at most 8
// bytes): what a transport needs to bound a frame before reading it.
func EncodedSketchLen(m int) int { return sketchHeaderLen + 8*m + sketchTrailerLen }

// PairsEncoded reports whether data is a delta in the pairs encoding,
// from its tag alone: for transports that count or convert deltas by
// encoding without decoding them.
func PairsEncoded(data []byte) bool { return len(data) > 0 && data[0] == pairsTag }

// AppendBinary appends the binary encoding of s to dst and returns the
// extended slice; with cap(dst)-len(dst) ≥ EncodedSketchLen(M) it does
// not allocate.
func (s Sketch) AppendBinary(dst []byte) ([]byte, error) {
	if s.m == 0 || len(s.Y) != s.m {
		return dst, fmt.Errorf("csoutlier: cannot marshal zero-value or inconsistent sketch (m=%d, len=%d)", s.m, len(s.Y))
	}
	start := len(dst)
	dst = s.appendIdentity(slices.Grow(dst, EncodedSketchLen(s.m)))
	if intCounters(s.Y) {
		copy(dst[start:], intSketchMagic[:])
		for _, v := range s.Y {
			dst = binary.AppendVarint(dst, int64(v))
		}
	} else {
		for _, v := range s.Y {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// intCounters reports whether y travels in the CSKI form.
func intCounters(y []float64) bool {
	for _, v := range y {
		if _, ok := pairInt(v); !ok {
			return false
		}
	}
	return true
}

// appendIdentity appends the magic and the consensus identity: the 25
// bytes a sketch payload opens with.
func (s Sketch) appendIdentity(dst []byte) []byte {
	dst = append(dst, sketchMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.m))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.n))
	dst = binary.LittleEndian.AppendUint64(dst, s.seed)
	dst = append(dst, byte(s.ens))
	return binary.LittleEndian.AppendUint32(dst, uint32(s.d))
}

// AppendIdentity appends the Sketcher's consensus identity to dst: the
// IdentityLen bytes a sketch payload opens with, which a push node names
// in its hello and a pairs payload's checksum covers.
func (s *Sketcher) AppendIdentity(dst []byte) []byte { return s.sketchID().appendIdentity(dst) }

// CheckIdentity refuses an identity (AppendIdentity's bytes) that a
// peer named if it is not this Sketcher's, naming both.
func (s *Sketcher) CheckIdentity(id []byte) error {
	var own [IdentityLen]byte
	if bytes.Equal(id, s.AppendIdentity(own[:0])) {
		return nil
	}
	if len(id) != IdentityLen || [4]byte(id) != sketchMagic {
		return fmt.Errorf("csoutlier: %q is not a consensus identity", id)
	}
	return fmt.Errorf("csoutlier: named consensus %s differs from the receiver's %s", identityOf(id).consensus(), s.sketchID().consensus())
}

// consensus names the identity of s.
func (s Sketch) consensus() string {
	return fmt.Sprintf("{M=%d N=%d seed=%d ensemble=%v D=%d}", s.m, s.n, s.seed, s.ens, s.d)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s Sketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// UnmarshalSketch decodes a sketch produced by MarshalBinary and
// verifies both its integrity (checksum) and its compatibility with
// this Sketcher's consensus parameters.
func (s *Sketcher) UnmarshalSketch(data []byte) (Sketch, error) {
	out := s.ZeroSketch()
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
	readCounters(dst.Y, data)
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
	readCounters(sk.Y, data)
	return sk, nil
}

// identityOf reads the consensus identity after the magic of the
// IdentityLen bytes at the head of data (Y nil).
func identityOf(data []byte) Sketch {
	return Sketch{
		m:    int(binary.LittleEndian.Uint32(data[4:8])),
		n:    int(binary.LittleEndian.Uint32(data[8:12])),
		seed: binary.LittleEndian.Uint64(data[12:20]),
		ens:  Ensemble(data[20]),
		d:    int(binary.LittleEndian.Uint32(data[21:25])),
	}
}

// decodeSketchID validates an encoded sketch — length, magic, checksum,
// dimensions, its counters' one form, finite measurements — and returns
// its consensus identity with no payload (Y nil, no allocation). After
// it succeeds, data holds exactly m counters for readCounters.
func decodeSketchID(data []byte) (Sketch, error) {
	if len(data) < sketchHeaderLen+sketchTrailerLen {
		return Sketch{}, fmt.Errorf("csoutlier: sketch payload too short (%d bytes)", len(data))
	}
	magic := [4]byte(data[0:4])
	if magic != sketchMagic && magic != intSketchMagic {
		return Sketch{}, fmt.Errorf("csoutlier: bad sketch magic %q", data[0:4])
	}
	wantSum := binary.LittleEndian.Uint32(data[len(data)-sketchTrailerLen:])
	if got := crc32.ChecksumIEEE(data[:len(data)-sketchTrailerLen]); got != wantSum {
		return Sketch{}, fmt.Errorf("csoutlier: sketch checksum mismatch (corrupted in transit?)")
	}
	id := identityOf(data)
	// A zero-dimension header can carry a valid checksum (an m=0 payload
	// is just header+trailer), but would decode into a Sketch that
	// MarshalBinary refuses to round-trip and Add/Detect cannot use.
	if id.m <= 0 || id.n <= 0 {
		return Sketch{}, fmt.Errorf("csoutlier: sketch header has non-positive dimensions (m=%d, n=%d)", id.m, id.n)
	}
	body := data[sketchHeaderLen : len(data)-sketchTrailerLen]
	if magic == intSketchMagic {
		for i := 0; i < id.m; i++ {
			_, n, defect := intVarint(body)
			if defect != "" {
				return Sketch{}, fmt.Errorf("csoutlier: sketch counter %d of %d: %s", i, id.m, defect)
			}
			body = body[n:]
		}
		if len(body) != 0 {
			return Sketch{}, fmt.Errorf("csoutlier: sketch payload has %d bytes after its %d counters", len(body), id.m)
		}
		return id, nil
	}
	if want := EncodedSketchLen(id.m); len(data) != want {
		return Sketch{}, fmt.Errorf("csoutlier: sketch payload is %d bytes, header says %d", len(data), want)
	}
	i, ints := firstNonFinite(body)
	if i >= 0 {
		return Sketch{}, fmt.Errorf("csoutlier: sketch measurement %d is not finite", i)
	}
	if ints {
		return Sketch{}, fmt.Errorf("csoutlier: sketch of integer counters sent as float64s")
	}
	return id, nil
}

// pairLog is count observations as the pairs encoding carries them,
// in the order observed.
type pairLog struct {
	count int
	bytes []byte
	// abs is Σ|v| over the logged values, capped at 2^53+1, which one
	// value that travels raw sets outright: past 2^53 it bounds nothing.
	abs uint64
}

// maxExactInt is the largest magnitude a pair's integer value may have:
// every integer up to it is a float64 exactly.
const maxExactInt = 1 << 53

// pairInt reports whether v travels as a varint, and as which integer.
func pairInt(v float64) (int64, bool) {
	if v != math.Trunc(v) || math.Abs(v) > maxExactInt || math.Float64bits(v) == 1<<63 {
		return 0, false // not an integer (NaN among them), too large, or −0
	}
	return int64(v), true
}

// add appends one observation.
func (l *pairLog) add(idx int, v float64) {
	if i, ok := pairInt(v); ok {
		l.bytes = binary.AppendVarint(binary.AppendUvarint(l.bytes, uint64(idx)<<1), i)
		l.abs = min(l.abs+uint64(max(i, -i)), maxExactInt+1)
	} else {
		l.bytes = binary.LittleEndian.AppendUint64(binary.AppendUvarint(l.bytes, uint64(idx)<<1|1), math.Float64bits(v))
		l.abs = maxExactInt + 1
	}
	l.count++
}

// limit is the size l's pairs payload must stay under to travel as
// pairs under sk: the CSK2 sketch's (EncodedSketchLen(M)), or, on a
// count-sketch, where each counter is a ±1-weighted sum of the logged
// values, while those are integers with Σ|v| ≤ 2^53, a bound on the
// CSKI sketch's: every counter is then an integer of magnitude at most
// Σ|v|, so none takes more varint bytes than zigzag(Σ|v|).
func (l *pairLog) limit(sk *Sketcher) int {
	m := sk.spec.M
	if sk.spec.Kind != CountSketch || l.abs > maxExactInt {
		return EncodedSketchLen(m)
	}
	return sketchHeaderLen + m*uvarintLen(2*l.abs) + sketchTrailerLen
}

// reset empties the log, keeping its storage.
func (l *pairLog) reset() { *l = pairLog{bytes: l.bytes[:0]} }

// nextPair reads the observation at the head of b and returns the bytes
// after it. defect is empty, or says why b does not start with an
// observation as add writes it; an index outside the key space is the
// caller's to check.
func nextPair(b []byte) (idx uint64, v float64, rest []byte, defect string) {
	tag, n := uvarint(b)
	if n <= 0 {
		return 0, 0, nil, "key index cut short or not minimal"
	}
	idx, b = tag>>1, b[n:]
	if tag&1 == 0 {
		v, n, defect := intVarint(b)
		if defect != "" {
			return 0, 0, nil, defect
		}
		return idx, v, b[n:], ""
	}
	if len(b) < 8 {
		return 0, 0, nil, "raw value cut short"
	}
	v = math.Float64frombits(binary.LittleEndian.Uint64(b))
	if !finite(v) {
		return 0, 0, nil, "value is not finite"
	}
	if _, ok := pairInt(v); ok {
		return 0, 0, nil, "integer value sent raw"
	}
	return idx, v, b[8:], ""
}

// intVarint reads the zigzag varint of a pairInt integer at the head of
// b; defect is empty, or says why b does not start with one.
func intVarint(b []byte) (v float64, n int, defect string) {
	z, n := uvarint(b)
	if n <= 0 {
		return 0, 0, "integer value cut short or not minimal"
	}
	i := int64(z >> 1)
	if z&1 != 0 {
		i = ^i
	}
	if i < -maxExactInt || i > maxExactInt {
		return 0, 0, "integer value past ±2^53"
	}
	return float64(i), n, ""
}

// uvarint is binary.Uvarint refusing, as n = -1, a varint longer than
// its value needs.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -1
	}
	return v, n
}

// uvarintLen is the size of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// pairsLen is the size of the pairs payload of count observations whose
// bytes total body.
func pairsLen(count, body int) int {
	return 1 + uvarintLen(uint64(count)) + body + sketchTrailerLen
}

// appendPairs appends the pairs payload of l under the consensus whose
// identity's CRC-32 is idSum (Sketcher.idSum).
func (l pairLog) appendPairs(dst []byte, idSum uint32) []byte {
	start := len(dst)
	dst = append(slices.Grow(dst, pairsLen(l.count, len(l.bytes))), pairsTag)
	dst = append(binary.AppendUvarint(dst, uint64(l.count)), l.bytes...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Update(idSum, crc32.IEEETable, dst[start:]))
}

// decodePairs validates a pairs payload in full before anything is
// measured from it: tag, the size rule (a conforming sender ships pairs
// only when they are strictly smaller than the sketch, which also
// bounds count), the checksum over this Sketcher's identity and the
// payload, every observation in add's one form, every index inside the
// key space, no byte left over.
func (s *Sketcher) decodePairs(data []byte) (pairLog, error) {
	if len(data) < 1+1+sketchTrailerLen {
		return pairLog{}, fmt.Errorf("csoutlier: pairs payload too short (%d bytes)", len(data))
	}
	if data[0] != pairsTag {
		return pairLog{}, fmt.Errorf("csoutlier: bad pairs tag %q", data[0])
	}
	if limit := EncodedSketchLen(s.spec.M); len(data) >= limit {
		return pairLog{}, fmt.Errorf("csoutlier: pairs payload of %d bytes is no smaller than the %d-byte sketch", len(data), limit)
	}
	wantSum := binary.LittleEndian.Uint32(data[len(data)-sketchTrailerLen:])
	if got := crc32.Update(s.idSum, crc32.IEEETable, data[:len(data)-sketchTrailerLen]); got != wantSum {
		return pairLog{}, fmt.Errorf("csoutlier: pairs checksum mismatch (corrupted in transit, or encoded under another consensus)")
	}
	body := data[1 : len(data)-sketchTrailerLen]
	count, n := uvarint(body)
	if n <= 0 {
		return pairLog{}, fmt.Errorf("csoutlier: pairs payload count cut short or not minimal")
	}
	body = body[n:]
	if count > uint64(len(body))/2 {
		return pairLog{}, fmt.Errorf("csoutlier: pairs payload counts %d observations in %d bytes", count, len(body))
	}
	rest := body
	for i := 0; i < int(count); i++ {
		idx, _, after, defect := nextPair(rest)
		switch {
		case defect != "":
			return pairLog{}, fmt.Errorf("csoutlier: observation %d of %d: %s", i, count, defect)
		case idx >= uint64(s.spec.N):
			return pairLog{}, fmt.Errorf("csoutlier: observation %d: key index %d outside [0, %d)", i, idx, s.spec.N)
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
		j, v, rest, _ := nextPair(b)
		s.matrix.AddCol(int(j), v, y)
		b = rest
	}
}

// expMask is a float64's exponent bits; NaN and ±Inf are exactly the
// values with all of them set.
const expMask = 0x7ff << 52

// firstNonFinite returns the index of the first NaN or ±Inf among the
// little-endian float64s of body, or -1, and whether all pass pairInt.
// One pass: integers are finite, so the finiteness scan starts at the
// first counter that is not (a Gaussian sketch's first). The push path
// runs it over every frame before folding, so the all-finite case is
// branch-free: (bits&expMask)+1<<52 carries into the sign bit exactly
// when every exponent bit is set, and OR-ing that over the body, four
// floats a step, costs about what the checksum pass does.
func firstNonFinite(body []byte) (int, bool) {
	start := 0
	for ; start < len(body); start += 8 {
		if _, ok := pairInt(math.Float64frombits(binary.LittleEndian.Uint64(body[start:]))); !ok {
			break
		}
	}
	if start == len(body) {
		return -1, true
	}
	const carry = 1 << 52
	var acc uint64
	b := body[start:]
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
		return -1, false
	}
	for i := start / 8; ; i++ {
		if binary.LittleEndian.Uint64(body[8*i:])&expMask == expMask {
			return i, false
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

// readCounters copies the len(y) counters of a validated encoded sketch
// into y, float64s four at a time (half of a Gaussian frame's decode).
func readCounters(y []float64, data []byte) {
	b := data[sketchHeaderLen:]
	if data[3] == intSketchMagic[3] {
		for i := range y {
			v, n, _ := intVarint(b)
			y[i], b = v, b[n:]
		}
		return
	}
	for len(y) >= 4 && len(b) >= 32 {
		y[0] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		y[1] = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		y[2] = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
		y[3] = math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
		y, b = y[4:], b[32:]
	}
	for i := range y {
		y[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
