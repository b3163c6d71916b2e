package csoutlier

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSketchMarshalRoundTrip(t *testing.T) {
	keys := testKeys(100)
	sk, err := NewSketcher(keys, Config{M: 40, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	y, err := sk.SketchPairs(map[string]float64{keys[3]: 5, keys[50]: -math.Pi})
	if err != nil {
		t.Fatal(err)
	}
	data, err := y.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := sk.UnmarshalSketch(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y.Y {
		if y.Y[i] != back.Y[i] {
			t.Fatalf("payload differs at %d", i)
		}
	}
	// The decoded sketch must be fully usable.
	if err := back.Add(y); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Detect(back, 2); err != nil {
		t.Fatal(err)
	}
}

func TestSketchUnmarshalRejectsCorruption(t *testing.T) {
	keys := testKeys(50)
	sk, _ := NewSketcher(keys, Config{M: 16, Seed: 1})
	y, _ := sk.SketchPairs(map[string]float64{keys[0]: 1})
	data, err := y.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: checksum must catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[25] ^= 0xff
	if _, err := sk.UnmarshalSketch(corrupt); err == nil {
		t.Fatal("corrupted sketch accepted")
	}
	// Truncation.
	if _, err := sk.UnmarshalSketch(data[:10]); err == nil {
		t.Fatal("truncated sketch accepted")
	}
	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := sk.UnmarshalSketch(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Length/header mismatch (extend payload, fix checksum is hard — the
	// decoder must reject before checksum anyway on length grounds).
	long := append(append([]byte(nil), data...), 0, 0, 0, 0, 0, 0, 0, 0)
	if _, err := sk.UnmarshalSketch(long); err == nil {
		t.Fatal("over-long sketch accepted")
	}
}

func TestSketchUnmarshalRejectsWrongConsensus(t *testing.T) {
	keys := testKeys(50)
	a, _ := NewSketcher(keys, Config{M: 16, Seed: 1})
	b, _ := NewSketcher(keys, Config{M: 16, Seed: 2})
	y, _ := a.SketchPairs(map[string]float64{keys[0]: 1})
	data, err := y.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.UnmarshalSketch(data); err == nil {
		t.Fatal("sketch from a different seed accepted")
	}
	// DecodeSketch without a sketcher accepts it, but Add still refuses.
	raw, err := DecodeSketch(data)
	if err != nil {
		t.Fatal(err)
	}
	zb := b.ZeroSketch()
	if err := zb.Add(raw); err == nil {
		t.Fatal("cross-consensus Add accepted after DecodeSketch")
	}
}

func TestMarshalZeroValueSketchFails(t *testing.T) {
	var z Sketch
	if _, err := z.MarshalBinary(); err == nil {
		t.Fatal("zero-value sketch marshaled")
	}
}

// craftSketchBytes builds a wire image with arbitrary header dimensions
// and a VALID checksum — the adversarial case corruption alone (caught
// by CRC) cannot reach.
func craftSketchBytes(magic [4]byte, m, n uint32, body []byte) []byte {
	buf := append(magic[:], make([]byte, sketchHeaderLen-4)...)
	binary.LittleEndian.PutUint32(buf[4:8], m)
	binary.LittleEndian.PutUint32(buf[8:12], n)
	binary.LittleEndian.PutUint64(buf[12:20], 9)
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func TestDecodeSketchRejectsZeroDimensionHeaders(t *testing.T) {
	// m=0 with a consistent (empty) payload and a valid CRC: the length
	// and checksum gates both pass, so the dimension gate must fire —
	// otherwise the decoder mints a Sketch that MarshalBinary refuses to
	// round-trip.
	for _, magic := range [][4]byte{sketchMagic, intSketchMagic} {
		for _, tc := range []struct{ m, n uint32 }{{0, 50}, {3, 0}, {0, 0}} {
			var body []byte
			if magic == intSketchMagic {
				body = make([]byte, tc.m) // m zero varints
			} else {
				body = make([]byte, 8*tc.m)
			}
			if _, err := DecodeSketch(craftSketchBytes(magic, tc.m, tc.n, body)); err == nil {
				t.Fatalf("%s m=%d n=%d header accepted", magic, tc.m, tc.n)
			}
		}
	}
	// Sanity: the same crafting with positive dimensions decodes and
	// round-trips — in the integer form, the one a zero payload has; as
	// float64s it is refused.
	if _, err := DecodeSketch(craftSketchBytes(sketchMagic, 2, 10, make([]byte, 16))); err == nil || !strings.Contains(err.Error(), "integer counters") {
		t.Fatalf("zero counters as float64s: %v", err)
	}
	data := craftSketchBytes(intSketchMagic, 2, 10, []byte{0, 0})
	s, err := DecodeSketch(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("crafted positive-dimension sketch does not round-trip: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("round-trip changed the bytes: %x, want %x", out, data)
	}
}

// Property: every single-byte corruption and every truncation of a valid
// wire image is rejected, and whatever DOES decode re-encodes to an
// identical image (decode/encode idempotence over adversarial inputs).
func TestSketchCodecHeaderCorruptionProperty(t *testing.T) {
	keys := testKeys(30)
	sk, _ := NewSketcher(keys, Config{M: 6, Seed: 41})
	y, _ := sk.SketchPairs(map[string]float64{keys[2]: 7.5, keys[9]: -1})
	valid, err := y.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Truncations: no prefix of a valid image is a valid image.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeSketch(valid[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// Single-byte flips, every position (header, payload and trailer):
	// the CRC must catch all of them.
	for pos := 0; pos < len(valid); pos++ {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			corrupt := append([]byte(nil), valid...)
			corrupt[pos] ^= mask
			s, err := DecodeSketch(corrupt)
			if err != nil {
				continue
			}
			out, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("flip at %d decoded but does not re-encode: %v", pos, err)
			}
			if string(out) != string(corrupt) {
				t.Fatalf("flip at %d broke decode/encode idempotence", pos)
			}
		}
	}
}

// TestCountSketchCodecFrames runs the wire-frame gauntlet on the
// count-sketch backend: round-trip (with the depth identity intact and
// the decoded sketch usable by BOTH query paths), every truncation, and
// every single-byte CRC corruption.
func TestCountSketchCodecFrames(t *testing.T) {
	keys := testKeys(60)
	sk, err := NewSketcher(keys, Config{M: 20, Seed: 41, Ensemble: CountSketch, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	y, err := sk.SketchPairs(map[string]float64{keys[2]: 7.5, keys[9]: -1})
	if err != nil {
		t.Fatal(err)
	}
	valid, err := y.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := sk.UnmarshalSketch(valid)
	if err != nil {
		t.Fatal(err)
	}
	if back.ens != CountSketch || back.d != 5 {
		t.Fatalf("decoded identity ens=%d d=%d, want CountSketch depth 5", back.ens, back.d)
	}
	for i := range y.Y {
		if math.Float64bits(back.Y[i]) != math.Float64bits(y.Y[i]) {
			t.Fatalf("payload differs at %d", i)
		}
	}
	// Decoded frames feed both serving paths: BOMP recovery and the
	// recovery-free point estimator.
	if _, err := sk.Detect(back, 2); err != nil {
		t.Fatal(err)
	}
	ps, err := sk.NewPointState()
	if err != nil {
		t.Fatal(err)
	}
	copy(ps.Sketch().Y, back.Y)
	ps.Commit()
	if _, err := ps.Query(keys[2], 0); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeSketch(valid[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	for pos := 0; pos < len(valid); pos++ {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			corrupt := append([]byte(nil), valid...)
			corrupt[pos] ^= mask
			s, err := DecodeSketch(corrupt)
			if err != nil {
				continue
			}
			out, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("flip at %d decoded but does not re-encode: %v", pos, err)
			}
			if string(out) != string(corrupt) {
				t.Fatalf("flip at %d broke decode/encode idempotence", pos)
			}
		}
	}
}

// Property: marshal/unmarshal is the identity on count-sketch payloads
// too, and the depth identity survives for arbitrary depths.
func TestCountSketchCodecProperty(t *testing.T) {
	keys := testKeys(40)
	check := func(vals [12]float64, rawDepth uint8) bool {
		depth := 1 + int(rawDepth)%6
		sk, err := NewSketcher(keys, Config{M: 12, Seed: 3, Ensemble: CountSketch, Depth: depth})
		if err != nil {
			return false
		}
		y := sk.ZeroSketch()
		copy(y.Y, vals[:])
		data, err := y.MarshalBinary()
		if err != nil {
			return false
		}
		back, err := sk.UnmarshalSketch(data)
		if err != nil {
			return false
		}
		if back.d != depth || back.ens != CountSketch {
			return false
		}
		for i := range vals {
			if math.Float64bits(back.Y[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: marshal/unmarshal is the identity on payloads, including
// negative zero, infinities and subnormals.
func TestSketchCodecProperty(t *testing.T) {
	keys := testKeys(20)
	sk, _ := NewSketcher(keys, Config{M: 8, Seed: 3})
	check := func(vals [8]float64) bool {
		y := sk.ZeroSketch()
		copy(y.Y, vals[:])
		data, err := y.MarshalBinary()
		if err != nil {
			return false
		}
		back, err := sk.UnmarshalSketch(data)
		if err != nil {
			return false
		}
		for i := range vals {
			if math.Float64bits(back.Y[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// codecEnsembles is one small Sketcher per ensemble, for properties
// that must hold whatever Φ is.
func codecEnsembles(t *testing.T, seed uint64) map[string]*Sketcher {
	t.Helper()
	keys := testKeys(64)
	out := make(map[string]*Sketcher)
	for name, cfg := range map[string]Config{
		"gaussian":    {M: 24, Seed: seed},
		"countsketch": {M: 24, Seed: seed, Ensemble: CountSketch, Depth: 3},
	} {
		sk, err := NewSketcher(keys, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = sk
	}
	return out
}

func sketchOf(sk *Sketcher, vals []float64) Sketch {
	s := sk.ZeroSketch()
	copy(s.Y, vals)
	return s
}

// foldEncoded is what a push-path handler does with a delta payload:
// decode it into a scratch sketch (a pairs payload is measured there),
// then add that to the window.
func foldEncoded(ws *WindowStore, age int, data []byte) error {
	d := ws.sk.ZeroSketch()
	if err := ws.sk.UnmarshalSketchInto(data, d); err != nil {
		return err
	}
	return ws.AddSketch(age, d)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Property, every ensemble: the in-place decode, UnmarshalSketchInto,
// is Float64bits-identical to the allocating one it replaces.
func TestEncodedOpsMatchDecodeThenOperate(t *testing.T) {
	for name, sk := range codecEnsembles(t, 9) {
		check := func(delta [24]float64) bool {
			data, err := sketchOf(sk, delta[:]).MarshalBinary()
			if err != nil {
				return false
			}
			decoded, err := sk.UnmarshalSketch(data)
			if err != nil {
				return false
			}
			into := sk.ZeroSketch()
			return sk.UnmarshalSketchInto(data, into) == nil && bitsEqual(into.Y, decoded.Y)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// A payload with a flipped bit, another seed, another M or a non-finite
// measurement is rejected by every in-place entry point with its target
// bit-for-bit unchanged; so is an add into a window that would overflow.
func TestEncodedOpsRejectWithoutSideEffects(t *testing.T) {
	keys := testKeys(64)
	otherM, err := NewSketcher(keys, Config{M: 25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// A non-finite measurement is found wherever it sits (M=25 leaves one
	// float past the decoder's four-at-a-time scan).
	for pos := 0; pos < otherM.M(); pos++ {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -math.NaN()} {
			vals := make([]float64, otherM.M())
			vals[pos] = v
			data, _ := sketchOf(otherM, vals).MarshalBinary()
			if _, err := otherM.UnmarshalSketch(data); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("measurement %d ", pos)) {
				t.Fatalf("%v at measurement %d: %v", v, pos, err)
			}
		}
	}
	for name, sk := range codecEnsembles(t, 9) {
		vals := make([]float64, sk.M())
		for i := range vals {
			vals[i] = float64(i) - 7.5
		}
		good, _ := sketchOf(sk, vals).MarshalBinary()
		flipped := append([]byte(nil), good...)
		flipped[sketchHeaderLen+11] ^= 0x10
		wrongSeed, _ := sketchOf(codecEnsembles(t, 10)[name], vals).MarshalBinary()
		wrongM, _ := sketchOf(otherM, append(vals, 1)).MarshalBinary()

		ws, _ := sk.NewWindowStore(1)
		if err := foldEncoded(ws, 0, good); err != nil {
			t.Fatalf("%s: good payload: %v", name, err)
		}
		before, _ := ws.Window(0)
		dst := sketchOf(sk, vals)
		cases := map[string][]byte{"flipped bit": flipped, "wrong seed": wrongSeed, "wrong M": wrongM, "truncated": good[:len(good)-1]}
		// A payload with a valid checksum around one non-finite measurement.
		for what, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
			poisoned := append([]float64(nil), vals...)
			poisoned[len(poisoned)/2] = v
			cases[what], _ = sketchOf(sk, poisoned).MarshalBinary()
			if _, err := sk.fromPayload(poisoned); err == nil {
				t.Fatalf("%s: FromPayload accepted %s", name, what)
			}
		}
		// The pairs encoding, damaged every way a peer could damage it, each
		// under a valid checksum (but for the flipped bit).
		log := pairLog{}
		log.add(3, 1.5)
		log.add(63, -2)
		log.add(40, 1<<53)
		log.add(3, 0.125)
		id := sk.idSum
		goodPairs := log.appendPairs(nil, id)
		if err := foldEncoded(ws, 0, goodPairs); err != nil {
			t.Fatalf("%s: good pairs payload: %v", name, err)
		}
		before, _ = ws.Window(0)
		withValue := func(v float64) []byte {
			l := pairLog{}
			l.add(3, 1.5)
			l.add(7, v)
			return l.appendPairs(nil, id)
		}
		one := pairLog{}
		one.add(0, 1)
		// full is the largest pairs payload under the sketch's size, over
		// the same observations and one more.
		var full, over pairLog
		for pairsLen(over.count, len(over.bytes)) < EncodedSketchLen(sk.M()) {
			full = over
			over.bytes = slices.Clip(over.bytes)
			over.add(over.count%64, float64(1+over.count%3))
		}
		if err := foldEncoded(ws, 0, full.appendPairs(nil, id)); err != nil {
			t.Fatalf("%s: the largest pairs payload under the sketch's size (%d observations): %v", name, full.count, err)
		}
		before, _ = ws.Window(0)
		rawPairs := func(body []byte) []byte {
			b := append([]byte{pairsTag}, body...)
			return binary.LittleEndian.AppendUint32(b, crc32.Update(id, crc32.IEEETable, b))
		}
		// under is the checksum a peer seeds under sk's consensus identity
		// with one field edited.
		under := func(edit func(*Sketch)) uint32 {
			o := sk.sketchID()
			edit(&o)
			return crc32.ChecksumIEEE(o.appendIdentity(nil))
		}
		if under(func(*Sketch) {}) != id {
			t.Fatalf("%s: the pairs checksum does not start from the identity's", name)
		}
		// magicLayout is log as the layouts that carried the identity laid
		// it out, under a valid checksum: magic, the 21 bytes after it,
		// then body.
		magicLayout := func(magic string, body []byte) []byte {
			b := append(append([]byte(magic), sk.AppendIdentity(nil)[4:]...), body...)
			return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
		}
		oneAt := func(idx int, v float64) []byte {
			l := pairLog{}
			l.add(idx, v)
			return l.appendPairs(nil, id)
		}
		// tagged is one observation of key 3 with the given form bit and
		// value bytes, whatever they hold.
		tagged := func(raw uint64, value ...byte) []byte {
			return pairLog{count: 1, bytes: append(binary.AppendUvarint(nil, 3<<1|raw), value...)}.appendPairs(nil, id)
		}
		rawValue := func(v float64) []byte {
			return tagged(1, binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))...)
		}
		// One observation as the layout before varint values carried it:
		// uv index, f64 value.
		cskp := magicLayout("CSKP", binary.LittleEndian.AppendUint64([]byte{1, 3}, math.Float64bits(1.5)))
		// The observations as the layout before the tag carried them.
		cskv := magicLayout("CSKV", append(binary.AppendUvarint(nil, uint64(log.count)), log.bytes...))
		flippedPairs := append([]byte(nil), goodPairs...)
		flippedPairs[4] ^= 0x04
		for what, bad := range map[string][]byte{
			"pairs: index N":                                      oneAt(sk.N(), 1),
			"pairs: index N, raw value":                           oneAt(sk.N(), 0.5),
			"pairs: index 2^40":                                   oneAt(1<<40, 1),
			"pairs: no smaller than CSK2":                         over.appendPairs(nil, id),
			"pairs: count over the bytes":                         pairLog{count: log.count + 1, bytes: log.bytes}.appendPairs(nil, id),
			"pairs: count 2^62":                                   pairLog{count: 1 << 62, bytes: log.bytes}.appendPairs(nil, id),
			"pairs: count under the bytes (trailing observation)": pairLog{count: log.count - 1, bytes: log.bytes}.appendPairs(nil, id),
			"pairs: trailing byte":                                pairLog{count: log.count, bytes: append(append([]byte(nil), log.bytes...), 0)}.appendPairs(nil, id),
			"pairs: value cut short":                              pairLog{count: log.count, bytes: log.bytes[:len(log.bytes)-3]}.appendPairs(nil, id),
			"pairs: integer cut short":                            tagged(0, 0x80),
			"pairs: varint cut short":                             pairLog{count: 2, bytes: append(append([]byte(nil), one.bytes...), 0x80, 0x80)}.appendPairs(nil, id),
			"pairs: overlong varint":                              pairLog{count: 1, bytes: append(bytes.Repeat([]byte{0x80}, 10), one.bytes...)}.appendPairs(nil, id),
			"pairs: non-minimal index":                            pairLog{count: 1, bytes: []byte{3<<1 | 0x80, 0x00, 0x02}}.appendPairs(nil, id),
			"pairs: non-minimal value":                            tagged(0, 0x82, 0x00),
			"pairs: non-minimal count":                            rawPairs(append([]byte{0x81, 0x00}, one.bytes...)),
			"pairs: integer 2^53+1":                               tagged(0, binary.AppendVarint(nil, 1<<53+1)...),
			"pairs: integer -2^53-1":                              tagged(0, binary.AppendVarint(nil, -1<<53-1)...),
			"pairs: integer 2^63-1":                               tagged(0, binary.AppendVarint(nil, math.MaxInt64)...),
			"pairs: raw-tagged 2":                                 rawValue(2),
			"pairs: raw-tagged 0":                                 rawValue(0),
			"pairs: raw-tagged -2^53":                             rawValue(-1 << 53),
			"pairs: no count":                                     rawPairs(nil),
			"pairs: count cut short":                              rawPairs([]byte{0x80}),
			"pairs: NaN":                                          withValue(math.NaN()),
			"pairs: +Inf":                                         withValue(math.Inf(1)),
			"pairs: -Inf":                                         withValue(math.Inf(-1)),
			"pairs: the CSKP layout":                              cskp,
			"pairs: the CSKV layout":                              cskv,
			"pairs: wrong seed":                                   log.appendPairs(nil, codecEnsembles(t, 10)[name].idSum),
			"pairs: wrong M":                                      log.appendPairs(nil, otherM.idSum),
			"pairs: another M":                                    log.appendPairs(nil, under(func(o *Sketch) { o.m++ })),
			"pairs: another N":                                    log.appendPairs(nil, under(func(o *Sketch) { o.n-- })),
			"pairs: another ensemble":                             log.appendPairs(nil, under(func(o *Sketch) { o.ens ^= CountSketch })),
			"pairs: another depth":                                log.appendPairs(nil, under(func(o *Sketch) { o.d++ })),
			"pairs: a seed differing in its low 32 bits":          log.appendPairs(nil, under(func(o *Sketch) { o.seed ^= 1 << 31 })),
			"pairs: a seed differing in its high 32 bits":         log.appendPairs(nil, under(func(o *Sketch) { o.seed ^= 1 << 32 })),
			"pairs: flipped bit":                                  flippedPairs,
			"pairs: truncated":                                    goodPairs[:len(goodPairs)-1],
		} {
			cases[what] = bad
		}
		// The forms the encoder does write decode: −0 and 2^53+2 raw, ±2^53
		// as integers.
		for _, v := range []float64{math.Copysign(0, -1), 1<<53 + 2, -1<<53 - 2, 1 << 53, -1 << 53} {
			if err := sk.UnmarshalSketchInto(oneAt(5, v), sketchOf(sk, nil)); err != nil {
				t.Fatalf("%s: one observation of %v: %v", name, v, err)
			}
		}
		// Good pairs are still not something to decode without the matrix.
		if _, err := DecodeSketch(goodPairs); err == nil {
			t.Fatalf("%s: DecodeSketch measured a pairs payload without a Sketcher", name)
		}
		for what, bad := range cases {
			if err := sk.UnmarshalSketchInto(bad, dst); err == nil {
				t.Fatalf("%s: UnmarshalSketchInto accepted %s", name, what)
			}
			if _, err := sk.UnmarshalSketch(bad); err == nil {
				t.Fatalf("%s: UnmarshalSketch accepted %s", name, what)
			}
		}
		if err := foldEncoded(ws, 1, good); err == nil {
			t.Fatalf("%s: AddSketch accepted an age outside the ring", name)
		}
		// A finite delta whose sum with the window overflows, either sign.
		for _, huge := range []float64{math.MaxFloat64, -math.MaxFloat64} {
			big := sketchOf(sk, make([]float64, sk.M()))
			big.Y[sk.M()-1] = huge
			full, _ := sk.NewWindowStore(1)
			if err := full.AddSketch(0, big); err != nil {
				t.Fatalf("%s: AddSketch refused a finite sum: %v", name, err)
			}
			if err := full.AddSketch(0, big); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("measurement %d would be", sk.M()-1)) {
				t.Fatalf("%s: AddSketch of a second %v: %v, want the overflow refused", name, huge, err)
			}
			if w, _ := full.Window(0); !bitsEqual(w.Y, big.Y) {
				t.Fatalf("%s: a refused overflow changed the window", name)
			}
			// Sketch.Add and Sub hold the same rule: refused, s unchanged.
			acc, neg := sketchOf(sk, big.Y), sketchOf(sk, nil)
			neg.Y[sk.M()-1] = -huge
			for op, err := range map[string]error{"Add": acc.Add(big), "Sub": acc.Sub(neg)} {
				if err == nil || !bitsEqual(acc.Y, big.Y) {
					t.Fatalf("%s: Sketch.%s past %v: %v, want it refused with the sketch unchanged", name, op, huge, err)
				}
			}
		}
		after, _ := ws.Window(0)
		if !bitsEqual(after.Y, before.Y) {
			t.Fatalf("%s: a rejected payload changed the window", name)
		}
		if !bitsEqual(dst.Y, vals) {
			t.Fatalf("%s: a rejected payload changed UnmarshalSketchInto's destination", name)
		}
	}
}

// TestSketchForm: a sketch travels in the integer form exactly when
// every counter is an integer of magnitude at most 2^53 other than −0,
// the test a pair's value passes to travel as a varint; it round-trips
// bit for bit either way, and the integer form is never the larger.
func TestSketchForm(t *testing.T) {
	keys := testKeys(64)
	ens := codecEnsembles(t, 9)
	csk, gauss := ens["countsketch"], ens["gaussian"]
	counts := map[string]float64{keys[3]: 5, keys[9]: -120, keys[40]: 1 << 40}
	ints, err := csk.SketchPairs(counts)
	if err != nil {
		t.Fatal(err)
	}
	gaussian, err := gauss.SketchPairs(counts)
	if err != nil {
		t.Fatal(err)
	}
	with := func(v float64) Sketch {
		s := sketchOf(csk, ints.Y)
		s.Y[7] = v
		return s
	}
	for _, c := range []struct {
		name  string
		s     Sketch
		magic [4]byte
	}{
		{"count-sketch of integer data", ints, intSketchMagic},
		{"gaussian of integer data", gaussian, sketchMagic},
		{"all zero", gauss.ZeroSketch(), intSketchMagic},
		{"one −2^53 counter", with(-1 << 53), intSketchMagic},
		{"one −0 counter", with(math.Copysign(0, -1)), sketchMagic},
		{"one 2^53+2 counter", with(1<<53 + 2), sketchMagic},
		{"one 0.5 counter", with(0.5), sketchMagic},
	} {
		data, err := c.s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if [4]byte(data) != c.magic {
			t.Errorf("%s: encoded as %q, want %q", c.name, data[:4], c.magic[:])
		}
		if n := EncodedSketchLen(c.s.m); len(data) > n || (c.magic == sketchMagic) != (len(data) == n) {
			t.Errorf("%s: %d bytes against EncodedSketchLen %d", c.name, len(data), n)
		}
		back, err := DecodeSketch(data)
		if err != nil || !bitsEqual(back.Y, c.s.Y) {
			t.Errorf("%s: round trip: %v", c.name, err)
		}
	}
	// The count-sketch of integer data ships its counters as varints.
	data, _ := ints.MarshalBinary()
	want := sketchHeaderLen + sketchTrailerLen
	for _, v := range ints.Y {
		want += len(binary.AppendVarint(nil, int64(v)))
	}
	if len(data) != want {
		t.Errorf("integer form is %d bytes, want %d", len(data), want)
	}
}

// TestSketchFormRefusals: a payload in the wrong form, or an integer
// form whose varints are not as the encoder writes them, is refused
// under a valid checksum.
func TestSketchFormRefusals(t *testing.T) {
	sk := codecEnsembles(t, 9)["countsketch"]
	layout := func(magic [4]byte, body ...byte) []byte {
		b := append(append(magic[:], sk.AppendIdentity(nil)[4:]...), body...)
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	var counters, floats []byte // counter i is i−7
	for i := 0; i < sk.M(); i++ {
		counters = binary.AppendVarint(counters, int64(i-7))
		floats = binary.LittleEndian.AppendUint64(floats, math.Float64bits(float64(i-7)))
	}
	if _, err := DecodeSketch(layout(intSketchMagic, counters...)); err != nil {
		t.Fatalf("the integer form: %v", err)
	}
	for name, c := range map[string]struct {
		data []byte
		want string
	}{
		"integer counters as float64s": {layout(sketchMagic, floats...), "integer counters sent as float64s"},
		"a counter short":              {layout(intSketchMagic, counters[:len(counters)-1]...), "cut short"},
		"a varint cut short":           {layout(intSketchMagic, append(slices.Clone(counters[:len(counters)-1]), 0x80)...), "cut short"},
		"a non-minimal varint":         {layout(intSketchMagic, append([]byte{0x8d, 0x00}, counters[1:]...)...), "not minimal"},
		"a counter past 2^53":          {layout(intSketchMagic, append(binary.AppendVarint(nil, 1<<53+1), counters[1:]...)...), "past ±2^53"},
		"a trailing byte":              {layout(intSketchMagic, append(slices.Clone(counters), 0)...), "1 bytes after its 24 counters"},
	} {
		if _, err := DecodeSketch(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", name, err, c.want)
		}
		if err := sk.UnmarshalSketchInto(c.data, sk.ZeroSketch()); err == nil {
			t.Errorf("%s: UnmarshalSketchInto accepted it", name)
		}
	}
}

// TestPairLengths pins what one observation costs in a pairs payload.
// An integer up to ±2^53 is a zigzag varint (a count takes 1–3 bytes,
// 2^53 eight). Any other value is the 8-byte float64 every value was
// before, and its pair grows by one byte only where the tag bit
// lengthens the index's varint: indices [64, 128) and [8192, 16384).
func TestPairLengths(t *testing.T) {
	for _, c := range []struct {
		idx  int
		v    float64
		want int
	}{
		{0, 1, 2}, {63, 63, 2}, {63, -64, 2}, {63, 64, 3}, {64, 1, 3},
		{3, 8191, 3}, {3, -8192, 3}, {3, 8192, 4}, {3, 1<<20 - 1, 4}, {3, 1 << 20, 5},
		{0, 1 << 53, 9}, {0, -1 << 53, 9},
		{0, 0.5, 9}, {63, 0.5, 9}, {64, 0.5, 10}, {127, 0.5, 10}, {128, 0.5, 10},
		{8191, 0.5, 10}, {8192, 0.5, 11}, {16383, 0.5, 11}, {16384, 0.5, 11},
		{0, 1<<53 + 2, 9}, {0, math.Copysign(0, -1), 9}, {0, -1e300, 9},
	} {
		var l pairLog
		l.add(c.idx, c.v)
		if len(l.bytes) != c.want {
			t.Errorf("observation (%d, %v) takes %d bytes, want %d", c.idx, c.v, len(l.bytes), c.want)
		}
	}
}

// The push path's codec calls allocate nothing once their buffers
// exist, in either sketch form.
func TestEncodedOpsZeroAlloc(t *testing.T) {
	sk := codecEnsembles(t, 9)["gaussian"]
	for _, frac := range []float64{0, 0.5} {
		s := sk.ZeroSketch()
		for i := range s.Y {
			s.Y[i] = float64(i) + frac
		}
		buf := make([]byte, 0, EncodedSketchLen(sk.M()))
		ws, _ := sk.NewWindowStore(1)
		dst := sk.ZeroSketch()
		for _, op := range []struct {
			name string
			fn   func() error
		}{
			{"AppendBinary", func() (err error) { buf, err = s.AppendBinary(buf[:0]); return }},
			{"UnmarshalSketchInto", func() error { return sk.UnmarshalSketchInto(buf, dst) }},
			{"AddSketch", func() error { return ws.AddSketch(0, dst) }},
		} {
			if err := op.fn(); err != nil {
				t.Fatalf("%q: %s: %v", buf[:4], op.name, err)
			}
			if n := testing.AllocsPerRun(100, func() { op.fn() }); n != 0 {
				t.Errorf("%q: %s: %v allocs per call, want 0", buf[:4], op.name, n)
			}
		}
	}
}
