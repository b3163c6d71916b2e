package csoutlier

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
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
func craftSketchBytes(m, n uint32, payloadFloats int) []byte {
	buf := make([]byte, sketchHeaderLen+8*payloadFloats+sketchTrailerLen)
	copy(buf[0:4], sketchMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], m)
	binary.LittleEndian.PutUint32(buf[8:12], n)
	binary.LittleEndian.PutUint64(buf[12:20], 9)
	sum := crc32.ChecksumIEEE(buf[:len(buf)-sketchTrailerLen])
	binary.LittleEndian.PutUint32(buf[len(buf)-sketchTrailerLen:], sum)
	return buf
}

func TestDecodeSketchRejectsZeroDimensionHeaders(t *testing.T) {
	// m=0 with a consistent (empty) payload and a valid CRC: the length
	// and checksum gates both pass, so the dimension gate must fire —
	// otherwise the decoder mints a Sketch that MarshalBinary refuses to
	// round-trip.
	for _, tc := range []struct{ m, n uint32 }{{0, 50}, {3, 0}, {0, 0}} {
		data := craftSketchBytes(tc.m, tc.n, int(tc.m))
		if _, err := DecodeSketch(data); err == nil {
			t.Fatalf("m=%d n=%d header accepted", tc.m, tc.n)
		}
	}
	// Sanity: the same crafting with positive dimensions decodes and
	// round-trips.
	data := craftSketchBytes(2, 10, 2)
	s, err := DecodeSketch(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("crafted positive-dimension sketch does not round-trip: %v", err)
	}
	if len(out) != len(data) {
		t.Fatalf("round-trip changed length: %d vs %d", len(out), len(data))
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

// Property, every ensemble: the in-place entry points —
// UnmarshalSketchInto, AddToBinary — are Float64bits-identical to the
// decode-then-operate paths they replace.
func TestEncodedOpsMatchDecodeThenOperate(t *testing.T) {
	for name, sk := range codecEnsembles(t, 9) {
		check := func(base, delta, other [24]float64) bool {
			data, err := sketchOf(sk, delta[:]).MarshalBinary()
			if err != nil {
				return false
			}
			decoded, err := sk.UnmarshalSketch(data)
			if err != nil {
				return false
			}
			into := sk.ZeroSketch()
			if err := sk.UnmarshalSketchInto(data, into); err != nil || !bitsEqual(into.Y, decoded.Y) {
				return false
			}

			add := sketchOf(sk, other[:])
			if err := decoded.Add(add); err != nil {
				return false
			}
			wantBytes, _ := decoded.MarshalBinary()
			if err := add.AddToBinary(data); err != nil {
				return false
			}
			return string(data) == string(wantBytes)
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
			// And as the sketch being added into clean bytes.
			target := append([]byte(nil), good...)
			if err := sketchOf(sk, poisoned).AddToBinary(target); err == nil {
				t.Fatalf("%s: AddToBinary added a sketch carrying %s", name, what)
			}
			if string(target) != string(good) {
				t.Fatalf("%s: AddToBinary changed its target before refusing %s", name, what)
			}
			if _, err := sk.FromPayload(poisoned); err == nil {
				t.Fatalf("%s: FromPayload accepted %s", name, what)
			}
		}
		// The pairs encoding, damaged every way a peer could damage it, each
		// under a valid checksum (but for the flipped bit).
		log := pairLog{}
		log.add(3, 1.5)
		log.add(63, -2.25)
		log.add(3, 0.125)
		id := sk.sketchID()
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
		full := pairLog{}
		for pairsLen(full.count+1, len(full.bytes)+9) < EncodedSketchLen(sk.M()) {
			full.add(full.count%64, 1)
		}
		if err := foldEncoded(ws, 0, full.appendPairs(nil, id)); err != nil {
			t.Fatalf("%s: the largest pairs payload under the sketch's size (%d observations): %v", name, full.count, err)
		}
		before, _ = ws.Window(0)
		full.add(0, 1)
		rawPairs := func(body []byte) []byte {
			b := append(id.appendIdentity(nil, pairsMagic), body...)
			return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
		}
		flippedPairs := append([]byte(nil), goodPairs...)
		flippedPairs[sketchHeaderLen+3] ^= 0x04
		for what, bad := range map[string][]byte{
			"pairs: index N":                                      pairLog{count: 1, bytes: binary.LittleEndian.AppendUint64(binary.AppendUvarint(nil, uint64(sk.N())), math.Float64bits(1))}.appendPairs(nil, id),
			"pairs: index 2^40":                                   pairLog{count: 1, bytes: binary.LittleEndian.AppendUint64(binary.AppendUvarint(nil, 1<<40), math.Float64bits(1))}.appendPairs(nil, id),
			"pairs: no smaller than CSK2":                         full.appendPairs(nil, id),
			"pairs: count over the bytes":                         pairLog{count: log.count + 1, bytes: log.bytes}.appendPairs(nil, id),
			"pairs: count 2^62":                                   pairLog{count: 1 << 62, bytes: log.bytes}.appendPairs(nil, id),
			"pairs: count under the bytes (trailing observation)": pairLog{count: log.count - 1, bytes: log.bytes}.appendPairs(nil, id),
			"pairs: trailing byte":                                pairLog{count: log.count, bytes: append(append([]byte(nil), log.bytes...), 0)}.appendPairs(nil, id),
			"pairs: value cut short":                              pairLog{count: log.count, bytes: log.bytes[:len(log.bytes)-3]}.appendPairs(nil, id),
			"pairs: varint cut short":                             pairLog{count: 2, bytes: append(append([]byte(nil), one.bytes...), 0x80)}.appendPairs(nil, id),
			"pairs: overlong varint":                              pairLog{count: 1, bytes: append(bytes.Repeat([]byte{0x80}, 10), one.bytes...)}.appendPairs(nil, id),
			"pairs: no count":                                     rawPairs(nil),
			"pairs: count cut short":                              rawPairs([]byte{0x80}),
			"pairs: NaN":                                          withValue(math.NaN()),
			"pairs: +Inf":                                         withValue(math.Inf(1)),
			"pairs: -Inf":                                         withValue(math.Inf(-1)),
			"pairs: wrong seed":                                   log.appendPairs(nil, codecEnsembles(t, 10)[name].sketchID()),
			"pairs: wrong M":                                      log.appendPairs(nil, otherM.sketchID()),
			"pairs: flipped bit":                                  flippedPairs,
			"pairs: truncated":                                    goodPairs[:len(goodPairs)-1],
		} {
			cases[what] = bad
		}
		// Good pairs are still not something a sketch can be added into, or
		// decoded without the matrix.
		target := append([]byte(nil), goodPairs...)
		if err := dst.AddToBinary(target); err == nil || string(target) != string(goodPairs) {
			t.Fatalf("%s: AddToBinary into a pairs payload: %v", name, err)
		}
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
			target := append([]byte(nil), bad...)
			if err := dst.AddToBinary(target); err == nil {
				t.Fatalf("%s: AddToBinary accepted %s", name, what)
			}
			if string(target) != string(bad) {
				t.Fatalf("%s: AddToBinary changed a rejected %s payload", name, what)
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

// The push path's codec calls allocate nothing once their buffers exist.
func TestEncodedOpsZeroAlloc(t *testing.T) {
	sk := codecEnsembles(t, 9)["gaussian"]
	s := sk.ZeroSketch()
	for i := range s.Y {
		s.Y[i] = float64(i)
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
		{"AddToBinary", func() error { return s.AddToBinary(buf) }},
	} {
		if err := op.fn(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if n := testing.AllocsPerRun(100, func() { op.fn() }); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", op.name, n)
		}
	}
}
