package csoutlier

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"csoutlier/internal/cluster"
	"csoutlier/internal/keydict"
	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// Fuzz targets for the decoders that consume bytes from the
// network/disk: the sketch codec, the key-dictionary reader and the
// cluster transport's frame loop. They run as regression tests over the
// seed corpus under plain `go test`, and explore further with
// `go test -fuzz`.

func FuzzDecodeSketch(f *testing.F) {
	// Seed with a valid sketch and a few mutations.
	sk, err := NewSketcher([]string{"a", "b", "c", "d"}, Config{M: 3, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	y, err := sk.SketchPairs(map[string]float64{"b": 2.5})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := y.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("CSK2"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	truncated := append([]byte(nil), valid[:len(valid)-3]...)
	f.Add(truncated)
	// A count-sketch frame: same format, non-zero ensemble and depth
	// bytes, so the fuzzer starts from the new backend's header shape too.
	csk, err := NewSketcher([]string{"a", "b", "c", "d"}, Config{M: 4, Seed: 5, Ensemble: CountSketch, Depth: 2})
	if err != nil {
		f.Fatal(err)
	}
	ycsk, err := csk.SketchPairs(map[string]float64{"b": 2.5})
	if err != nil {
		f.Fatal(err)
	}
	validCsk, err := ycsk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validCsk)
	f.Add(validCsk[:len(validCsk)-5])
	// The pairs encoding of the same observation, whole and damaged: a
	// NaN value, an index past N, a count past the bytes, a cut tail.
	pairs := func(count int, obs ...obsPair) []byte {
		l := pairLog{}
		for _, o := range obs {
			l.add(o.idx, o.v)
		}
		l.count = count
		return l.appendPairs(nil, sk.sketchID())
	}
	validPairs := pairs(1, obsPair{1, 2.5})
	f.Add(validPairs)
	f.Add(validPairs[:len(validPairs)-3])
	f.Add([]byte("CSKP"))
	f.Add(pairs(2, obsPair{1, 2.5}, obsPair{3, -1}))
	f.Add(pairs(1, obsPair{1, math.NaN()}))
	f.Add(pairs(1, obsPair{4, 2.5}))
	f.Add(pairs(3, obsPair{1, 2.5}))
	f.Add(pairs(3, obsPair{0, 1}, obsPair{1, 1}, obsPair{2, 1})) // no smaller than the sketch

	f.Fuzz(func(t *testing.T, data []byte) {
		// With the matrix at hand either encoding decodes, and whatever
		// decodes is finite and, as pairs, was smaller than the sketch.
		if s, err := sk.UnmarshalSketch(data); err == nil {
			for i, v := range s.Y {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("measurement %d = %v", i, v)
				}
			}
			if PairsEncoded(data) && len(data) >= EncodedSketchLen(sk.M()) {
				t.Fatalf("a %d-byte pairs payload decoded, the sketch is %d", len(data), EncodedSketchLen(sk.M()))
			}
		}
		s, err := DecodeSketch(data) // must never panic
		if err != nil {
			return
		}
		if PairsEncoded(data) {
			t.Fatal("DecodeSketch measured a pairs payload without a matrix")
		}
		// Anything that decodes is finite: one NaN or ±Inf summed into a
		// window would outlive the frame that carried it.
		for i, v := range s.Y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("decoded measurement %d = %v", i, v)
			}
		}
		// Anything that decodes must re-encode to an identical payload.
		out, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded sketch failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not idempotent:\n in  %x\n out %x", data, out)
		}
	})
}

func FuzzClusterFrameDecoder(f *testing.F) {
	// The exact bytes an attacker (or a corrupted peer) can put on a node's
	// listening socket. Seeds: a well-formed sketch request, the chaos
	// server's garbage frame (the PR-1 corruption corpus), truncations,
	// concatenations, and raw noise.
	spec := sensing.Spec{Params: sensing.Params{M: 4, N: 8, Seed: 9}, Kind: sensing.KindGaussian}
	valid, err := cluster.SketchRequestFrame(spec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), valid...)) // two requests back to back
	f.Add(valid[:len(valid)/2])                            // truncated mid-frame
	cskSpec := sensing.Spec{Params: sensing.Params{M: 4, N: 8, Seed: 9}, Kind: sensing.KindCountSketch, D: 2}
	if cskValid, err := cluster.SketchRequestFrame(cskSpec); err == nil {
		f.Add(cskValid)
	}
	f.Add(append(append([]byte(nil), valid...), cluster.GarbageFrame()...))
	f.Add(cluster.GarbageFrame())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// A prelude that claims a 2 GiB spec: refused from its length alone.
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge, 1<<31)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		node := cluster.NewLocalNode("fuzz", make(linalg.Vector, 8))
		// ServeStream must consume any byte stream without panicking and
		// must terminate once the stream is exhausted; hostile frames may
		// only produce error responses or drop the connection.
		cluster.ServeStream(bytes.NewReader(data), io.Discard, node, cluster.ServeOptions{})
	})
}

func FuzzKeydictRead(f *testing.F) {
	f.Add("a\nb\nc\n")
	f.Add("")
	f.Add("z\na\n") // unsorted
	f.Add("dup\ndup\n")
	f.Add("one-key-only")
	f.Add("\r\r")       // regression: CR-bearing key must be rejected, not mangled
	f.Add("a\r\nb\r\n") // CRLF files read fine (keys "a", "b")
	f.Fuzz(func(t *testing.T, text string) {
		d, err := keydict.Read(strings.NewReader(text)) // must never panic
		if err != nil {
			return
		}
		// A successfully read dictionary must round-trip.
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			t.Fatal(err)
		}
		d2, err := keydict.Read(&buf)
		if err != nil {
			t.Fatalf("round-trip of accepted dictionary failed: %v", err)
		}
		if d2.N() != d.N() {
			t.Fatalf("round-trip changed size: %d vs %d", d2.N(), d.N())
		}
		for i := 0; i < d.N(); i++ {
			if d.Key(i) != d2.Key(i) {
				t.Fatalf("round-trip changed key %d", i)
			}
		}
	})
}
