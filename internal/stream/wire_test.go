package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"csoutlier"
	"csoutlier/internal/frame"
	"csoutlier/internal/xrand"
)

// sampleFrames is one real encoded frame of every kind.
func sampleFrames(t testing.TB, sk *csoutlier.Sketcher) map[pushKind][]byte {
	t.Helper()
	payload := uniformDelta(t, sk, 1.5)
	return map[pushKind][]byte{
		pushHello:      appendRequest(nil, &pushRequest{Kind: pushHello, Node: "node00", Epoch: 3}),
		pushBye:        appendRequest(nil, &pushRequest{Kind: pushBye, Node: "node00", Epoch: 3}),
		pushDelta:      appendRequest(nil, &pushRequest{Kind: pushDelta, Node: "node00", Epoch: 3, Window: 70000, Seq: 1 << 40, Folds: 5, Payload: payload}),
		pushPointQuery: appendRequest(nil, &pushRequest{Kind: pushPointQuery, FromAge: 0, ToAge: 3, Keys: []string{"key001", "", "key300"}, Threshold: 2.5}),
		replyAck:       appendAck(nil, &Ack{Window: 9, Applied: true, Status: StatusApplied, AggEpoch: 2, Stable: 1 << 33}),
		replyQuery: appendQueryReply(nil, &QueryReply{Answers: []csoutlier.PointAnswer{
			{Value: 7, Mode: 2, Deviation: 5, Outlier: true}, {Value: -1, Mode: 2, Deviation: -3},
		}}),
	}
}

// rawPairs is a pairs-encoded delta payload put together by hand — the
// 21 identity bytes lifted from one of sk's sketch payloads, then body,
// then a valid checksum — so a test can say exactly what is wrong with it.
func rawPairs(t testing.TB, sk *csoutlier.Sketcher, body []byte) []byte {
	t.Helper()
	b := append([]byte("CSKP"), uniformDelta(t, sk, 0)[4:25]...)
	b = append(b, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// pairsBody is uv count | count × (uv index, f64 value).
func pairsBody(count uint64, idx []uint64, vals []float64) []byte {
	b := binary.AppendUvarint(nil, count)
	for i := range idx {
		b = frame.AppendF64(binary.AppendUvarint(b, idx[i]), vals[i])
	}
	return b
}

// hostilePairs is a pairs payload damaged every way a peer could damage
// one, each under a valid checksum (but for the flipped bit). foreign
// and wider are sk's consensus with another seed and another M.
func hostilePairs(t testing.TB, sk, foreign, wider *csoutlier.Sketcher) map[string][]byte {
	t.Helper()
	idx, vals := []uint64{3, 60, 3}, []float64{1.5, -2.25, 0.125}
	good := pairsBody(3, idx, vals)
	flipped := rawPairs(t, sk, good)
	flipped[30] ^= 0x20
	var full []uint64
	for 1+9*(len(full)+1) < 8*sk.M() {
		full = append(full, uint64(len(full)%64))
	}
	ones := make([]float64, len(full)+1)
	for i := range ones {
		ones[i] = 1
	}
	out := map[string][]byte{
		"index N":                    rawPairs(t, sk, pairsBody(1, []uint64{uint64(sk.N())}, []float64{1})),
		"no smaller than the sketch": rawPairs(t, sk, pairsBody(uint64(len(full)+1), append(full, 0), ones)),
		"count over the bytes":       rawPairs(t, sk, pairsBody(4, idx, vals)),
		"count of 2^62":              rawPairs(t, sk, pairsBody(1<<62, idx, vals)),
		"truncated varint":           rawPairs(t, sk, append(pairsBody(2, idx[:1], vals[:1]), bytes.Repeat([]byte{0x80}, 9)...)),
		"value cut short":            rawPairs(t, sk, good[:len(good)-3]),
		"trailing byte":              rawPairs(t, sk, append(append([]byte(nil), good...), 0)),
		"trailing observation":       rawPairs(t, sk, pairsBody(2, idx, vals)),
		"no count":                   rawPairs(t, sk, nil),
		"another seed":               rawPairs(t, foreign, good),
		"another M":                  rawPairs(t, wider, good),
		"flipped bit":                flipped,
	}
	for what, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		out[what+" value"] = rawPairs(t, sk, pairsBody(2, idx[:2], []float64{1.5, v}))
	}
	return out
}

func allKinds() frameLimits {
	l := requestLimits(32)
	l[replyAck] = maxAckBody
	l[replyQuery] = queryReplyLimit(8)
	return l
}

func TestWireRoundTrip(t *testing.T) {
	sk := testSketcher(t, 64, 32, 5)
	frames := sampleFrames(t, sk)
	var stream []byte
	order := []pushKind{pushHello, pushDelta, pushBye, pushPointQuery, replyAck, replyQuery}
	for _, k := range order {
		stream = append(stream, frames[k]...)
	}
	// One byte per Read: frames must reassemble however TCP slices them.
	limits := allKinds()
	fr := frame.Reader{R: iotest.OneByteReader(bytes.NewReader(stream)), Limits: limits[:]}
	var req pushRequest
	for _, want := range order {
		k, body, err := fr.Next()
		kind := pushKind(k)
		if err != nil || kind != want {
			t.Fatalf("next: kind %d err %v, want kind %d", kind, err, want)
		}
		switch kind {
		case replyAck:
			ack, err := parseAck(body)
			if err != nil || ack != (Ack{Window: 9, Applied: true, Status: StatusApplied, AggEpoch: 2, Stable: 1 << 33}) {
				t.Fatalf("ack %+v err %v", ack, err)
			}
		case replyQuery:
			reply, err := parseQueryReply(body)
			if err != nil || len(reply.Answers) != 2 || reply.Answers[0] != (csoutlier.PointAnswer{Value: 7, Mode: 2, Deviation: 5, Outlier: true}) ||
				reply.Answers[1] != (csoutlier.PointAnswer{Value: -1, Mode: 2, Deviation: -3}) {
				t.Fatalf("reply %+v err %v", reply, err)
			}
		default:
			if err := parseRequest(kind, body, &req); err != nil {
				t.Fatalf("kind %d: %v", kind, err)
			}
			if again := appendRequest(nil, &req); !bytes.Equal(again, frames[kind]) {
				t.Fatalf("kind %d: re-encoding the parsed request changed the frame", kind)
			}
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	// Every status string survives the trip; rejection text does too.
	for _, status := range ackStatuses {
		in := Ack{Status: status, Err: "stream: no", Window: 1}
		out, err := parseAck(appendAck(nil, &in)[FrameOverhead:])
		if err != nil || out != in {
			t.Fatalf("status %q: got %+v err %v", status, out, err)
		}
	}
}

// FuzzPushFrame feeds arbitrary bytes to the frame reader and every
// body parser: none may panic, the read buffer may never outgrow the
// largest limit, and whatever parses must survive re-encoding.
func FuzzPushFrame(f *testing.F) {
	sk := testSketcher(f, 64, 32, 5)
	for _, frame := range sampleFrames(f, sk) {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		long := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(long, 1<<31)
		f.Add(long)
	}
	f.Add([]byte{2, 0, 0, 0, frame.Version, byte(pushHello), 0x80, 0x80})
	// A delta whose payload passes its checksum around a non-finite float.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(appendRequest(nil, &pushRequest{Kind: pushDelta, Node: "node00", Epoch: 3, Window: 1, Seq: 1, Folds: 1, Payload: uniformDelta(f, sk, v)}))
	}
	// Deltas in the pairs encoding: a good one, and each hostile one.
	pairsDelta := func(payload []byte) []byte {
		return appendRequest(nil, &pushRequest{Kind: pushDelta, Node: "node00", Epoch: 3, Window: 1, Seq: 1, Folds: 1, Payload: payload})
	}
	f.Add(pairsDelta(rawPairs(f, sk, pairsBody(2, []uint64{3, 60}, []float64{1.5, -2.25}))))
	for _, bad := range hostilePairs(f, sk, testSketcher(f, 64, 32, 6), testSketcher(f, 64, 36, 5)) {
		f.Add(pairsDelta(bad))
	}
	ws, err := sk.NewWindowStore(1)
	if err != nil {
		f.Fatal(err)
	}
	delta := sk.ZeroSketch()
	limits := allKinds()
	largest := 0
	for _, l := range limits {
		if l > largest {
			largest = l
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := frame.Reader{R: bytes.NewReader(data), Limits: limits[:]}
		var req pushRequest
		for {
			k, body, err := fr.Next()
			kind := pushKind(k)
			if cap(fr.Buf) > largest {
				t.Fatalf("read buffer grew to %d bytes, past the largest limit %d", cap(fr.Buf), largest)
			}
			if err != nil {
				return
			}
			switch kind {
			case replyAck:
				if ack, err := parseAck(body); err == nil {
					if again, err := parseAck(appendAck(nil, &ack)[FrameOverhead:]); err != nil || again != ack {
						t.Fatalf("ack %+v re-encodes to %+v (%v)", ack, again, err)
					}
				}
			case replyQuery:
				if reply, err := parseQueryReply(body); err == nil && len(reply.Answers)*answerLen > len(body) {
					t.Fatalf("%d answers out of a %d-byte body", len(reply.Answers), len(body))
				}
			default:
				if parseRequest(kind, body, &req) != nil {
					continue
				}
				if len(req.Keys) > len(body) || len(req.Payload) > len(body) || len(req.Node) > MaxNodeLen {
					t.Fatalf("kind %d: parsed more than the body holds: %d keys, %d payload bytes, %d-byte name from %d bytes",
						kind, len(req.Keys), len(req.Payload), len(req.Node), len(body))
				}
				// After any payload the fold accepts, every float of the
				// window is finite — across frames too: a sum of huge
				// finite values that would overflow is refused.
				if kind == pushDelta && sk.UnmarshalSketchInto(req.Payload, delta) == nil {
					if ws.AddSketch(0, delta) == nil {
						win, _ := ws.Window(0)
						for i, v := range win.Y {
							if math.IsNaN(v) || math.IsInf(v, 0) {
								t.Fatalf("an accepted delta left window float %d = %v", i, v)
							}
						}
					}
				}
				// The canonical encoding of what parsed is a fixed point.
				canon := appendRequest(nil, &req)
				var again pushRequest
				if err := parseRequest(kind, canon[FrameOverhead:], &again); err != nil || !bytes.Equal(appendRequest(nil, &again), canon) {
					t.Fatalf("kind %d: %+v re-encodes to %+v (%v)", kind, req, again, err)
				}
			}
		}
	})
}

// malformedCount polls the counter: the handler bumps it on its own
// goroutine, just before it closes the connection.
func malformedCount(t *testing.T, agg *Aggregator, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for agg.metrics.malformed.Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("stream_malformed_frames_total = %d, want %d", agg.metrics.malformed.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// expectClosed asserts the aggregator closes conn — a clean EOF (or a
// reset, when it closed with our bytes unread), never a hang.
func expectClosed(t *testing.T, what string, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); err == nil || n != 0 {
		t.Fatalf("%s: read %d bytes, err %v; want a closed connection", what, n, err)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("%s: connection left open (read timed out)", what)
	}
}

func TestGobPeerGetsCleanClose(t *testing.T) {
	sk := testSketcher(t, 64, 32, 5)
	agg, addr := serveAgg(t, sk, AggregatorOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// What the previous protocol's client put on a fresh connection.
	type gobHello struct {
		Kind    uint8
		Node    string
		Epoch   uint64
		Payload []byte
	}
	if err := gob.NewEncoder(conn).Encode(&gobHello{Kind: 1, Node: "node00", Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, "gob peer", conn)
	malformedCount(t, agg, 1)
}

func TestMalformedFramesCloseConnection(t *testing.T) {
	sk := testSketcher(t, 64, 32, 5)
	agg, addr := serveAgg(t, sk, AggregatorOptions{})
	good := sampleFrames(t, sk)
	prelude := func(n uint32, version byte, kind pushKind, body ...byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), append([]byte{version, byte(kind)}, body...)...)
	}
	oversized := append([]byte(nil), good[pushDelta]...)
	binary.LittleEndian.PutUint32(oversized, uint32(agg.limits[pushDelta]+1))
	cases := []struct {
		name      string
		bytes     []byte
		closeSend bool // half-close after writing: the frame is cut short
	}{
		{"unknown version", prelude(2, 9, pushHello, 0, 1), false},
		{"unknown kind", prelude(2, frame.Version, 77, 0, 1), false},
		{"reply kind as a request", good[replyAck], false},
		{"oversized delta", oversized, false},
		{"oversized hello", prelude(1<<20, frame.Version, pushHello), false},
		{"truncated delta", good[pushDelta][:len(good[pushDelta])-9], true},
		{"truncated prelude", good[pushHello][:3], true},
		{"varint runs off the body", prelude(2, frame.Version, pushHello, 0x80, 0x80), false},
		{"name longer than the body", prelude(2, frame.Version, pushHello, 40, 'x'), false},
		{"trailing bytes after a hello", prelude(4, frame.Version, pushHello, 1, 'x', 1, 0), false},
		{"more keys than bytes", prelude(12, frame.Version, pushPointQuery, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200, 1), false},
	}
	for i, tc := range cases {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.bytes); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.closeSend {
			conn.(*net.TCPConn).CloseWrite()
		}
		expectClosed(t, tc.name, conn)
		conn.Close()
		malformedCount(t, agg, int64(i+1))
	}
	// A node going away between frames is not malformed input, and the
	// aggregator still serves a conforming client.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialClient(ctx, addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := c.Hello("node00", 1); err != nil || ack.Err != "" || ack.Status != StatusHello {
		t.Fatalf("hello after the malformed peers: %+v, %v", ack, err)
	}
	c.Close()
	if _, err := c.Hello(string(make([]byte, MaxNodeLen+1)), 1); err == nil {
		t.Fatal("a node name past MaxNodeLen was sent")
	}
	malformedCount(t, agg, int64(len(cases)))
}

// ensembleSketchers is one Sketcher per ensemble over the same keys.
func ensembleSketchers(t *testing.T, m int, seed uint64) map[string]*csoutlier.Sketcher {
	t.Helper()
	keys := make([]string, 96)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%03d", i)
	}
	out := make(map[string]*csoutlier.Sketcher)
	for name, cfg := range map[string]csoutlier.Config{
		"gaussian":    {M: m, Seed: seed},
		"countsketch": {M: m, Seed: seed, Ensemble: csoutlier.CountSketch, Depth: 4},
	} {
		sk, err := csoutlier.NewSketcher(keys, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = sk
	}
	return out
}

// TestFoldFromWire: on every ensemble, pushing deltas over loopback —
// folded straight from the read buffer, or through a relay's OnApplied
// decode scratch — leaves windows Float64bits-identical to decoding
// each payload and adding the Sketch, in either encoding; and a payload
// with a flipped bit, another seed, another M or a NaN/±Inf measurement
// — or, as pairs, any of hostilePairs' defects — is acked with Err, not
// marked, and leaves every window bit-for-bit unchanged.
func TestFoldFromWire(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const m, windows = 32, 3
	foreign := ensembleSketchers(t, m, 12)
	wider := ensembleSketchers(t, m+4, 11)
	for name, sk := range ensembleSketchers(t, m, 11) {
		direct, directAddr := serveAgg(t, sk, AggregatorOptions{Windows: windows})
		mirrored := sk.ZeroSketch() // Σ of what OnApplied was shown
		relayed, relayedAddr := serveAgg(t, sk, AggregatorOptions{Windows: windows,
			OnApplied: func(_ uint64, _ int, delta csoutlier.Sketch) { mirrored.Add(delta) }})
		want, _ := sk.NewWindowStore(windows)
		total := sk.ZeroSketch()
		var clients []*Client
		for _, addr := range []string{directAddr, relayedAddr} {
			c, err := DialClient(ctx, addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			clients = append(clients, c)
		}
		rng := xrand.New(77)
		delta := sk.ZeroSketch()
		leaf := sk.NewUpdater()
		hostile := hostilePairs(t, sk, foreign[name], wider[name])
		rejected := 0
		checkWindows := func(when string) {
			t.Helper()
			for age := 0; age < windows; age++ {
				w, err := want.Window(age)
				if err != nil {
					continue // not opened yet
				}
				for what, agg := range map[string]*Aggregator{"direct": direct, "relayed": relayed} {
					got, err := agg.WindowSketch(age)
					if err != nil {
						t.Fatalf("%s %s: %v", name, what, err)
					}
					sameBits(t, fmt.Sprintf("%s %s %s, age %d", name, what, when, age), got, w)
				}
			}
			sameBits(t, name+" OnApplied mirror "+when, mirrored, total)
		}
		seq, window := uint64(0), uint64(1)
		push := func(payload []byte, wantErr bool, tag uint64) {
			t.Helper()
			for _, c := range clients {
				ack, err := c.PushDelta("leaf", 1, tag, seq, 1, payload)
				if err != nil {
					t.Fatalf("%s seq %d: %v", name, seq, err)
				}
				if wantErr != (ack.Err != "") || ack.Applied == wantErr {
					t.Fatalf("%s seq %d: ack %+v, want rejected=%v", name, seq, ack, wantErr)
				}
			}
		}
		for round := 0; round < 24; round++ {
			if round%8 == 7 {
				direct.Rotate()
				relayed.Rotate()
				want.Rotate()
				window++
			}
			for i := range delta.Y {
				delta.Y[i] = math.Ldexp(rng.Float64()-0.5, int(rng.Uint64()%40)-20)
			}
			good, err := delta.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			seq++
			if round%3 == 0 {
				// The same seq first arrives damaged six ways: each is
				// refused without being marked, so the clean copy still folds.
				flipped := append([]byte(nil), good...)
				flipped[40+round] ^= 1 << (round % 8)
				shaped := func(other *csoutlier.Sketcher) []byte {
					s := other.ZeroSketch()
					copy(s.Y, delta.Y)
					b, _ := s.MarshalBinary()
					return b
				}
				// And with a valid checksum around one non-finite float.
				poisoned := func(v float64) []byte {
					s := sk.ZeroSketch()
					copy(s.Y, delta.Y)
					s.Y[round] = v
					b, _ := s.MarshalBinary()
					return b
				}
				for _, bad := range [][]byte{flipped, shaped(foreign[name]), shaped(wider[name]),
					poisoned(math.NaN()), poisoned(math.Inf(1)), poisoned(math.Inf(-1))} {
					push(bad, true, window)
					rejected++
				}
				checkWindows("after rejected payloads")
			}
			// Late frames land in the window they are tagged with.
			tag := window - uint64(round%2)*(window-1)/2
			push(good, false, tag)
			decoded, err := sk.UnmarshalSketch(good)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.AddSketch(int(window-tag), decoded); err != nil {
				t.Fatal(err)
			}
			total.Add(decoded)
			checkWindows("after a fold")

			// And a delta small enough to travel as the observations
			// themselves, which the aggregator measures: same contract.
			for i, n := 0, 1+int(rng.Uint64()%20); i < n; i++ {
				if err := leaf.Observe(fmt.Sprintf("key%03d", rng.Intn(96)), math.Ldexp(rng.Float64()-0.5, int(rng.Uint64()%40)-20)); err != nil {
					t.Fatal(err)
				}
			}
			pairs, _, err := leaf.DrainEncoded(nil)
			if err != nil || !csoutlier.PairsEncoded(pairs) {
				t.Fatalf("%s: a few observations did not drain as pairs: %v", name, err)
			}
			seq++
			if round%3 == 0 {
				for what, bad := range hostile {
					push(bad, true, window)
					checkWindows("after a rejected pairs payload: " + what)
				}
				rejected += len(hostile)
			}
			push(pairs, false, tag)
			if decoded, err = sk.UnmarshalSketch(pairs); err != nil {
				t.Fatal(err)
			}
			if err := want.AddSketch(int(window-tag), decoded); err != nil {
				t.Fatal(err)
			}
			total.Add(decoded)
			checkWindows("after a pairs fold")
		}
		if st := direct.Stats(); st.Applied != 48 || st.Rejected != int64(rejected) {
			t.Fatalf("%s: direct applied %d rejected %d, want 48 and %d", name, st.Applied, st.Rejected, rejected)
		}
		if got := direct.metrics.pairFrames.Value() + direct.metrics.sketchFrames.Value(); got != 48 || direct.metrics.pairFrames.Value() != 24 {
			t.Fatalf("%s: stream_delta_frames_total counts %d pairs of %d frames, want 24 of 48", name, direct.metrics.pairFrames.Value(), got)
		}
	}
}

// TestPushPathAllocs pins the steady state of the push path, for a
// frame in either encoding: pushed over loopback, folded and acked it
// costs at most 2 allocations at the client and the aggregator together
// (measured: none at either), and the fold alone none.
func TestPushPathAllocs(t *testing.T) {
	sk := testSketcher(t, 256, 64, 5)
	agg, addr := serveAgg(t, sk, AggregatorOptions{})
	u := sk.NewUpdater()
	for i := 0; i < 16; i++ {
		if err := u.Observe(fmt.Sprintf("key%03d", 16*i), float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	pairs, _, err := u.DrainEncoded(nil)
	if err != nil || !csoutlier.PairsEncoded(pairs) {
		t.Fatalf("16 observations did not drain as pairs: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialClient(ctx, addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var (
		direct, wire uint64
		delta        csoutlier.Sketch
	)
	for what, payload := range map[string][]byte{"sketch": uniformDelta(t, sk, 1), "pairs": pairs} {
		req := pushRequest{Kind: pushDelta, Node: "direct", Epoch: 1, Window: 1, Folds: 1, Payload: payload}
		fold := func() {
			direct++
			req.Seq = direct
			if ack := agg.apply(req, &delta); !ack.Applied {
				t.Fatalf("apply: %+v", ack)
			}
		}
		fold() // the connection's decode scratch is made at its first delta
		if n := testing.AllocsPerRun(200, fold); n != 0 {
			t.Errorf("fold from an encoded %s payload: %v allocs per frame, want 0", what, n)
		}

		push := func() {
			wire++
			if ack, err := c.PushDelta("leaf", 1, 1, wire, 1, payload); err != nil || !ack.Applied {
				t.Fatalf("PushDelta %d: %+v, %v", wire, ack, err)
			}
		}
		push() // buffers sized, node state created
		// AllocsPerRun counts the whole process: the client's and the
		// aggregator's allocations for the frame together.
		if n := testing.AllocsPerRun(500, push); n > 2 {
			t.Errorf("PushDelta→fold→ack of a %s payload over loopback: %v allocs per frame across client and aggregator, want ≤ 2", what, n)
		}
	}
}

// tapListener counts every byte that crosses its connections and keeps
// what the server read from them.
type tapListener struct {
	net.Listener
	tap *wireTap
}

type wireTap struct {
	mu    sync.Mutex
	bytes int
	read  []byte
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tapConn{c, l.tap}, nil
}

type tapConn struct {
	net.Conn
	tap *wireTap
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tap.mu.Lock()
	c.tap.bytes += n
	c.tap.read = append(c.tap.read, p[:n]...)
	c.tap.mu.Unlock()
	return n, err
}

// Write counts before it writes: the peer may read the bytes, return to
// the test and start the next exchange before this goroutine runs again.
func (c tapConn) Write(p []byte) (int, error) {
	c.tap.mu.Lock()
	c.tap.bytes += len(p)
	c.tap.mu.Unlock()
	return c.Conn.Write(p)
}

// exchange runs fn and returns the bytes that crossed the wire during
// it, both ways, and the ones the server read.
func (w *wireTap) exchange(fn func()) (total int, read []byte) {
	w.mu.Lock()
	w.bytes, w.read = 0, nil
	w.mu.Unlock()
	fn()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes, w.read
}

// TestDeltaWireBytes pins what a flush puts on the wire at the
// benchmark's ingest_flat shape (M=256, N=4096, 16 observations a
// flush, a six-byte node name): the observations themselves, 209 bytes
// for the whole exchange where the sketch frame takes 2,104 — and that
// from the size crossover up, the frame is byte for byte the sketch
// frame a node that measured every observation on arrival, drained and
// encoded would have sent.
func TestDeltaWireBytes(t *testing.T) {
	sk := testSketcher(t, 4096, 256, 5)
	agg, err := NewAggregator(sk, AggregatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &wireTap{}
	go agg.Serve(tapListener{ln, tap})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer agg.Close(ctx)
	const id = "leaf-0"
	node, err := Dial(ctx, ln.Addr().String(), sk, id, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Abort()

	// Eight key indices a one-byte varint holds, eight that take two.
	keys := sk.Keys() // in index order
	var idx []uint64
	var vals []float64
	for i := 0; i < 16; i++ {
		idx = append(idx, uint64(i*8+(i%2)*1000))
		vals = append(vals, float64(i)-7.5)
	}
	observe := func(on interface{ Observe(string, float64) error }, n int) {
		for i := 0; i < n; i++ {
			if err := on.Observe(keys[idx[i%16]], vals[i%16]); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := func() {
		if err := node.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	frameOf := func(seq uint64, payload []byte) []byte {
		return appendRequest(nil, &pushRequest{Kind: pushDelta, Node: id, Epoch: 1, Window: 1, Seq: seq, Folds: 1, Payload: payload})
	}
	const (
		deltaHeader = (1 + len(id)) + 1 + 1 + 1 + 1 // str node | uv epoch | uv window | uv seq | uv folds
		ack         = FrameOverhead + 1 + 1 + 1 + 1 // status | uv window | uv aggEpoch | uv stable
	)

	observe(node, 16)
	total, read := tap.exchange(flush)
	pairs := rawPairs(t, sk, pairsBody(16, idx, vals))
	if want := 25 + 1 + (8*9 + 8*10) + 4; len(pairs) != want {
		t.Fatalf("16 observations encode to %d bytes as pairs, want %d", len(pairs), want)
	}
	if !bytes.Equal(read, frameOf(1, pairs)) {
		t.Fatalf("a 16-observation flush sent\n%x\nwant the observations as pairs\n%x", read, frameOf(1, pairs))
	}
	if want := FrameOverhead + deltaHeader + len(pairs) + ack; total != want || want != 209 {
		t.Fatalf("a 16-observation exchange put %d bytes on the wire, want %d (= 209)", total, want)
	}

	// The last count that still travels as pairs, and the first that does
	// not: 8·9 + 8·10 bytes per sixteen observations, a two-byte count.
	cross := 0
	for body := 0; 2+body < 8*256; cross++ {
		body += 9 + cross%2
	}
	shadow := sk.NewUpdater()
	parent := sk.ZeroSketch()
	for i, n := range []int{cross - 1, cross, cross + 37} {
		observe(node, n)
		observe(shadow, n)
		if _, err := shadow.DrainInto(parent); err != nil {
			t.Fatal(err)
		}
		payload, err := parent.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		total, read := tap.exchange(flush)
		if i == 0 {
			if total >= FrameOverhead+deltaHeader+len(payload)+ack || !csoutlier.PairsEncoded(read[FrameOverhead+deltaHeader:]) {
				t.Fatalf("%d observations, one under the crossover: %d bytes on the wire, pairs=%v", n, total, csoutlier.PairsEncoded(read[FrameOverhead+deltaHeader:]))
			}
			continue
		}
		if !bytes.Equal(read, frameOf(uint64(2+i), payload)) {
			t.Fatalf("%d observations (crossover %d): the frame is not the parent's sketch frame", n, cross)
		}
		if want := FrameOverhead + deltaHeader + csoutlier.EncodedSketchLen(256) + ack; total != want || want != 2104 {
			t.Fatalf("%d observations: %d bytes on the wire, want %d (= 2104)", n, total, want)
		}
	}
	if st := node.Stats(); st.Captured != 4 || st.PairFrames != 2 || st.Applied != 4 {
		t.Fatalf("node stats %+v, want 4 captures, 2 of them pairs, all applied", st)
	}
}
