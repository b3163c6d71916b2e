package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"csoutlier"
	"csoutlier/internal/frame"
	"csoutlier/internal/xrand"
)

// sampleFrames is one real encoded frame of every kind, each as the
// first frame on a fresh connection, where every field travels.
func sampleFrames(t testing.TB, sk *csoutlier.Sketcher) map[pushKind][]byte {
	t.Helper()
	payload := uniformDelta(t, sk, 1.5)
	return map[pushKind][]byte{
		pushHello: freshRequest(&pushRequest{Kind: pushHello, Node: "node00", Epoch: 3, ID: sk.AppendIdentity(nil)}),
		pushBye:   freshRequest(&pushRequest{Kind: pushBye}),
		pushDelta: freshRequest(&pushRequest{Kind: pushDelta, Window: 70000, Seq: 1 << 40, Folds: 5, Payload: payload}),
		replyAck:  freshAck(&Ack{Window: 9, Applied: true, Status: statusApplied, AggEpoch: 2, Stable: 1 << 33}),
	}
}

// freshRequest and freshAck encode one frame under a fresh connection's
// context.
func freshRequest(req *pushRequest) []byte {
	var c wireContext
	return c.appendRequest(nil, req)
}

func freshAck(ack *Ack) []byte {
	var c wireContext
	return c.appendAck(nil, ack)
}

// bodyOf is a frame's body: what follows the version, the kind and the
// length.
func bodyOf(wire []byte) []byte {
	_, n := binary.Uvarint(wire[2:])
	return wire[2+n:]
}

// prelude is a frame's first bytes as a peer may send them, a body
// length that need not be the body's, then body.
func prelude(n uint64, version byte, kind pushKind, body ...byte) []byte {
	return append(binary.AppendUvarint([]byte{version, byte(kind)}, n), body...)
}

// withLength is wire with its prelude claiming a body of n bytes.
func withLength(wire []byte, n uint64) []byte {
	return prelude(n, wire[0], pushKind(wire[1]), bodyOf(wire)...)
}

// oldFrame is a frame of a version before 5: a u32 body length, then the
// version, the kind and the body.
func oldFrame(version byte, kind pushKind, body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), append([]byte{version, byte(kind)}, body...)...)
}

// oldBody is how a request body of a version before 5 opened, whatever
// its kind: str node | uv epoch, then rest.
func oldBody(node string, epoch uint64, rest ...byte) []byte {
	return append(binary.AppendUvarint(frame.AppendString(nil, node), epoch), rest...)
}

// The kinds of the retired point-query RPC: a watch-list query and its
// reply. Both are refused as unknown.
const (
	retiredQuery pushKind = 4
	retiredReply pushKind = 6
)

// retiredFrames is one frame of each retired kind, laid out as the
// protocol that carried them encoded it: a query for three keys over
// window ages [0, 3], and a reply of two answers.
func retiredFrames() map[pushKind][]byte {
	q := frame.Begin(nil, uint8(retiredQuery))
	q = binary.AppendVarint(q, 0)  // sv fromAge
	q = binary.AppendVarint(q, 3)  // sv toAge
	q = frame.AppendF64(q, 2.5)    // f64 threshold
	q = binary.AppendUvarint(q, 3) // uv n, then n × str key
	for _, k := range []string{"key001", "", "key300"} {
		q = frame.AppendString(q, k)
	}
	r := frame.Begin(nil, uint8(retiredReply))
	r = frame.AppendString(r, "")  // str err
	r = binary.AppendUvarint(r, 2) // uv n, then n × (f64 value | f64 mode | u8 outlier)
	r = append(frame.AppendF64(frame.AppendF64(r, 7), 2), 1)
	r = append(frame.AppendF64(frame.AppendF64(r, -1), 2), 0)
	return map[pushKind][]byte{retiredQuery: frame.End(q), retiredReply: frame.End(r)}
}

// rawPairs is a pairs-encoded delta payload put together by hand — the
// tag, then body, then the checksum over sk's consensus identity and
// both — so a test can say exactly what is wrong with it.
func rawPairs(sk *csoutlier.Sketcher, body []byte) []byte {
	b := append([]byte{'P'}, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.Update(crc32.ChecksumIEEE(sk.AppendIdentity(nil)), crc32.IEEETable, b))
}

// oldPairs is a pairs payload in a layout that carried the identity
// under its own magic: the magic, the 21 identity bytes after sk's, then
// body, then a valid checksum over all of it.
func oldPairs(sk *csoutlier.Sketcher, magic string, body []byte) []byte {
	b := append(append([]byte(magic), sk.AppendIdentity(nil)[4:]...), body...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// pairsBody is uv count | count × observation: an integer of magnitude
// at most 2^53 (not −0) as uv(index<<1) and a zigzag varint, any other
// value as uv(index<<1 | 1) and its f64.
func pairsBody(count uint64, idx []uint64, vals []float64) []byte {
	b := binary.AppendUvarint(nil, count)
	for i, v := range vals {
		if v == math.Trunc(v) && math.Abs(v) <= 1<<53 && !(v == 0 && math.Signbit(v)) {
			b = binary.AppendVarint(binary.AppendUvarint(b, idx[i]<<1), int64(v))
		} else {
			b = frame.AppendF64(binary.AppendUvarint(b, idx[i]<<1|1), v)
		}
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
	flipped := rawPairs(sk, good)
	flipped[5] ^= 0x20
	// full is one observation more than the largest pairs payload under
	// the sketch's size.
	var full []uint64
	var ones []float64
	for len(rawPairs(sk, pairsBody(uint64(len(full)), full, ones))) < csoutlier.EncodedSketchLen(sk.M()) {
		full, ones = append(full, uint64(len(full)%64)), append(ones, 1)
	}
	out := map[string][]byte{
		"index N":                    rawPairs(sk, pairsBody(1, []uint64{uint64(sk.N())}, []float64{1})),
		"no smaller than the sketch": rawPairs(sk, pairsBody(uint64(len(full)), full, ones)),
		"count over the bytes":       rawPairs(sk, pairsBody(4, idx, vals)),
		"count of 2^62":              rawPairs(sk, pairsBody(1<<62, idx, vals)),
		"truncated varint":           rawPairs(sk, append(pairsBody(2, idx[:1], vals[:1]), bytes.Repeat([]byte{0x80}, 9)...)),
		"value cut short":            rawPairs(sk, good[:len(good)-3]),
		"trailing byte":              rawPairs(sk, append(append([]byte(nil), good...), 0)),
		"trailing observation":       rawPairs(sk, pairsBody(2, idx, vals)),
		"no count":                   rawPairs(sk, nil),
		"integer past 2^53":          rawPairs(sk, binary.AppendVarint([]byte{1, 3 << 1}, 1<<53+1)),
		"integer sent raw":           rawPairs(sk, frame.AppendF64([]byte{1, 3<<1 | 1}, 2)),
		"overlong integer varint":    rawPairs(sk, []byte{1, 3 << 1, 0x82, 0x00}),
		"the CSKP layout":            oldPairs(sk, "CSKP", frame.AppendF64([]byte{1, 3}, 1.5)),
		"the CSKV layout":            oldPairs(sk, "CSKV", good),
		"another seed":               rawPairs(foreign, good),
		"another M":                  rawPairs(wider, good),
		"flipped bit":                flipped,
	}
	for what, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		out[what+" value"] = rawPairs(sk, pairsBody(2, idx[:2], []float64{1.5, v}))
	}
	return out
}

func allKinds() frameLimits {
	l := requestLimits(32)
	l[replyAck] = maxAckBody
	return l
}

func TestWireRoundTrip(t *testing.T) {
	sk := testSketcher(t, 64, 32, 5)
	frames := sampleFrames(t, sk)
	var stream []byte
	order := []pushKind{pushHello, pushDelta, pushBye, replyAck}
	for _, k := range order {
		stream = append(stream, frames[k]...)
	}
	// One byte per Read: frames must reassemble however TCP slices them.
	// In this order on one connection, each frame's every field still
	// differs from what the context implies.
	limits := allKinds()
	fr := frame.Reader{R: iotest.OneByteReader(bytes.NewReader(stream)), Limits: limits[:]}
	var (
		req pushRequest
		ctx wireContext
	)
	for _, want := range order {
		k, body, err := fr.Next()
		kind := pushKind(k)
		if err != nil || kind != want {
			t.Fatalf("next: kind %d err %v, want kind %d", kind, err, want)
		}
		before := ctx
		switch kind {
		case replyAck:
			ack, err := ctx.parseAck(body)
			if err != nil || ack != (Ack{Window: 9, Applied: true, Status: statusApplied, AggEpoch: 2, Stable: 1 << 33}) {
				t.Fatalf("ack %+v err %v", ack, err)
			}
		default:
			if err := ctx.parseRequest(kind, body, &req); err != nil {
				t.Fatalf("kind %d: %v", kind, err)
			}
			if again := before.appendRequest(nil, &req); !bytes.Equal(again, frames[kind]) {
				t.Fatalf("kind %d: re-encoding the parsed request changed the frame", kind)
			}
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	// The retired kinds are unknown ones: refused at the prelude.
	for kind, b := range retiredFrames() {
		fr := frame.Reader{R: bytes.NewReader(b), Limits: limits[:]}
		if _, _, err := fr.Next(); !errors.Is(err, errMalformed) {
			t.Fatalf("retired kind %d: %v, want a malformed-frame refusal", kind, err)
		}
	}
	// Every status string survives the trip; rejection text does too.
	for _, status := range ackStatuses {
		in := Ack{Status: status, Err: "stream: no", Window: 1}
		var ctx wireContext
		out, err := ctx.parseAck(bodyOf(freshAck(&in)))
		if err != nil || out != in {
			t.Fatalf("status %q: got %+v err %v", status, out, err)
		}
	}
}

// TestWireContextRoundTrip drives random sequences of hello, delta, bye
// and ack frames through an encoding and a decoding context, values
// drawn at, near and far from what the context implies: every frame
// decodes to what was encoded (folds 0 as 1), re-encodes to its own
// bytes under the context it was read with, and leaves both contexts
// equal. A flagged field equal to its implied value, and an unknown flag
// bit, are refused as malformed.
func TestWireContextRoundTrip(t *testing.T) {
	rng := xrand.New(50)
	near := func(implied uint64) uint64 {
		switch rng.Intn(4) {
		case 0, 1:
			return implied
		case 2:
			return implied + rng.Uint64()%3 - 1
		}
		return rng.Uint64() >> rng.Intn(64)
	}
	payload := []byte("payload")
	for run := 0; run < 200; run++ {
		var enc, dec wireContext
		for i := 0; i < 40; i++ {
			var wire []byte
			before := dec
			var ack Ack
			var req pushRequest
			isAck := false
			switch rng.Intn(7) {
			case 0:
				req = pushRequest{Kind: pushHello, Node: "n", Epoch: rng.Uint64() % 4}
			case 1:
				req = pushRequest{Kind: pushBye}
			case 2, 3:
				req = pushRequest{Kind: pushDelta, Window: near(enc.window), Seq: near(enc.seq + 1), Folds: uint32(near(1)), Payload: payload}
			default:
				isAck = true
				ack = Ack{Window: near(enc.window), AggEpoch: near(enc.aggEpoch), Stable: near(enc.seq),
					Status: ackStatuses[rng.Intn(len(ackStatuses))], Applied: rng.Intn(2) == 0}
				if rng.Intn(8) == 0 {
					ack.Err = "refused"
				}
			}
			if isAck {
				wire = enc.appendAck(nil, &ack)
				got, err := dec.parseAck(bodyOf(wire))
				if err != nil || got != ack {
					t.Fatalf("run %d frame %d: ack %+v decodes to %+v, %v", run, i, ack, got, err)
				}
				if again := before.appendAck(nil, &got); !bytes.Equal(again, wire) {
					t.Fatalf("run %d frame %d: ack %+v re-encodes to %x, not %x", run, i, got, again, wire)
				}
			} else {
				wire = enc.appendRequest(nil, &req)
				var got pushRequest
				if err := dec.parseRequest(req.Kind, bodyOf(wire), &got); err != nil {
					t.Fatalf("run %d frame %d: %+v: %v", run, i, req, err)
				}
				want := req
				if want.Kind == pushDelta {
					want.Folds = max(want.Folds, 1)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("run %d frame %d: %+v decodes to %+v", run, i, want, got)
				}
				if again := before.appendRequest(nil, &got); !bytes.Equal(again, wire) {
					t.Fatalf("run %d frame %d: %+v re-encodes to %x, not %x", run, i, got, again, wire)
				}
			}
			if enc != dec || before != dec {
				t.Fatalf("run %d frame %d: contexts %+v (encoder), %+v (decoder), %+v (re-encoder)", run, i, enc, dec, before)
			}
		}
	}

	// A field flagged but equal to what the context implies has a shorter
	// encoding; a flag bit the layout does not name is no layout at all.
	ctx := wireContext{window: 7, aggEpoch: 2, seq: 40}
	uv := binary.AppendUvarint
	for what, body := range map[string][]byte{
		"delta flagging its implied window": append(uv([]byte{deltaWindow}, 7), payload...),
		"delta flagging its implied seq":    append(uv([]byte{deltaSeq}, 41), payload...),
		"delta flagging folds 1":            append(uv([]byte{deltaFolds}, 1), payload...),
		"delta flagging folds 0":            append(uv([]byte{deltaFolds}, 0), payload...),
		"delta with an unknown flag bit":    append([]byte{0x08}, payload...),
		"delta with no flags byte":          nil,
	} {
		c := ctx
		if err := c.parseRequest(pushDelta, body, new(pushRequest)); !errors.Is(err, errMalformed) {
			t.Errorf("%s: %v, want a malformed-frame refusal", what, err)
		}
	}
	for what, body := range map[string][]byte{
		"ack flagging its implied window":   uv([]byte{1 | ackWindow}, 7),
		"ack flagging its implied aggEpoch": uv([]byte{1 | ackAggEpoch}, 2),
		"ack flagging stable at the seq":    uv([]byte{1 | ackStable}, 40),
		"ack with an unknown flag bit":      {1 | 0x40},
		"ack of status 6":                   {6},
	} {
		c := ctx
		if _, err := c.parseAck(body); !errors.Is(err, errMalformed) {
			t.Errorf("%s: %v, want a malformed-frame refusal", what, err)
		}
	}
}

// FuzzPushFrame feeds arbitrary bytes to the frame reader and, as one
// connection's sequence of frames, through one context to every body
// parser: none may panic, the read buffer may never outgrow the largest
// limit, and every frame that parses re-encodes to its own body bytes
// under the context it was read with, leaving that context where the
// parse left it — one frame has one encoding. The first frame that does
// not parse ends the sequence, as it closes a connection.
func FuzzPushFrame(f *testing.F) {
	sk := testSketcher(f, 64, 32, 5)
	for _, frame := range sampleFrames(f, sk) {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(withLength(frame, 1<<31))
	}
	for _, frame := range retiredFrames() {
		f.Add(frame)
	}
	// A connection's exchanges: a hello and its ack, a delta and an ack
	// where the context implies every field, then a late delta of a
	// relay's sum after a seq gap, and an ack from a restored
	// aggregator, where none is implied.
	var ctx wireContext
	payload := uniformDelta(f, sk, 1)
	var talk []byte
	talk = ctx.appendRequest(talk, &pushRequest{Kind: pushHello, Node: "node00", Epoch: 3, ID: sk.AppendIdentity(nil)})
	talk = ctx.appendAck(talk, &Ack{Window: 4, AggEpoch: 1, Status: statusHello})
	talk = ctx.appendRequest(talk, &pushRequest{Kind: pushDelta, Window: 4, Seq: 1, Folds: 1, Payload: payload})
	talk = ctx.appendAck(talk, &Ack{Window: 4, AggEpoch: 1, Stable: 1, Status: statusApplied, Applied: true})
	talk = ctx.appendRequest(talk, &pushRequest{Kind: pushDelta, Window: 3, Seq: 9, Folds: 6, Payload: payload})
	talk = ctx.appendAck(talk, &Ack{Window: 5, AggEpoch: 2, Stable: 7, Status: statusApplied, Applied: true})
	f.Add(talk)
	f.Add(prelude(2, frame.Version, pushHello, 0x80, 0x80))
	// An epoch varint longer than it needs, a body length longer than it
	// needs, a bye with a body, and a delta and a bye of version 4, which
	// named the node and epoch behind a u32 length.
	f.Add(prelude(4, frame.Version, pushHello, 1, 'n', 0x81, 0x00))
	f.Add([]byte{frame.Version, byte(pushHello), 0x84, 0x00, 1, 'n', 1, 0})
	f.Add(prelude(1, frame.Version, pushBye, 0))
	f.Add(oldFrame(4, pushDelta, oldBody("n", 3, append([]byte{1, 1, 1}, uniformDelta(f, sk, 1)...)...)))
	f.Add(oldFrame(4, pushBye, oldBody("n", 3)))
	// A node name at the limit and one byte past it, a hello naming no
	// identity and one of a byte too few or too many, folds past 32 bits,
	// a delta flagging its implied seq, one with an unknown flag bit, and
	// an ack status no conforming aggregator sends.
	for _, n := range []int{maxNodeLen, maxNodeLen + 1} {
		f.Add(freshRequest(&pushRequest{Kind: pushHello, Node: strings.Repeat("n", n), Epoch: 1}))
	}
	ident := sk.AppendIdentity(nil)
	for _, id := range [][]byte{nil, ident[:len(ident)-1], append(ident, 0)} {
		f.Add(freshRequest(&pushRequest{Kind: pushHello, Node: "node00", Epoch: 3, ID: id}))
	}
	for _, head := range [][]byte{{deltaFolds, 0x80, 0x80, 0x80, 0x80, 0x10}, {deltaSeq, 1}, {0x08}} {
		f.Add(frame.End(append(append(frame.Begin(nil, uint8(pushDelta)), head...), payload...)))
	}
	badStatus := freshAck(&Ack{Window: 1})
	badStatus[frame.MinOverhead] = byte(len(ackStatuses))
	f.Add(badStatus)
	// A delta whose payload passes its checksum around a non-finite float.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(freshRequest(&pushRequest{Kind: pushDelta, Window: 1, Seq: 1, Folds: 1, Payload: uniformDelta(f, sk, v)}))
	}
	// Deltas in the pairs encoding: a good one, and each hostile one.
	pairsDelta := func(payload []byte) []byte {
		return freshRequest(&pushRequest{Kind: pushDelta, Window: 1, Seq: 1, Folds: 1, Payload: payload})
	}
	f.Add(pairsDelta(rawPairs(sk, pairsBody(2, []uint64{3, 60}, []float64{1.5, -2.25}))))
	for _, bad := range hostilePairs(f, sk, testSketcher(f, 64, 32, 6), testSketcher(f, 64, 36, 5)) {
		f.Add(pairsDelta(bad))
	}
	ws, err := sk.NewWindowStore(1)
	if err != nil {
		f.Fatal(err)
	}
	delta := sk.ZeroSketch()
	limits := allKinds()
	largest := frame.MaxOverhead
	for _, l := range limits {
		if l > largest {
			largest = l
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := frame.Reader{R: bytes.NewReader(data), Limits: limits[:]}
		var (
			req pushRequest
			ctx wireContext
		)
		for {
			k, body, err := fr.Next()
			kind := pushKind(k)
			if cap(fr.Buf) > largest {
				t.Fatalf("read buffer grew to %d bytes, past the largest limit %d", cap(fr.Buf), largest)
			}
			if err != nil {
				return
			}
			before := ctx
			var again []byte
			switch kind {
			case replyAck:
				ack, err := ctx.parseAck(body)
				if err != nil {
					return
				}
				again = before.appendAck(nil, &ack)
			default:
				if ctx.parseRequest(kind, body, &req) != nil {
					return
				}
				if len(req.Node) > maxNodeLen || len(req.ID) != 0 && len(req.ID) != csoutlier.IdentityLen {
					t.Fatalf("kind %d: a %d-byte name or a %d-byte identity parsed", kind, len(req.Node), len(req.ID))
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
				again = before.appendRequest(nil, &req)
			}
			// What parsed is canonical: it re-encodes to its own bytes.
			if !bytes.Equal(bodyOf(again), body) || before != ctx {
				t.Fatalf("kind %d re-encodes to\n%x, not\n%x (context %+v, not %+v)", kind, bodyOf(again), body, before, ctx)
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
	good, retired := sampleFrames(t, sk), retiredFrames()
	// What a peer of an earlier version sends first: its hello, or a
	// delta of pairs in the layout of that version, each under its
	// version's prelude. Version 2 carried values as f64s ("CSKP"),
	// version 3 as varints ("CSKV"), each behind the identity; version 4
	// is this layout, a node and epoch in every delta and a u32 length;
	// version 5 named the window, seq and folds in every delta; version 7
	// sent integer sketch counters as f64s.
	oldDelta := func(v byte, payload []byte) []byte {
		return oldFrame(v, pushDelta, oldBody("node00", 3, append([]byte{1, 1, 1}, payload...)...))
	}
	at := func(v byte, req *pushRequest) []byte {
		b := freshRequest(req)
		b[0] = v
		return b
	}
	cskp := oldPairs(sk, "CSKP", frame.AppendF64([]byte{1, 3}, 1.5))
	cskv := oldPairs(sk, "CSKV", pairsBody(1, []uint64{3}, []float64{2}))
	pairs := rawPairs(sk, pairsBody(1, []uint64{3}, []float64{2}))
	// A hello naming an identity of a byte too few or too many, or of one
	// byte.
	ident := sk.AppendIdentity(nil)
	helloNaming := func(id []byte) []byte {
		return freshRequest(&pushRequest{Kind: pushHello, Node: "node00", Epoch: 3, ID: id})
	}
	cases := []struct {
		name      string
		bytes     []byte
		closeSend bool // half-close after writing: the frame is cut short
	}{
		{"unknown version", prelude(2, 9, pushHello, 0, 1), false},
		{"version-2 hello", oldFrame(2, pushHello, oldBody("node00", 3)), false},
		{"version-2 delta of CSKP pairs", oldDelta(2, cskp), false},
		{"version-3 hello", oldFrame(3, pushHello, oldBody("node00", 3)), false},
		{"version-3 delta of CSKV pairs", oldDelta(3, cskv), false},
		{"version-4 hello", oldFrame(4, pushHello, oldBody("node00", 3, ident...)), false},
		{"version-4 delta of pairs", oldDelta(4, pairs), false},
		{"version-5 hello", at(5, &pushRequest{Kind: pushHello, Node: "node00", Epoch: 3, ID: ident}), false},
		{"version-5 delta of pairs", prelude(uint64(3+len(pairs)), 5, pushDelta, append([]byte{1, 1, 1}, pairs...)...), false},
		{"version-7 hello", at(7, &pushRequest{Kind: pushHello, Node: "node00", Epoch: 3, ID: ident}), false},
		{"hello naming a 1-byte identity", helloNaming(ident[:1]), false},
		{"hello naming a 24-byte identity", helloNaming(ident[:24]), false},
		{"hello naming a 26-byte identity", helloNaming(append(ident, 0)), false},
		{"unknown kind", prelude(2, frame.Version, 77, 0, 1), false},
		{"reply kind as a request", good[replyAck], false},
		{"oversized delta", withLength(good[pushDelta], uint64(agg.limits[pushDelta]+1)), false},
		{"length longer than it needs", []byte{frame.Version, byte(pushHello), 0x88, 0x00}, false},
		{"length past uint32", prelude(1<<32, frame.Version, pushDelta), false},
		{"bye with a body", prelude(1, frame.Version, pushBye, 0), false},
		{"delta before any hello", good[pushDelta], false},
		{"bye before any hello", good[pushBye], false},
		{"oversized hello", prelude(1<<20, frame.Version, pushHello), false},
		{"truncated delta", good[pushDelta][:len(good[pushDelta])-9], true},
		{"truncated prelude", good[pushHello][:2], true},
		{"varint runs off the body", prelude(2, frame.Version, pushHello, 0x80, 0x80), false},
		{"name longer than the body", prelude(2, frame.Version, pushHello, 40, 'x'), false},
		{"trailing bytes after a hello", prelude(4, frame.Version, pushHello, 1, 'x', 1, 0), false},
		{"retired point query (kind 4)", retired[retiredQuery], false},
		{"retired query reply (kind 6) as a request", retired[retiredReply], false},
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
	// On a connection an admitted hello bound, a delta the context makes
	// non-canonical: a flagged field equal to its implied value, or an
	// unknown flag bit.
	delta := func(head ...byte) []byte {
		return frame.End(append(append(frame.Begin(nil, uint8(pushDelta)), head...), pairs...))
	}
	refused := int64(len(cases))
	bound := []struct {
		name  string
		bytes []byte
	}{
		{"delta flagging its implied window", delta(deltaWindow, 1)},
		{"delta flagging its implied seq", delta(deltaSeq, 1)},
		{"delta flagging folds 1", delta(deltaFolds, 1)},
		{"delta with an unknown flag bit", delta(0x10)},
	}
	for _, tc := range bound {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		var ctx wireContext
		fr := frame.Reader{R: conn, Limits: replyLimits[:]}
		if _, err := conn.Write(ctx.appendRequest(nil, &pushRequest{Kind: pushHello, Node: "node00", Epoch: 1})); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, body, err := fr.Next(); err != nil {
			t.Fatalf("%s: hello: %v", tc.name, err)
		} else if ack, err := ctx.parseAck(body); err != nil || ack.Err != "" || ack.Window != 1 {
			t.Fatalf("%s: hello acked %+v, %v; want window 1", tc.name, ack, err)
		}
		if _, err := conn.Write(tc.bytes); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		expectClosed(t, tc.name, conn)
		conn.Close()
		refused++
		malformedCount(t, agg, refused)
	}
	// A node going away between frames is not malformed input, and the
	// aggregator still serves a conforming client.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialClient(ctx, addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := c.Hello("node00", 1); err != nil || ack.Err != "" || ack.Status != statusHello {
		t.Fatalf("hello after the malformed peers: %+v, %v", ack, err)
	}
	c.Close()
	if _, err := c.Hello(string(make([]byte, maxNodeLen+1)), 1); err == nil {
		t.Fatal("a node name past maxNodeLen was sent")
	}
	malformedCount(t, agg, refused)
	if st := agg.Stats(); st.Frames != 0 {
		t.Fatalf("the malformed peers got %d frames processed, want none", st.Frames)
	}
}

// TestRefusedHelloUnbinds: a delta or bye speaks for the (node, epoch)
// of its connection's last hello, and only if the aggregator admitted
// it. After a refused one — it named another consensus, or an epoch a
// successor already owns — a delta or bye is not the push protocol,
// even on a connection an earlier hello bound: the connection closes,
// the malformed counter moves, and nothing folds or leaves.
func TestRefusedHelloUnbinds(t *testing.T) {
	sk := testSketcher(t, 64, 32, 5)
	agg, addr := serveAgg(t, sk, AggregatorOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialClient(ctx, addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// node00's epoch 2 owns its sequence space.
	if ack, err := c.PushDelta("node00", 2, 1, 1, 1, uniformDelta(t, sk, 1)); err != nil || !ack.Applied {
		t.Fatalf("seed frame: %+v, %v", ack, err)
	}
	before, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatal(err)
	}
	refused := map[string]pushRequest{
		"another consensus": {Kind: pushHello, Node: "node01", Epoch: 1, ID: testSketcher(t, 64, 32, 6).AppendIdentity(nil)},
		"a stale epoch":     {Kind: pushHello, Node: "node00", Epoch: 1},
	}
	next := map[string]pushRequest{
		"delta": {Kind: pushDelta, Window: 1, Seq: 2, Folds: 1, Payload: uniformDelta(t, sk, 2)},
		"bye":   {Kind: pushBye},
	}
	malformed := int64(0)
	for why, hello := range refused {
		for what, req := range next {
			for _, first := range []string{"", "node02"} {
				name := fmt.Sprintf("%s after a hello naming %s", what, why)
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				fr := frame.Reader{R: conn, Limits: replyLimits[:]}
				var ctx wireContext
				send := func(req pushRequest, refused bool) {
					t.Helper()
					if _, err := conn.Write(ctx.appendRequest(nil, &req)); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					_, body, err := fr.Next()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if ack, err := ctx.parseAck(body); err != nil || refused != (ack.Err != "") {
						t.Fatalf("%s: hello acked %+v, %v; want refused=%v", name, ack, err, refused)
					}
				}
				if first != "" {
					// An admitted hello first: the refused one unbinds it.
					name += " after an admitted one"
					send(pushRequest{Kind: pushHello, Node: first, Epoch: 1}, false)
				}
				send(hello, true)
				if _, err := conn.Write(ctx.appendRequest(nil, &req)); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				expectClosed(t, name, conn)
				conn.Close()
				malformed++
				malformedCount(t, agg, malformed)
			}
		}
	}
	after, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "window after the unbound frames", after, before)
	if st := agg.Stats(); st.Frames != 1 || st.Applied != 1 {
		t.Fatalf("stats %+v, want the seed frame alone", st)
	}
	for _, st := range agg.Nodes() {
		if st.State != StateLive || st.Node == "node01" {
			t.Fatalf("node %s is %s; a refused hello joined it or an unbound bye retired it", st.Node, st.State)
		}
	}
}

// TestClientSpeaksForOneNode: a Client says hello only when a push names
// a (node, epoch) its connection does not speak for already. Hello then
// PushDelta of the same pair — what a benchmark pusher does — puts one
// delta on the wire per push; a PushDelta naming another pair, or
// following a refused hello, one hello first.
func TestClientSpeaksForOneNode(t *testing.T) {
	sk := testSketcher(t, 64, 32, 5)
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
	c, err := DialClient(ctx, ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := uniformDelta(t, sk, 1)
	push := func(node string, epoch, seq uint64) func() (Ack, error) {
		return func() (Ack, error) { return c.PushDelta(node, epoch, 1, seq, 1, payload) }
	}
	limits := allKinds()
	for _, step := range []struct {
		what    string
		call    func() (Ack, error)
		refused bool
		want    []pushKind
	}{
		{"Hello(pusher, 1)", func() (Ack, error) { return c.Hello("pusher", 1) }, false, []pushKind{pushHello}},
		{"PushDelta(pusher, 1) after it", push("pusher", 1, 1), false, []pushKind{pushDelta}},
		{"PushDelta(pusher, 1) again", push("pusher", 1, 2), false, []pushKind{pushDelta}},
		{"PushDelta(other, 1)", push("other", 1, 1), false, []pushKind{pushHello, pushDelta}},
		{"PushDelta(other, 2)", push("other", 2, 1), false, []pushKind{pushHello, pushDelta}},
		{"bye()", func() (Ack, error) { return c.bye() }, false, []pushKind{pushBye}},
		{"Hello(other, 1), stale", func() (Ack, error) { return c.Hello("other", 1) }, true, []pushKind{pushHello}},
		{"PushDelta(other, 2) after the refusal", push("other", 2, 2), false, []pushKind{pushHello, pushDelta}},
		{"PushDelta(pusher, 1) back", push("pusher", 1, 3), false, []pushKind{pushHello, pushDelta}},
	} {
		var ack Ack
		_, read := tap.exchange(func() { ack, err = step.call() })
		if err != nil || step.refused != (ack.Err != "") {
			t.Fatalf("%s: %+v, %v; want refused=%v", step.what, ack, err, step.refused)
		}
		var got []pushKind
		fr := frame.Reader{R: bytes.NewReader(read), Limits: limits[:]}
		for {
			k, _, err := fr.Next()
			if err != nil {
				break
			}
			got = append(got, pushKind(k))
		}
		if fmt.Sprint(got) != fmt.Sprint(step.want) {
			t.Fatalf("%s put kinds %v on the wire, want %v", step.what, got, step.want)
		}
	}
	if st := agg.Stats(); st.Applied != 6 || st.Hellos != 6 {
		t.Fatalf("stats %+v, want 6 deltas applied after 6 hellos", st)
	}
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
// with a flipped bit, another seed, a smaller or a larger M or a
// NaN/±Inf measurement — or, as pairs, any of hostilePairs' defects — is
// acked with Err, not marked, and leaves every window bit-for-bit
// unchanged. The larger M is three measurements wider, the most whose
// frame still fits the delta's length cap; a frame past it is refused
// from its prelude (TestMalformedFramesCloseConnection's "oversized
// delta").
func TestFoldFromWire(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const m, windows = 32, 3
	foreign := ensembleSketchers(t, m, 12)
	wider := ensembleSketchers(t, m+3, 11)
	narrower := ensembleSketchers(t, m-4, 11)
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
				// The same seq first arrives damaged seven ways: each is
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
				for _, bad := range [][]byte{flipped, shaped(foreign[name]), shaped(wider[name]), shaped(narrower[name]),
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
// what the server read from them, and what it read and wrote.
type tapListener struct {
	net.Listener
	tap *wireTap
}

type wireTap struct {
	mu    sync.Mutex
	bytes int
	read  []byte
	talk  []byte // what the server read and wrote, in the order it did
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
	c.tap.talk = append(c.tap.talk, p[:n]...)
	c.tap.mu.Unlock()
	return n, err
}

// Write counts before it writes: the peer may read the bytes, return to
// the test and start the next exchange before this goroutine runs again.
func (c tapConn) Write(p []byte) (int, error) {
	c.tap.mu.Lock()
	c.tap.bytes += len(p)
	c.tap.talk = append(c.tap.talk, p...)
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
// flush): the observations themselves, 73 bytes for the whole exchange
// when they are counts and 171 when they are not, where the sketch
// frame takes 2,086 — that from the size crossover up, the frame is
// byte for byte the sketch frame a node that measured every observation
// on arrival, drained and encoded would have sent — and that on a warm
// connection those bytes do not grow with the seq or the window.
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

	// Key indices whose tag takes one varint byte (0–48) or two (64–112,
	// 1,008–1,120); counts whose varint takes one byte (1, 38), two or
	// three (8,326); and values that are not integers.
	keys := sk.Keys() // in index order
	var idx []uint64
	var counts, vals []float64
	for i := 0; i < 16; i++ {
		idx = append(idx, uint64(i*8+(i%2)*1000))
		counts = append(counts, float64(1+37*i*i))
		vals = append(vals, float64(i)-7.5)
	}
	observe := func(on interface{ Observe(string, float64) error }, n int, vals []float64) {
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
	// The node's hello was acked with window 1 and aggEpoch 1, and every
	// ack since with the seq it answers as stable: each flush's delta and
	// ack imply every field.
	frameOf := func(seq uint64, payload []byte) []byte {
		ctx := wireContext{window: 1, aggEpoch: 1, seq: seq - 1}
		return ctx.appendRequest(nil, &pushRequest{Kind: pushDelta, Window: 1, Seq: seq, Folds: 1, Payload: payload})
	}
	const (
		deltaHeader = 1                     // u8 flags
		ack         = frame.MinOverhead + 1 // u8 status
	)
	// The delta's prelude: version, kind and the body's length as a uv.
	prelude := func(payload []byte) int {
		return 2 + len(binary.AppendUvarint(nil, uint64(deltaHeader+len(payload))))
	}

	for i, c := range []struct {
		what        string
		vals        []float64
		body, total int
	}{
		// Tags 4×1 + 12×2 bytes; values 2×1 + 13×2 + 1×3 bytes, or 16×8.
		{"counts", counts, 28 + 31, 73},
		{"non-integers", vals, 28 + 128, 171},
	} {
		observe(node, 16, c.vals)
		total, read := tap.exchange(flush)
		pairs := rawPairs(sk, pairsBody(16, idx, c.vals))
		if want := 1 + 1 + c.body + 4; len(pairs) != want { // tag | uv count | pairs | CRC
			t.Fatalf("16 %s encode to %d bytes as pairs, want %d", c.what, len(pairs), want)
		}
		if !bytes.Equal(read, frameOf(uint64(1+i), pairs)) {
			t.Fatalf("a flush of 16 %s sent\n%x\nwant the observations as pairs\n%x", c.what, read, frameOf(uint64(1+i), pairs))
		}
		if want := prelude(pairs) + deltaHeader + len(pairs) + ack; total != want || want != c.total {
			t.Fatalf("a flush of 16 %s put %d bytes on the wire, want %d (= %d)", c.what, total, want, c.total)
		}
	}

	// The last count of non-integers that still travels as pairs, and the
	// first that does not: each observation at its pair's length, behind
	// the tag and a two-byte count, with the CRC, under the sketch.
	cross := 0
	for body := 0; 1+2+body+4 < csoutlier.EncodedSketchLen(256); cross++ {
		j := cross % 16
		body += len(pairsBody(0, idx[j:j+1], vals[j:j+1])) - 1
	}
	shadow := sk.NewUpdater()
	parent := sk.ZeroSketch()
	for i, n := range []int{cross - 1, cross, cross + 37} {
		observe(node, n, vals)
		observe(shadow, n, vals)
		if _, err := shadow.DrainInto(parent); err != nil {
			t.Fatal(err)
		}
		payload, err := parent.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		total, read := tap.exchange(flush)
		if i == 0 {
			if total >= prelude(payload)+deltaHeader+len(payload)+ack || !csoutlier.PairsEncoded(bodyOf(read)[deltaHeader:]) {
				t.Fatalf("%d observations, one under the crossover: %d bytes on the wire, pairs=%v", n, total, csoutlier.PairsEncoded(bodyOf(read)[deltaHeader:]))
			}
			continue
		}
		if !bytes.Equal(read, frameOf(uint64(3+i), payload)) {
			t.Fatalf("%d observations (crossover %d): the frame is not the parent's sketch frame", n, cross)
		}
		if want := prelude(payload) + deltaHeader + csoutlier.EncodedSketchLen(256) + ack; total != want || want != 2086 {
			t.Fatalf("%d observations: %d bytes on the wire, want %d (= 2086)", n, total, want)
		}
	}
	if st := node.Stats(); st.Captured != 5 || st.PairFrames != 3 || st.Applied != 5 {
		t.Fatalf("node stats %+v, want 5 captures, 3 of them pairs, all applied", st)
	}

	// A warm connection's flush of the 16 counts costs the same 73 bytes
	// at seq 1 and window 1 as at seq 2^40 and window 70000; only the
	// first delta after a jump names the seq and the window.
	c, err := DialClient(ctx, ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	counts16 := rawPairs(sk, pairsBody(16, idx, counts))
	push := func(window, seq uint64) int {
		total, _ := tap.exchange(func() {
			if ack, err := c.PushDelta("warm", 1, window, seq, 1, counts16); err != nil || !ack.Applied || ack.Window != window || ack.Stable != seq {
				t.Fatalf("push of seq %d in window %d: %+v, %v", seq, window, ack, err)
			}
		})
		return total
	}
	if _, err := c.Hello("warm", 1); err != nil {
		t.Fatal(err)
	}
	if total := push(1, 1); total != 73 || total != MinDeltaOverhead+len(counts16) {
		t.Fatalf("seq 1 in window 1: %d bytes on the wire, want 73 = MinDeltaOverhead + the payload", total)
	}
	for agg.CurrentWindow() < 70000 {
		agg.Rotate()
	}
	if total := push(70000, 1<<40-1); total <= 73 {
		t.Fatalf("the jump to seq 2^40-1 in window 70000: %d bytes on the wire, want the seq and the window named", total)
	}
	if total := push(70000, 1<<40); total != 73 {
		t.Fatalf("seq 2^40 in window 70000: %d bytes on the wire, want 73", total)
	}
}
