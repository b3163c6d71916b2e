package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"net"
	"runtime/debug"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"csoutlier/internal/frame"
	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

func sampleRequests() []request {
	return []request{
		{Kind: reqID},
		{Kind: reqSketch, Spec: sensing.Spec{Params: sensing.Params{M: 320, N: 2000, Seed: 1<<63 + 5}, Kind: sensing.KindCountSketch, D: 7}},
		{Kind: reqSketch, Spec: sensing.GaussianSpec(sensing.Params{M: 4, N: 8, Seed: 9})},
		{Kind: reqSketch, Spec: sensing.GaussianSpec(sensing.Params{M: 8, N: 1 << 24, Seed: 1})},
		{Kind: reqSketch, Spec: sensing.Spec{Params: sensing.Params{M: math.MaxInt, N: math.MaxInt, Seed: math.MaxUint64}, Kind: 0xff, D: math.MaxInt}},
	}
}

// retiredRequests are well-formed frames of the kinds the pull wire
// carried for the evaluation baselines (full vector, sample values, local
// outliers), which a node now refuses as unknown.
// bodyOf is a frame's body: what follows the version, the kind and the
// length.
func bodyOf(wire []byte) []byte {
	_, n := binary.Uvarint(wire[2:])
	return wire[2+n:]
}

// prelude is a frame's first bytes as a peer may send them, a body
// length that need not be the body's, then body.
func prelude(n uint64, version byte, kind reqKind, body ...byte) []byte {
	return append(binary.AppendUvarint([]byte{version, byte(kind)}, n), body...)
}

func retiredRequests() [][]byte {
	return [][]byte{
		frame.End(frame.Begin(nil, 0x12)),
		frame.End(append(frame.Begin(nil, 0x13), 2, 0, 7)),
		frame.End(binary.AppendUvarint(frame.AppendF64(frame.Begin(nil, 0x14), -1800.25), 12)),
	}
}

type sampleReply struct {
	kind reqKind
	resp response
}

func sampleReplies() []sampleReply {
	return []sampleReply{
		{reqID, response{Name: "dc-west"}},
		{reqID, response{Name: ""}},
		{reqSketch, response{Vec: []float64{1.5, -math.MaxFloat64, 0, math.Copysign(0, -1), 1e-300}}},
		{reqSketch, response{Vec: []float64{}}},
		{reqSketch, response{Vec: []float64{42}}},
	}
}

// TestPullWireRoundTrip: every request and reply survives encode → frame
// reader (one byte per Read) → parse, and re-encodes to the same bytes.
func TestPullWireRoundTrip(t *testing.T) {
	var stream []byte
	reqs := sampleRequests()
	for i := range reqs {
		stream = append(stream, appendRequest(nil, &reqs[i])...)
	}
	fr := frame.Reader{R: iotest.OneByteReader(bytes.NewReader(stream)), Limits: requestLimits[:]}
	var got request
	for i := range reqs {
		if err := readRequest(&fr, &got); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !bytes.Equal(appendRequest(nil, &got), appendRequest(nil, &reqs[i])) {
			t.Fatalf("request %d: parsed %+v, sent %+v", i, got, reqs[i])
		}
	}
	if err := readRequest(&fr, &got); err != io.EOF {
		t.Fatalf("after the last request: %v, want io.EOF", err)
	}

	for _, r := range sampleReplies() {
		kind, want := r.kind, r.resp
		wire := appendReply(nil, kind, &want)
		var resp response
		if err := parseReply(kind, bodyOf(wire), &resp); err != nil {
			t.Fatalf("reply to kind %d: %v", kind, err)
		}
		if !bytes.Equal(appendReply(nil, kind, &resp), wire) {
			t.Fatalf("reply to kind %d: parsed %+v, sent %+v", kind, resp, want)
		}
		if len(bodyOf(wire)) > replyLimit(&request{Kind: kind, Spec: sensing.Spec{Params: sensing.Params{M: len(want.Vec)}}}) {
			t.Fatalf("reply to kind %d is over its own limit", kind)
		}
	}
	// Floats travel by their bits.
	sk := sampleReplies()[2].resp
	var resp response
	if err := parseReply(reqSketch, bodyOf(appendReply(nil, reqSketch, &sk)), &resp); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(resp.Vec, sk.Vec) {
		t.Fatalf("vector changed on the wire: %v → %v", sk.Vec, resp.Vec)
	}
	// An error reply is an error whatever was asked, and is cut, not
	// refused, when its text is long.
	long := response{Err: strings.Repeat("x", 3*maxReplyText)}
	wire := appendReply(nil, reqSketch, &long)
	if err := parseReply(reqSketch, bodyOf(wire), &resp); err != nil || resp.Err != long.Err[:maxReplyText] || resp.Vec != nil {
		t.Fatalf("error reply: %+v, %v", resp, err)
	}
	if len(bodyOf(wire)) > replyLimit(&request{Kind: reqSketch, Spec: sensing.Spec{Params: sensing.Params{M: 1}}}) {
		t.Fatal("a cut error text does not fit the smallest sketch reply limit")
	}
	// A payload the client would refuse goes out as the error instead.
	big := response{Name: strings.Repeat("n", maxReplyText+1)}
	if err := parseReply(reqID, bodyOf(appendReply(nil, reqID, &big)), &resp); err != nil || resp.Err == "" {
		t.Fatalf("oversized name: %+v, %v", resp, err)
	}
}

// TestSketchExchangeWireBytes pins what the paper's round puts on the
// wire per node: 8·M bytes of sketch plus framing, no type descriptors,
// after an id request that is a bare prelude at every frame.Version.
func TestSketchExchangeWireBytes(t *testing.T) {
	spec := sensing.GaussianSpec(sensing.Params{M: 320, N: 2000, Seed: 1})
	node := NewLocalNode("dc", make(linalg.Vector, spec.N))
	rn, err := dial(startServer(t, node))
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	wrote, read := rn.bytesWritten.Load(), rn.bytesRead.Load()
	if wrote != frame.MinOverhead {
		t.Fatalf("id request took %d bytes, want %d", wrote, frame.MinOverhead)
	}
	if _, err := rn.Sketch(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	req, _ := SketchRequestFrame(spec)
	if got, want := rn.bytesWritten.Load()-wrote, int64(len(req)); got != want {
		t.Fatalf("request took %d bytes, want %d", got, want)
	}
	body := 1 + 8*spec.M // status | M f64s, behind version | kind | uv length
	if got, want := rn.bytesRead.Load()-read, int64(2+len(binary.AppendUvarint(nil, uint64(body)))+body); got != want {
		t.Fatalf("reply took %d bytes, want %d", got, want)
	}
}

func expectClosed(t *testing.T, what string, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// EOF, or a reset when the node closed with part of the peer's bytes
	// unread; never an answer, never a connection left open.
	if n, err := conn.Read(make([]byte, 64)); err == nil || n != 0 {
		t.Fatalf("%s: read %d bytes, err %v; want a closed connection", what, n, err)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("%s: connection left open (read timed out)", what)
	}
}

// TestMalformedRequestsCloseConnection: input no conforming aggregator
// produces closes the connection without an answer, and the node keeps
// serving.
func TestMalformedRequestsCloseConnection(t *testing.T) {
	node := NewLocalNode("dc", make(linalg.Vector, 8))
	addr := startServer(t, node)
	sketch, _ := SketchRequestFrame(sensing.GaussianSpec(sensing.Params{M: 4, N: 8, Seed: 9}))
	// uv M past MaxInt, then uv N, u64 seed, u8 ensemble, uv D.
	overM := append(binary.AppendUvarint(nil, math.MaxUint64), append([]byte{8}, make([]byte, 8+1+1)...)...)
	cases := []struct {
		name      string
		bytes     []byte
		closeSend bool // half-close after writing: the frame is cut short
	}{
		{"unknown version", prelude(0, 9, reqID), false},
		{"unknown kind", prelude(0, frame.Version, 77), false},
		{"a push-protocol kind", prelude(2, frame.Version, 1, 0, 1), false},
		{"reply kind as a request", prelude(1, frame.Version, kindReply, replyOK), false},
		{"retired full-vector kind 0x12", retiredRequests()[0], false},
		{"retired sample kind 0x13", retiredRequests()[1], false},
		{"retired local-outliers kind 0x14", retiredRequests()[2], false},
		{"oversized spec", prelude(1<<20, frame.Version, reqSketch), false},
		{"id request with a body", prelude(1, frame.Version, reqID, 0), false},
		{"truncated spec", sketch[:len(sketch)-2], true},
		{"truncated prelude", sketch[:2], true},
		{"length longer than it needs", []byte{frame.Version, byte(reqID), 0x80, 0x00}, false},
		{"the u32 length of version 4", append([]byte{0, 0, 0, 0, 4}, byte(reqID)), false},
		{"trailing byte after a spec", prelude(uint64(len(bodyOf(sketch))+1), frame.Version, reqSketch, append(bodyOf(sketch), 0)...), false},
		{"varint runs off the body", prelude(1, frame.Version, reqSketch, 0x80), false},
		{"M past MaxInt", prelude(uint64(len(overM)), frame.Version, reqSketch, overM...), false},
		{"garbage", GarbageFrame(), false},
	}
	for _, tc := range cases {
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
	}
	// An invalid spec is a well-formed request: answered with an error on
	// a connection that stays up (Spec.Validate runs before anything is
	// sized from it).
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad := appendRequest(nil, &request{Kind: reqSketch, Spec: sensing.Spec{Params: sensing.Params{M: 1 << 40, N: 8}}})
	for i := 0; i < 2; i++ {
		if _, err := conn.Write(bad); err != nil {
			t.Fatal(err)
		}
		limits := [kindReply + 1]int{kindReply: 1 + maxReplyText}
		fr := frame.Reader{R: conn, Limits: limits[:]}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, body, err := fr.Next()
		var resp response
		if err == nil {
			err = parseReply(reqSketch, body, &resp)
		}
		if err != nil || !strings.Contains(resp.Err, "exceeds N") {
			t.Fatalf("invalid spec, round %d: %+v, %v", i, resp, err)
		}
	}
	rn, err := dial(addr)
	if err != nil {
		t.Fatalf("dial after the malformed peers: %v", err)
	}
	rn.Close()
}

// scriptedServer accepts connections and answers every request frame it
// reads with the same bytes.
func scriptedServer(t *testing.T, answer func(kind reqKind) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				fr := frame.Reader{R: conn, Limits: requestLimits[:]}
				var req request
				for readRequest(&fr, &req) == nil {
					if _, err := conn.Write(answer(req.Kind)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClientRejectsHostileReplies: a reply over the cap the client derived
// from its own request, of the wrong kind, that does not parse or that
// carries a non-finite value fails the one exchange — no allocation sized
// by the peer, no hang, no retry.
func TestClientRejectsHostileReplies(t *testing.T) {
	const m = 4
	spec := sensing.GaussianSpec(sensing.Params{M: m, N: 8, Seed: 9})
	okID := appendReply(nil, reqID, &response{Name: "dc"})
	reply := func(body ...byte) []byte { return frame.End(append(frame.Begin(nil, uint8(kindReply)), body...)) }
	overCap := prelude(uint64(1+max(8*m, maxReplyText)+1), frame.Version, kindReply) // one past the cap; no body follows
	cases := map[string][]byte{
		"over the cap from M":  overCap,
		"request kind back":    frame.End(frame.Begin(nil, uint8(reqSketch))),
		"unknown status":       reply(7),
		"empty body":           reply(),
		"ragged vector":        reply(replyOK, 1, 2, 3),
		"garbage":              GarbageFrame(),
		"another wire version": {9, byte(kindReply), 1, replyOK},
		"version 4's prelude":  {1, 0, 0, 0, 4, byte(kindReply), replyOK},
	}
	// A vector that parses but would poison the round's sum.
	for name, v := range map[string]float64{"NaN in the vector": math.NaN(), "+Inf in the vector": math.Inf(1), "-Inf in the vector": math.Inf(-1)} {
		cases[name] = appendReply(nil, reqSketch, &response{Vec: linalg.Vector{1, v, 3, 4}})
	}
	req, _ := SketchRequestFrame(spec)
	for name, bad := range cases {
		addr := scriptedServer(t, func(kind reqKind) []byte {
			if kind == reqID {
				return okID
			}
			return bad
		})
		rn, err := dial(addr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := rn.bytesWritten.Load()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		if y, err := rn.Sketch(ctx, spec); err == nil {
			t.Fatalf("%s: accepted as a sketch: %v", name, y)
		}
		cancel()
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: took %v to fail", name, d)
		}
		if got := rn.bytesWritten.Load() - before; got != int64(len(req)) {
			t.Fatalf("%s: sent %d bytes, want one %d-byte request", name, got, len(req))
		}
		rn.Close()
	}
}

// TestClientRefusesUnsendableRequests: a spec no node would accept fails
// before the round-trip, and the connection stays usable.
func TestClientRefusesUnsendableRequests(t *testing.T) {
	node := NewLocalNode("dc", make(linalg.Vector, 8))
	rn, err := dial(startServer(t, node))
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	ctx := context.Background()
	before := rn.bytesWritten.Load()
	for name, spec := range map[string]sensing.Spec{
		"negative M":   {Params: sensing.Params{M: -4, N: 8}},
		"M past N":     {Params: sensing.Params{M: 9, N: 8}},
		"unknown kind": {Params: sensing.Params{M: 4, N: 8}, Kind: 2},
		"negative D":   {Params: sensing.Params{M: 4, N: 8}, Kind: sensing.KindCountSketch, D: -1},
	} {
		if _, err := rn.Sketch(ctx, spec); err == nil {
			t.Fatalf("%s sent", name)
		}
	}
	if got := rn.bytesWritten.Load() - before; got != 0 {
		t.Fatalf("%d bytes sent for requests that cannot be sent", got)
	}
	if y, err := rn.Sketch(ctx, sensing.GaussianSpec(sensing.Params{M: 4, N: 8, Seed: 1})); err != nil || len(y) != 4 {
		t.Fatalf("the connection did not survive the refusals: %v, %v", y, err)
	}
}

// TestGobPeerGetsCleanClose: a peer from before the binary frames (the
// transport spoke encoding/gob) gets no answer in a format it would
// misread. A node disconnects it at its first message; a client that
// dials one gives up within its deadline.
func TestGobPeerGetsCleanClose(t *testing.T) {
	type oldRequest struct {
		Kind    uint8
		Spec    sensing.Spec
		Indices []int
		Mode    float64
		Count   int
	}
	addr := startServer(t, NewLocalNode("dc", make(linalg.Vector, 8)))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One Write: the node hangs up at the first prelude, and a second
	// Write into that would fail before the close is observed.
	var first bytes.Buffer
	if err := gob.NewEncoder(&first).Encode(&oldRequest{Kind: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(first.Bytes()); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, "gob client", conn)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var req oldRequest
				if gob.NewDecoder(conn).Decode(&req) != nil {
					return
				}
				gob.NewEncoder(conn).Encode(&response{Name: "old"})
			}()
		}
	}()
	expectBoundedRefusal(t, "a gob-speaking node", ln.Addr().String())
}

// TestVersion4NodeGetsCleanClose: a node that reads six bytes (a u32
// length, a version and a kind) before it judges a frame waits past the
// three-byte id request; the client gives up within its deadline.
func TestVersion4NodeGetsCleanClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var p [6]byte
				if _, err := io.ReadFull(conn, p[:]); err != nil || p[4] != 4 {
					return
				}
				conn.Write([]byte{3, 0, 0, 0, 4, byte(kindReply), replyOK, 'o', 'l'})
			}()
		}
	}()
	expectBoundedRefusal(t, "a version-4 node", ln.Addr().String())
}

// expectBoundedRefusal dials a node at addr that speaks another protocol
// and waits for a byte the id request does not carry: the dial fails
// within its deadline, with a timeout that names addr. Which of the
// connection's and the context's deadline ends it first is a race, so
// the text is not pinned.
func expectBoundedRefusal(t *testing.T, what, addr string) {
	t.Helper()
	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	rn, err := Dial(ctx, addr)
	if err == nil {
		rn.Close()
		t.Fatalf("dialed %s", what)
	}
	if d := time.Since(start); d > deadline+time.Second {
		t.Fatalf("took %v to give up on %s", d, what)
	}
	if !isTimeout(err) || !strings.Contains(err.Error(), addr) {
		t.Fatalf("dial of %s: %v; want a timeout naming %s", what, err, addr)
	}
}

// TestRemoteSketchExchangeAllocs pins the client side of one loopback
// sketch exchange on a live connection: the returned vector, plus the
// cancel callback context.AfterFunc registers, its closure and its stop
// function.
func TestRemoteSketchExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	spec := sensing.GaussianSpec(sensing.Params{M: 320, N: 2000, Seed: 1})
	rn, err := dial(startServer(t, NewLocalNode("dc", make(linalg.Vector, spec.N))))
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := rn.Sketch(ctx, spec); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// AllocsPerRun counts process-wide: the serving goroutine's one
	// allocation per request (the sketch it measures) is in the number.
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := rn.Sketch(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4+1 {
		t.Fatalf("one sketch exchange allocates %.1f objects, want <= 4 on the client + 1 on the node", allocs)
	}
}

func FuzzRequestFrame(f *testing.F) {
	for _, req := range sampleRequests() {
		wire := appendRequest(nil, &req)
		f.Add(wire)
		f.Add(wire[:len(wire)/2])
		f.Add(prelude(1<<31, wire[0], reqKind(wire[1]), bodyOf(wire)...))
	}
	for _, wire := range retiredRequests() {
		f.Add(wire)
	}
	f.Add(GarbageFrame())
	f.Add(prelude(1, frame.Version, reqID, 0)) // an id request with a body
	f.Add(prelude(1, frame.Version, reqSketch, 0x80))
	f.Add([]byte{frame.Version, byte(reqSketch), 0x81, 0x00, 0x80}) // a length longer than it needs
	f.Add([]byte{1, 0, 0, 0, 4, byte(reqSketch), 0x80})             // version 4's u32 length
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := frame.Reader{R: bytes.NewReader(data), Limits: requestLimits[:]}
		var req request
		for {
			err := readRequest(&fr, &req)
			if cap(fr.Buf) > max(maxSpecBody, frame.MaxOverhead) {
				t.Fatalf("read buffer grew to %d bytes, past the largest request", cap(fr.Buf))
			}
			if err != nil {
				return
			}
			if req.Kind != reqID && req.Kind != reqSketch {
				t.Fatalf("kind %d accepted; the wire carries id and sketch requests only", req.Kind)
			}
			// What parses re-encodes to a frame that parses to the same.
			canon := appendRequest(nil, &req)
			var again request
			if err := parseRequest(req.Kind, bodyOf(canon), &again); err != nil || again != req {
				t.Fatalf("kind %d: %+v re-parsed as %+v, %v", req.Kind, req, again, err)
			}
		}
	})
}

// FuzzReplyFrame drives the client-side reply parser with arbitrary
// bodies for both request kinds.
func FuzzReplyFrame(f *testing.F) {
	for _, r := range sampleReplies() {
		wire := appendReply(nil, r.kind, &r.resp)
		body := bodyOf(wire)
		f.Add(byte(r.kind), body)
		f.Add(byte(r.kind), body[:len(body)-1])
	}
	f.Add(byte(reqSketch), bodyOf(appendReply(nil, reqSketch, &response{Err: "cluster: no"})))
	f.Add(byte(reqSketch), GarbageFrame())
	f.Add(byte(reqID), append([]byte{replyOK}, strings.Repeat("n", maxReplyText+1)...))
	f.Fuzz(func(t *testing.T, k byte, body []byte) {
		kind := reqKind(k)
		if kind != reqID && kind != reqSketch {
			return
		}
		var resp response
		if err := parseReply(kind, body, &resp); err != nil {
			if !errors.Is(err, frame.ErrMalformed) {
				t.Fatalf("kind %d: %v", kind, err)
			}
			return
		}
		if 8*len(resp.Vec) > len(body) || len(resp.Name)+len(resp.Err) > len(body)+64 {
			t.Fatalf("kind %d: a %d-byte body decoded to more than it holds: %d values", kind, len(body), len(resp.Vec))
		}
		if resp.Err != "" {
			return
		}
		// What parses re-encodes to a body that parses to the same bits.
		canon := bodyOf(appendReply(nil, kind, &resp))
		var again response
		if err := parseReply(kind, canon, &again); err != nil || again.Name != resp.Name || !bitsEqual(again.Vec, resp.Vec) {
			t.Fatalf("kind %d: %+v re-parsed as %+v, %v", kind, resp, again, err)
		}
	})
}
