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
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"csoutlier/internal/frame"
	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/sensing"
)

func sampleRequests() []request {
	return []request{
		{Kind: reqID},
		{Kind: reqSketch, Spec: sensing.Spec{Params: sensing.Params{M: 320, N: 2000, Seed: 1<<63 + 5}, Kind: sensing.KindCountSketch, D: 7}},
		{Kind: reqFull},
		{Kind: reqSample, Indices: []int{0, 7, 1 << 20, 3}},
		{Kind: reqSample, Indices: []int{}},
		{Kind: reqOutliers, Mode: -1800.25, Count: 12},
	}
}

func sampleReplies() map[reqKind]response {
	return map[reqKind]response{
		reqID:       {Name: "dc-west"},
		reqSketch:   {Vec: []float64{1.5, -math.MaxFloat64, 0, math.Copysign(0, -1), 1e-300}},
		reqFull:     {Vec: []float64{}},
		reqSample:   {Vec: []float64{42}},
		reqOutliers: {KVs: []outlier.KV{{Index: 0, Value: -3}, {Index: 1 << 30, Value: 9.75}}},
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

	for kind, want := range sampleReplies() {
		wire := appendReply(nil, kind, &want)
		var resp response
		if err := parseReply(kind, wire[frame.Overhead:], &resp); err != nil {
			t.Fatalf("reply to kind %d: %v", kind, err)
		}
		if !bytes.Equal(appendReply(nil, kind, &resp), wire) {
			t.Fatalf("reply to kind %d: parsed %+v, sent %+v", kind, resp, want)
		}
		if len(wire)-frame.Overhead > replyLimit(&request{Kind: kind, Spec: sensing.Spec{Params: sensing.Params{M: len(want.Vec)}}, Indices: make([]int, len(want.Vec)), Count: len(want.KVs)}) {
			t.Fatalf("reply to kind %d is over its own limit", kind)
		}
	}
	// Floats travel by their bits.
	sk := sampleReplies()[reqSketch]
	var resp response
	if err := parseReply(reqSketch, appendReply(nil, reqSketch, &sk)[frame.Overhead:], &resp); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(resp.Vec, sk.Vec) {
		t.Fatalf("vector changed on the wire: %v → %v", sk.Vec, resp.Vec)
	}
	// An error reply is an error whatever was asked, and is cut, not
	// refused, when its text is long.
	long := response{Err: strings.Repeat("x", 3*maxReplyText)}
	wire := appendReply(nil, reqSketch, &long)
	if err := parseReply(reqSketch, wire[frame.Overhead:], &resp); err != nil || resp.Err != long.Err[:maxReplyText] || resp.Vec != nil {
		t.Fatalf("error reply: %+v, %v", resp, err)
	}
	if len(wire)-frame.Overhead > replyLimit(&request{Kind: reqSketch, Spec: sensing.Spec{Params: sensing.Params{M: 1}}}) {
		t.Fatal("a cut error text does not fit the smallest sketch reply limit")
	}
	// A payload the client would refuse goes out as the error instead.
	big := response{Name: strings.Repeat("n", maxReplyText+1)}
	if err := parseReply(reqID, appendReply(nil, reqID, &big)[frame.Overhead:], &resp); err != nil || resp.Err == "" {
		t.Fatalf("oversized name: %+v, %v", resp, err)
	}
}

// TestSketchExchangeWireBytes pins what the paper's round puts on the
// wire per node: 8·M bytes of sketch plus framing, no type descriptors.
func TestSketchExchangeWireBytes(t *testing.T) {
	spec := sensing.GaussianSpec(sensing.Params{M: 320, N: 2000, Seed: 1})
	node := NewLocalNode("dc", make(linalg.Vector, spec.N))
	rn, err := Dial(startServer(t, node))
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	before := rn.Health()
	if _, err := rn.Sketch(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	after := rn.Health()
	req, _ := SketchRequestFrame(spec)
	if got, want := after.BytesWritten-before.BytesWritten, int64(len(req)); got != want {
		t.Fatalf("request took %d bytes, want %d", got, want)
	}
	if got, want := after.BytesRead-before.BytesRead, int64(frame.Overhead+1+8*spec.M); got != want {
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
	prelude := func(n uint32, version byte, kind reqKind, body ...byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), append([]byte{version, byte(kind)}, body...)...)
	}
	sketch, _ := SketchRequestFrame(sensing.GaussianSpec(sensing.Params{M: 4, N: 8, Seed: 9}))
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	cases := []struct {
		name      string
		bytes     []byte
		closeSend bool // half-close after writing: the frame is cut short
	}{
		{"unknown version", prelude(0, 9, reqID), false},
		{"unknown kind", prelude(0, frame.Version, 77), false},
		{"a push-protocol kind", prelude(2, frame.Version, 1, 0, 1), false},
		{"reply kind as a request", prelude(1, frame.Version, kindReply, replyOK), false},
		{"oversized sample list", prelude(MaxRequestBytes+1, frame.Version, reqSample), false},
		{"oversized spec", prelude(1<<20, frame.Version, reqSketch), false},
		{"body on an id request", prelude(1, frame.Version, reqID, 0), false},
		{"truncated spec", sketch[:len(sketch)-2], true},
		{"truncated prelude", sketch[:3], true},
		{"trailing byte after a spec", append(prelude(uint32(len(sketch)-frame.Overhead+1), frame.Version, reqSketch), append(sketch[frame.Overhead:], 0)...), false},
		{"more indices than bytes", prelude(2, frame.Version, reqSample, 200, 1), false},
		{"varint runs off the body", prelude(2, frame.Version, reqSample, 1, 0x80), false},
		{"index past MaxInt", prelude(uint32(1+len(huge)), frame.Version, reqSample, append([]byte{1}, huge...)...), false},
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
	rn, err := Dial(addr)
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
// carries a non-finite value fails the exchange after a bounded number
// of attempts — no allocation sized
// by the peer, no hang, no retry storm.
func TestClientRejectsHostileReplies(t *testing.T) {
	const m = 4
	spec := sensing.GaussianSpec(sensing.Params{M: m, N: 8, Seed: 9})
	okID := appendReply(nil, reqID, &response{Name: "dc"})
	reply := func(body ...byte) []byte { return frame.End(append(frame.Begin(nil, uint8(kindReply)), body...)) }
	overCap := frame.Begin(nil, uint8(kindReply))
	binary.LittleEndian.PutUint32(overCap, uint32(1+max(8*m, maxReplyText)+1)) // one past the cap; no body follows
	cases := map[string][]byte{
		"over the cap from M":  overCap,
		"request kind back":    frame.End(frame.Begin(nil, uint8(reqSketch))),
		"unknown status":       reply(7),
		"empty body":           reply(),
		"ragged vector":        reply(replyOK, 1, 2, 3),
		"garbage":              GarbageFrame(),
		"another wire version": {1, 0, 0, 0, 9, byte(kindReply), replyOK},
	}
	// A vector that parses but would poison the round's sum.
	for name, v := range map[string]float64{"NaN in the vector": math.NaN(), "+Inf in the vector": math.Inf(1), "-Inf in the vector": math.Inf(-1)} {
		cases[name] = appendReply(nil, reqSketch, &response{Vec: linalg.Vector{1, v, 3, 4}})
	}
	for name, bad := range cases {
		addr := scriptedServer(t, func(kind reqKind) []byte {
			if kind == reqID {
				return okID
			}
			return bad
		})
		rn, err := DialContext(context.Background(), addr, DialOptions{MaxRetries: 2, BaseBackoff: time.Millisecond, RequestTimeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := rn.Health().Attempts
		start := time.Now()
		if y, err := rn.Sketch(context.Background(), spec); err == nil {
			t.Fatalf("%s: accepted as a sketch: %v", name, y)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: took %v to fail", name, d)
		}
		if got := rn.Health().Attempts - before; got != 3 {
			t.Fatalf("%s: %d attempts, want MaxRetries+1 = 3", name, got)
		}
		rn.Close()
	}
	// A KV reply is checked entry by entry.
	var resp response
	for name, body := range map[string][]byte{
		"cut value":      {replyOK, 3, 1, 2},
		"index past int": append([]byte{replyOK}, append(binary.AppendUvarint(nil, math.MaxUint64), make([]byte, 8)...)...),
		"NaN value":      appendReply(nil, reqOutliers, &response{KVs: []outlier.KV{{Index: 1, Value: 2}, {Index: 3, Value: math.NaN()}}})[frame.Overhead:],
		"Inf value":      appendReply(nil, reqOutliers, &response{KVs: []outlier.KV{{Index: 3, Value: math.Inf(-1)}}})[frame.Overhead:],
	} {
		if err := parseReply(reqOutliers, body, &resp); !errors.Is(err, frame.ErrMalformed) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestClientRefusesUnsendableRequests: what has no wire form, or would be
// refused by any node's request cap, fails before the round-trip.
func TestClientRefusesUnsendableRequests(t *testing.T) {
	node := NewLocalNode("dc", make(linalg.Vector, 8))
	rn, err := Dial(startServer(t, node))
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	ctx := context.Background()
	before := rn.Health().Attempts
	if _, err := rn.SampleValues(ctx, []int{1, -1}); err == nil {
		t.Fatal("negative sample index sent")
	}
	if _, err := rn.SampleValues(ctx, make([]int, MaxRequestBytes)); err == nil || !strings.Contains(err.Error(), "split") {
		t.Fatalf("oversized sample list: %v", err)
	}
	if _, err := rn.Sketch(ctx, sensing.Spec{Params: sensing.Params{M: -4, N: 8}}); err == nil {
		t.Fatal("negative M sent")
	}
	if got := rn.Health().Attempts - before; got != 0 {
		t.Fatalf("%d round-trips for requests that cannot be sent", got)
	}
	if kvs, err := rn.LocalOutliers(ctx, 0, -3); err != nil || len(kvs) != 0 {
		t.Fatalf("negative count: %v, %v", kvs, err)
	}
	if vs, err := rn.SampleValues(ctx, []int{3}); err != nil || len(vs) != 1 {
		t.Fatalf("the connection did not survive the refusals: %v, %v", vs, err)
	}
}

// TestGobPeerGetsCleanClose: a peer from before the binary frames (the
// transport spoke encoding/gob) is disconnected at its first message in
// either role — no hang, no answer in a format it would misread, and a
// bounded number of attempts from a client that dialed one.
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
	start := time.Now()
	rn, err := DialContext(context.Background(), ln.Addr().String(), DialOptions{MaxRetries: 1, BaseBackoff: time.Millisecond, RequestTimeout: 2 * time.Second})
	if err == nil {
		rn.Close()
		t.Fatal("dialed a gob-speaking node")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("took %v to give up on a gob-speaking node", d)
	}
	if !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Fatalf("dial error: %v", err)
	}
}

// TestRemoteSketchExchangeAllocs pins the client side of one loopback
// sketch exchange on a live connection: the returned vector, plus the
// deadline watchdog's goroutine closure and its two channels.
func TestRemoteSketchExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	spec := sensing.GaussianSpec(sensing.Params{M: 320, N: 2000, Seed: 1})
	rn, err := Dial(startServer(t, NewLocalNode("dc", make(linalg.Vector, spec.N))))
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
		long := append([]byte(nil), wire...)
		binary.LittleEndian.PutUint32(long, 1<<31)
		f.Add(long)
	}
	f.Add(GarbageFrame())
	f.Add([]byte{2, 0, 0, 0, frame.Version, byte(reqSample), 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := frame.Reader{R: bytes.NewReader(data), Limits: requestLimits[:]}
		var req request
		for {
			err := readRequest(&fr, &req)
			if cap(fr.Buf) > MaxRequestBytes+frame.Overhead {
				t.Fatalf("read buffer grew to %d bytes, past the largest request", cap(fr.Buf))
			}
			if err != nil {
				return
			}
			if cap(req.Indices) > len(data) {
				t.Fatalf("%d-byte input sized a list of %d indices", len(data), cap(req.Indices))
			}
			// What parses re-encodes to a frame that parses to the same.
			canon := appendRequest(nil, &req)
			var again request
			if err := parseRequest(req.Kind, canon[frame.Overhead:], &again); err != nil || !reflect.DeepEqual(normalize(again), normalize(req)) {
				t.Fatalf("kind %d: %+v re-parsed as %+v, %v", req.Kind, req, again, err)
			}
		}
	})
}

func normalize(r request) request {
	if len(r.Indices) == 0 {
		r.Indices = nil
	}
	if r.Mode != r.Mode {
		r.Mode = 0 // NaN payloads travel by their bits; DeepEqual cannot compare them
	}
	return r
}

// FuzzReplyFrame drives the client-side reply parser with arbitrary
// bodies for every request kind.
func FuzzReplyFrame(f *testing.F) {
	for kind, resp := range sampleReplies() {
		wire := appendReply(nil, kind, &resp)
		f.Add(byte(kind), wire[frame.Overhead:])
		f.Add(byte(kind), wire[frame.Overhead:len(wire)-1])
	}
	f.Add(byte(reqSketch), appendReply(nil, reqSketch, &response{Err: "cluster: no"})[frame.Overhead:])
	f.Add(byte(reqOutliers), GarbageFrame())
	f.Fuzz(func(t *testing.T, k byte, body []byte) {
		kind := reqKind(k)
		if kind < reqID || kind > reqOutliers {
			return
		}
		var resp response
		if err := parseReply(kind, body, &resp); err != nil {
			if !errors.Is(err, frame.ErrMalformed) {
				t.Fatalf("kind %d: %v", kind, err)
			}
			return
		}
		if 8*len(resp.Vec) > len(body) || 9*cap(resp.KVs) > len(body) || len(resp.Name)+len(resp.Err) > len(body)+64 {
			t.Fatalf("kind %d: a %d-byte body decoded to more than it holds: %d values, %d pairs", kind, len(body), len(resp.Vec), cap(resp.KVs))
		}
		if resp.Err != "" {
			return
		}
		// What parses re-encodes to a body that parses to the same bits.
		canon := appendReply(nil, kind, &resp)[frame.Overhead:]
		var again response
		if err := parseReply(kind, canon, &again); err != nil || again.Name != resp.Name ||
			!bitsEqual(again.Vec, resp.Vec) || len(again.KVs) != len(resp.KVs) {
			t.Fatalf("kind %d: %+v re-parsed as %+v, %v", kind, resp, again, err)
		}
	})
}
