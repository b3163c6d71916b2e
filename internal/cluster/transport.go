package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"csoutlier/internal/frame"
	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// The TCP transport speaks a small request/response protocol over a
// persistent connection: the aggregator (client) writes one request
// frame, the node (server) answers with one reply frame. This is the
// real-network counterpart of LocalNode, used by cmd/csnode and
// cmd/csagg; the geo-distributed deployment of the paper's §1 maps one
// csnode process to one data center.
//
// Every frame, in either direction, is internal/frame's prelude
// (version, kind, uv body length) and a body, laid out per kind:
//
//	id      0x10  (empty)
//	sketch  0x11  uv M | uv N | u64 seed | u8 ensemble | uv D
//	reply   0x15  u8 status (1 ok, 0 error), then for an error its text and
//	              for an ok what the request asked for, each to the end of
//	              the body: the node's name (id) or raw f64 values (sketch)
//
// uv is an unsigned varint, u64 and f64 are little-endian. It is the push
// protocol's framing (internal/stream/wire.go) with its own kinds: one
// codec, no negotiation, and a sketch costs its 8·M bytes plus 5 on the
// wire (M from 16 to 2,047). Every body length is capped before the body is read — a request
// by requestLimits, a reply by the client from what it asked for
// (replyLimit) — and a peer that sends anything else (another version,
// an unknown kind, an oversized, truncated or trailing field) is
// disconnected.
//
// Failure is treated as the normal case (§1 challenges 2–3): every
// exchange runs under its caller's deadline, and a connection that
// errored mid-exchange is poisoned (a half-read frame would desync every
// later request), so the node's next exchange dials a fresh one. The
// client makes one exchange per call; retrying is the collector's
// (collect.go), the one retry loop on the pull path.

// ServeOptions tunes the node-side server.
type ServeOptions struct {
	// IdleTimeout bounds how long a connection may sit between requests
	// (and how long one request frame may take to arrive). 0 = no limit.
	IdleTimeout time.Duration
}

// Serve answers NodeAPI requests for node on the listener until the
// listener is closed. It returns the first accept error (including the
// closed-listener error on shutdown).
func Serve(ln net.Listener, node NodeAPI) error {
	return ServeWith(ln, node, ServeOptions{})
}

// ServeWith is Serve with explicit timeouts.
func ServeWith(ln net.Listener, node NodeAPI, opts ServeOptions) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go serveConn(conn, node, opts)
	}
}

func serveConn(conn net.Conn, node NodeAPI, opts ServeOptions) {
	defer conn.Close()
	var arm, disarm func()
	if opts.IdleTimeout > 0 {
		arm = func() { conn.SetReadDeadline(time.Now().Add(opts.IdleTimeout)) }
		disarm = func() { conn.SetReadDeadline(time.Time{}) }
	}
	serveFrames(conn, conn, node, arm, disarm)
}

// ServeStream answers request frames decoded from r with response frames
// encoded to w, until r ends or yields bytes that are not a frame. It is
// the transport's frame loop detached from TCP: the fuzz target for the
// frame decoder drives it with arbitrary bytes, and in-process tests can
// run the exact server path over any io.Reader/io.Writer pair. It takes
// no ServeOptions: there is no connection to arm an idle deadline on.
func ServeStream(r io.Reader, w io.Writer, node NodeAPI) {
	serveFrames(r, w, node, nil, nil)
}

// SketchRequestFrame encodes the wire frame of a sketch request for the
// given spec — the aggregator's hot message. Exposed so fuzz corpora and
// protocol tests can construct valid frames without a live connection.
func SketchRequestFrame(spec sensing.Spec) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return appendRequest(nil, &request{Kind: reqSketch, Spec: spec}), nil
}

// serveFrames is the protocol loop shared by the TCP server and
// ServeStream: decode one request, handle it, encode one response.
// arm/disarm, when non-nil, run before and after each frame decode (the
// TCP path uses them for the idle deadline).
func serveFrames(r io.Reader, w io.Writer, node NodeAPI, arm, disarm func()) {
	fr := frame.Reader{R: r, Limits: requestLimits[:]}
	var (
		req  request
		wbuf []byte
	)
	for {
		if arm != nil {
			arm()
		}
		if err := readRequest(&fr, &req); err != nil {
			return // client went away (io.EOF), idled out, or sent garbage
		}
		if disarm != nil {
			disarm()
		}
		resp := handle(node, &req)
		wbuf = appendReply(wbuf, req.Kind, &resp)
		if _, err := w.Write(wbuf); err != nil {
			return
		}
	}
}

// readRequest reads and decodes the next request frame.
func readRequest(fr *frame.Reader, req *request) error {
	kind, body, err := fr.Next()
	if err != nil {
		return err
	}
	return parseRequest(reqKind(kind), body, req)
}

func handle(node NodeAPI, req *request) response {
	switch req.Kind {
	case reqID:
		return response{Name: node.ID()}
	case reqSketch:
		// The spec crossed the wire: validate before it sizes allocations.
		if err := req.Spec.Validate(); err != nil {
			return response{Err: err.Error()}
		}
		y, err := node.Sketch(context.Background(), req.Spec)
		if err != nil {
			return response{Err: err.Error()}
		}
		return response{Vec: y}
	default: // unreachable: the frame reader accepts no other kind
		return response{Err: fmt.Sprintf("cluster: unknown request kind %d", req.Kind)}
	}
}

// countingConn counts raw wire bytes into a RemoteNode's counters.
type countingConn struct {
	net.Conn
	r, w *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.r.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.Add(int64(n))
	return n, err
}

// RemoteNode is a NodeAPI over a TCP connection to a Serve-d node. Each
// call is one exchange under the caller's context: it does not retry.
// A transport failure poisons the connection, and the next call dials a
// fresh one.
type RemoteNode struct {
	addr string
	name string

	// mu serializes exchanges: the protocol is strictly request/response.
	// The read buffer, the reply cap and the outgoing frame live as long
	// as the node and are touched only under mu.
	mu     sync.Mutex
	fr     frame.Reader
	limits [kindReply + 1]int
	wbuf   []byte

	connMu sync.Mutex // guards conn/dialed/closed; Close may race an exchange
	conn   net.Conn
	dialed bool // a connection was dialed before: the next dial is a redial
	closed bool

	// Connection counters, read into the round's NodeReport; what each
	// exchange cost and whether it failed is the collector's to count.
	redials                 atomic.Int64 // connections dialed to replace a poisoned one
	bytesRead, bytesWritten atomic.Int64 // raw wire bytes, both directions
}

// Dial connects to a node served at addr and fetches its ID, in one
// exchange bounded by ctx. The error names addr.
func Dial(ctx context.Context, addr string) (*RemoteNode, error) {
	r := &RemoteNode{addr: addr}
	var resp response
	if err := r.roundTrip(ctx, &request{Kind: reqID}, &resp); err != nil {
		r.Close()
		return nil, err
	}
	r.name = resp.Name
	return r, nil
}

// Close releases the connection. An in-flight exchange observes a
// closed-connection error.
func (r *RemoteNode) Close() error {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	r.closed = true
	if r.conn != nil {
		err := r.conn.Close()
		r.conn = nil
		return err
	}
	return nil
}

// errClosed is returned for requests on an explicitly-Closed node.
var errClosed = errors.New("cluster: node is closed")

// acquireConn returns the live connection, dialing a fresh one if there
// is none or the previous one was poisoned. Called with r.mu held.
func (r *RemoteNode) acquireConn(ctx context.Context) (net.Conn, error) {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.closed {
		return nil, errClosed
	}
	if r.conn != nil {
		return r.conn, nil
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", r.addr)
	if err != nil {
		return nil, err
	}
	if r.dialed {
		r.redials.Add(1)
	}
	r.dialed = true
	r.conn = &countingConn{Conn: conn, r: &r.bytesRead, w: &r.bytesWritten}
	// The reader starts clean on a new connection (whatever the old one
	// left half-read is gone) and keeps its buffer.
	r.fr = frame.Reader{R: r.conn, Limits: r.limits[:], Buf: r.fr.Buf}
	return r.conn, nil
}

// poison discards conn if it is still the node's live connection, so the
// next exchange dials afresh instead of reading on from the middle of a
// frame.
func (r *RemoteNode) poison(conn net.Conn) {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.conn == conn {
		conn.Close()
		r.conn = nil
	}
}

// roundTrip sends req and decodes the node's reply into resp: one
// exchange, on the live connection or a freshly dialed one. A reply that
// carries an error is the node's answer; the connection stays in sync
// and is kept.
func (r *RemoteNode) roundTrip(ctx context.Context, req *request, resp *response) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	conn, err := r.acquireConn(ctx)
	if err != nil {
		if errors.Is(err, errClosed) {
			return err
		}
		return fmt.Errorf("cluster: %w", err) // names the op and addr
	}
	r.wbuf = appendRequest(r.wbuf, req)
	r.limits[kindReply] = replyLimit(req)
	if err := r.exchange(ctx, conn, req.Kind, resp); err != nil {
		// The connection may hold a half-written or half-read frame.
		r.poison(conn)
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("cluster: %s: %w (transport: %v)", r.addr, cerr, err)
		}
		return fmt.Errorf("cluster: %s: %w", r.addr, err)
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// exchange writes the encoded request in r.wbuf with one Write and reads
// the reply to a request of the given kind into resp, under ctx's
// deadline.
func (r *RemoteNode) exchange(ctx context.Context, conn net.Conn, kind reqKind, resp *response) error {
	deadline, _ := ctx.Deadline()
	conn.SetDeadline(deadline)
	// A cancel must unpark a read that is stuck on a hung node before its
	// deadline fires.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	err := func() error {
		if _, err := conn.Write(r.wbuf); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		_, body, err := r.fr.Next() // the reader accepts no kind but a reply
		if err == nil {
			err = parseReply(kind, body, resp)
		}
		if err != nil {
			// A node that hangs up with part of the request unread
			// resets the connection instead: the same close.
			if errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
				return errors.New("node closed connection")
			}
			return fmt.Errorf("receive: %w", err)
		}
		return nil
	}()
	if !stop() {
		// The cancel already ran, and the past deadline it set may land
		// after this exchange: the next one must not inherit it.
		r.poison(conn)
	}
	return err
}

// ID implements NodeAPI.
func (r *RemoteNode) ID() string { return r.name }

// Sketch implements NodeAPI. A spec the node would refuse is refused
// here, before the round-trip.
func (r *RemoteNode) Sketch(ctx context.Context, spec sensing.Spec) (linalg.Vector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var resp response
	if err := r.roundTrip(ctx, &request{Kind: reqSketch, Spec: spec}, &resp); err != nil {
		return nil, err
	}
	return linalg.Vector(resp.Vec), nil
}

var _ NodeAPI = (*RemoteNode)(nil)
var _ NodeAPI = (*LocalNode)(nil)
