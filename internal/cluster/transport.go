package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"csoutlier/internal/frame"
	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/sensing"
	"csoutlier/internal/xrand"
)

// The TCP transport speaks a small request/response protocol over a
// persistent connection: the aggregator (client) writes one request
// frame, the node (server) answers with one reply frame. This is the
// real-network counterpart of LocalNode, used by cmd/csnode and
// cmd/csagg; the geo-distributed deployment of the paper's §1 maps one
// csnode process to one data center.
//
// Every frame, in either direction, is internal/frame's six-byte prelude
// (u32 body length, version, kind) and a body, laid out per kind:
//
//	id, full      (empty)
//	sketch        uv M | uv N | u64 seed | u8 ensemble | uv D
//	sample        uv n | n × uv index
//	outliers      f64 mode | uv count
//	reply         u8 status (1 ok, 0 error), then for an error its text and
//	              for an ok what the request asked for, each to the end of
//	              the body: the node's name (id), raw f64 values (sketch,
//	              full, sample), or (uv index | f64 value) pairs (outliers)
//
// uv is an unsigned varint, u64 and f64 are little-endian. It is the push
// protocol's framing (internal/stream/wire.go) with its own kinds: one
// codec, no negotiation, and a sketch costs its 8·M bytes plus 7 on the
// wire. Every body length is capped before the body is read — a request
// by requestLimits, a reply by the client from what it asked for
// (replyLimit) — and a peer that sends anything else (another version,
// an unknown kind, an oversized, truncated or trailing field) is
// disconnected.
//
// Failure is treated as the normal case (§1 challenges 2–3): every
// round-trip carries a deadline, a connection that errored mid-exchange
// is poisoned and transparently re-dialed (a half-read frame would
// desync every later request), and the client keeps per-node health
// counters the aggregator can surface.

// ServeOptions tunes the node-side server.
type ServeOptions struct {
	// IdleTimeout bounds how long a connection may sit between requests
	// (and how long one request frame may take to arrive). 0 = no limit.
	IdleTimeout time.Duration
	// RequestTimeout bounds the handling of a single request via the
	// context handed to the NodeAPI implementation. 0 = no limit.
	RequestTimeout time.Duration
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
	serveFrames(conn, conn, node, opts, arm, disarm)
}

// ServeStream answers request frames decoded from r with response frames
// encoded to w, until r ends or yields bytes that are not a frame. It is
// the transport's frame loop detached from TCP: the fuzz target for the
// frame decoder drives it with arbitrary bytes, and in-process tests can
// run the exact server path over any io.Reader/io.Writer pair.
// ServeOptions.IdleTimeout does not apply (there is no connection to arm
// a deadline on); RequestTimeout is honored.
func ServeStream(r io.Reader, w io.Writer, node NodeAPI, opts ServeOptions) {
	serveFrames(r, w, node, opts, nil, nil)
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
// ServeStream: decode one request, handle it under the request timeout,
// encode one response. arm/disarm, when non-nil, run before and after
// each frame decode (the TCP path uses them for the idle deadline).
func serveFrames(r io.Reader, w io.Writer, node NodeAPI, opts ServeOptions, arm, disarm func()) {
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
		ctx := context.Background()
		cancel := func() {}
		if opts.RequestTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, opts.RequestTimeout)
		}
		resp := handle(ctx, node, &req)
		cancel()
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

func handle(ctx context.Context, node NodeAPI, req *request) response {
	switch req.Kind {
	case reqID:
		return response{Name: node.ID()}
	case reqSketch:
		// The spec crossed the wire: validate before it sizes allocations.
		if err := req.Spec.Validate(); err != nil {
			return response{Err: err.Error()}
		}
		y, err := node.Sketch(ctx, req.Spec)
		return vecResp(y, err)
	case reqFull:
		x, err := node.FullVector(ctx)
		return vecResp(x, err)
	case reqSample:
		vs, err := node.SampleValues(ctx, req.Indices)
		return vecResp(vs, err)
	case reqOutliers:
		kvs, err := node.LocalOutliers(ctx, req.Mode, req.Count)
		if err != nil {
			return response{Err: err.Error()}
		}
		return response{KVs: kvs}
	default: // unreachable: the frame reader accepts no other kind
		return response{Err: fmt.Sprintf("cluster: unknown request kind %d", req.Kind)}
	}
}

func vecResp(v []float64, err error) response {
	if err != nil {
		return response{Err: err.Error()}
	}
	return response{Vec: v}
}

// DialOptions tunes the client side of the transport. The zero value
// gets production-safe defaults.
type DialOptions struct {
	// DialTimeout bounds each TCP dial attempt (default 5s).
	DialTimeout time.Duration
	// RequestTimeout is the per-round-trip deadline applied when the
	// caller's context carries none (default 30s; <0 disables).
	RequestTimeout time.Duration
	// MaxRetries is how many times a round-trip is retried on a fresh
	// connection after a transport failure (default 2; <0 disables).
	MaxRetries int
	// BaseBackoff is the first retry delay; it doubles per retry with
	// full jitter (default 25ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the retry delay (default 1s).
	MaxBackoff time.Duration
	// BackoffSeed seeds the per-client retry-jitter RNG (the PR 5
	// NodeOptions.BackoffSeed analogue). 0 derives a stable seed from
	// the dialed address, so jitter is deterministic per target and
	// never touches the global math/rand state — simtest replays stay
	// bit-identical on the pull path.
	BackoffSeed uint64
}

func (o DialOptions) withDefaults() DialOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	return o
}

// NodeHealth is a snapshot of one RemoteNode's transport counters.
type NodeHealth struct {
	Attempts     int           // round-trips started, including retries
	Retries      int           // round-trips beyond a request's first attempt
	Timeouts     int           // attempts that died on a deadline
	Redials      int           // connections re-established after a poisoned one
	Failures     int           // requests that exhausted retries (errors seen by callers)
	BytesRead    int64         // raw wire bytes received
	BytesWritten int64         // raw wire bytes sent
	LastRTT      time.Duration // round-trip time of the most recent completed exchange
	AvgRTT       time.Duration // mean round-trip time over completed exchanges
}

// countingConn counts raw wire bytes into a RemoteNode's health.
type countingConn struct {
	net.Conn
	r, w *int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	atomic.AddInt64(c.r, int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	atomic.AddInt64(c.w, int64(n))
	return n, err
}

// RemoteNode is a NodeAPI over a TCP connection to a Serve-d node. A
// transport failure poisons the current connection; the next attempt
// (within the same request, up to MaxRetries, or a later request)
// transparently re-dials.
type RemoteNode struct {
	addr string
	opts DialOptions
	name string

	mu  sync.Mutex // serializes round-trips: the protocol is strictly request/response
	rng *xrand.RNG // retry jitter; accessed only under mu

	// The read buffer, the reply cap and the outgoing frame live as long
	// as the node and are touched only under mu.
	fr     frame.Reader
	limits [kindReply + 1]int
	wbuf   []byte

	connMu sync.Mutex // guards conn/closed; Close may race a round-trip
	conn   net.Conn
	closed bool

	bytesRead    int64 // atomic
	bytesWritten int64 // atomic

	hmu      sync.Mutex
	health   NodeHealth
	okCount  int64
	totalRTT time.Duration
}

// Dial connects to a node served at addr and fetches its ID.
func Dial(addr string) (*RemoteNode, error) {
	return DialContext(context.Background(), addr, DialOptions{})
}

// DialContext is Dial with a context and explicit transport options.
func DialContext(ctx context.Context, addr string, opts DialOptions) (*RemoteNode, error) {
	r := &RemoteNode{addr: addr, opts: opts.withDefaults()}
	r.rng = xrand.New(backoffSeed(r.opts.BackoffSeed, addr))
	var resp response
	if err := r.roundTrip(ctx, &request{Kind: reqID}, &resp); err != nil {
		r.Close()
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	r.name = resp.Name
	return r, nil
}

// Addr returns the address the node was dialed at.
func (r *RemoteNode) Addr() string { return r.addr }

// Health returns a snapshot of the node's transport counters.
func (r *RemoteNode) Health() NodeHealth {
	r.hmu.Lock()
	defer r.hmu.Unlock()
	h := r.health
	h.BytesRead = atomic.LoadInt64(&r.bytesRead)
	h.BytesWritten = atomic.LoadInt64(&r.bytesWritten)
	if r.okCount > 0 {
		h.AvgRTT = r.totalRTT / time.Duration(r.okCount)
	}
	return h
}

// Close releases the connection. An in-flight round-trip observes a
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

// acquireConn returns the live connection, dialing a fresh one if the
// previous one was poisoned. Called with r.mu held.
func (r *RemoteNode) acquireConn(ctx context.Context) (net.Conn, error) {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.closed {
		return nil, errClosed
	}
	if r.conn != nil {
		return r.conn, nil
	}
	dctx := ctx
	if r.opts.DialTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, r.opts.DialTimeout)
		defer cancel()
	}
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", r.addr)
	if err != nil {
		return nil, err
	}
	r.conn = &countingConn{Conn: conn, r: &r.bytesRead, w: &r.bytesWritten}
	// The reader starts clean on a new connection (whatever the old one
	// left half-read is gone) and keeps its buffer.
	r.fr = frame.Reader{R: r.conn, Limits: r.limits[:], Buf: r.fr.Buf}
	return r.conn, nil
}

// poison discards conn if it is still the node's live connection, so the
// next attempt re-dials instead of reading on from the middle of a frame.
func (r *RemoteNode) poison(conn net.Conn) {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.conn == conn && conn != nil {
		conn.Close()
		r.conn = nil
	}
}

// roundTrip sends req and decodes the node's reply into resp, retrying
// transport failures on fresh connections. A reply that carries an error
// is the node's answer, returned without a retry.
func (r *RemoteNode) roundTrip(ctx context.Context, req *request, resp *response) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wbuf = appendRequest(r.wbuf, req)
	if n := len(r.wbuf) - frame.Overhead; n > requestLimits[req.Kind] {
		return fmt.Errorf("cluster: request of %d indices encodes to %d bytes, limit %d: split the list", len(req.Indices), n, requestLimits[req.Kind])
	}
	r.limits[kindReply] = replyLimit(req)
	var lastErr error
	hadConn := false
	for attempt := 0; attempt <= r.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			r.note(func(h *NodeHealth) { h.Retries++ })
			if err := xrand.SleepCtx(ctx, xrand.BackoffDelay(r.rng, attempt, r.opts.BaseBackoff, r.opts.MaxBackoff)); err != nil {
				r.note(func(h *NodeHealth) { h.Failures++ })
				return fmt.Errorf("cluster: %s: %w (last transport error: %v)", r.addr, err, lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			r.note(func(h *NodeHealth) { h.Failures++ })
			return err
		}
		conn, err := r.acquireConn(ctx)
		if err != nil {
			if errors.Is(err, errClosed) {
				return err
			}
			lastErr = fmt.Errorf("dial: %w", err)
			r.note(func(h *NodeHealth) {
				h.Attempts++
				if isTimeout(err) {
					h.Timeouts++
				}
			})
			continue
		}
		if hadConn {
			r.note(func(h *NodeHealth) { h.Redials++ })
		}
		hadConn = true
		rtt, err := r.exchange(ctx, conn, req.Kind, resp)
		if err == nil {
			r.note(func(h *NodeHealth) {
				h.Attempts++
				h.LastRTT = rtt
			})
			r.hmu.Lock()
			r.okCount++
			r.totalRTT += rtt
			r.hmu.Unlock()
			if resp.Err != "" {
				// Application-level error: the stream is still in sync,
				// so the connection stays usable — fail without retry.
				return errors.New(resp.Err)
			}
			return nil
		}
		// Transport error: the connection may hold a half-written or
		// half-read frame. Poison it; a retry starts from a clean dial.
		r.poison(conn)
		lastErr = err
		r.note(func(h *NodeHealth) {
			h.Attempts++
			if isTimeout(err) {
				h.Timeouts++
			}
		})
		if cerr := ctx.Err(); cerr != nil {
			r.note(func(h *NodeHealth) { h.Failures++ })
			return fmt.Errorf("cluster: %s: %w (transport: %v)", r.addr, cerr, err)
		}
	}
	r.note(func(h *NodeHealth) { h.Failures++ })
	return fmt.Errorf("cluster: %s: giving up after %d attempts: %w", r.addr, r.opts.MaxRetries+1, lastErr)
}

// exchange writes the encoded request in r.wbuf with one Write and reads
// the reply to a request of the given kind into resp, under the request
// deadline.
func (r *RemoteNode) exchange(ctx context.Context, conn net.Conn, kind reqKind, resp *response) (time.Duration, error) {
	deadline := time.Time{}
	if r.opts.RequestTimeout > 0 {
		deadline = time.Now().Add(r.opts.RequestTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	// Watchdog: a context cancel must unblock a read that is parked on a
	// hung node before its deadline fires.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			conn.SetDeadline(time.Unix(1, 0))
		case <-stop:
		}
	}()
	start := time.Now()
	err := func() error {
		if _, err := conn.Write(r.wbuf); err != nil {
			return fmt.Errorf("cluster: send: %w", err)
		}
		_, body, err := r.fr.Next() // the reader accepts no kind but a reply
		if err == nil {
			err = parseReply(kind, body, resp)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return errors.New("cluster: node closed connection")
			}
			return fmt.Errorf("cluster: receive: %w", err)
		}
		return nil
	}()
	close(stop)
	<-done
	return time.Since(start), err
}

func (r *RemoteNode) note(f func(*NodeHealth)) {
	r.hmu.Lock()
	f(&r.health)
	r.hmu.Unlock()
}

// isTimeout reports whether err is a deadline expiry, on the wire or in
// a context.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// backoffSeed resolves a jitter seed: an explicit non-zero seed wins,
// otherwise a stable FNV-1a hash of the label (the dialed address or
// node ID) keeps distinct targets decorrelated without global state.
func backoffSeed(seed uint64, label string) uint64 {
	if seed != 0 {
		return seed
	}
	h := fnv.New64a()
	h.Write([]byte(label))
	return h.Sum64()
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

// FullVector implements NodeAPI.
func (r *RemoteNode) FullVector(ctx context.Context) (linalg.Vector, error) {
	var resp response
	if err := r.roundTrip(ctx, &request{Kind: reqFull}, &resp); err != nil {
		return nil, err
	}
	return linalg.Vector(resp.Vec), nil
}

// SampleValues implements NodeAPI.
func (r *RemoteNode) SampleValues(ctx context.Context, idx []int) ([]float64, error) {
	for _, j := range idx {
		if j < 0 {
			return nil, fmt.Errorf("cluster: sample index %d is negative", j)
		}
	}
	var resp response
	if err := r.roundTrip(ctx, &request{Kind: reqSample, Indices: idx}, &resp); err != nil {
		return nil, err
	}
	return resp.Vec, nil
}

// LocalOutliers implements NodeAPI.
func (r *RemoteNode) LocalOutliers(ctx context.Context, mode float64, count int) ([]outlier.KV, error) {
	var resp response
	if err := r.roundTrip(ctx, &request{Kind: reqOutliers, Mode: mode, Count: max(count, 0)}, &resp); err != nil {
		return nil, err
	}
	return resp.KVs, nil
}

var _ NodeAPI = (*RemoteNode)(nil)
var _ NodeAPI = (*LocalNode)(nil)
