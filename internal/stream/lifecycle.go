package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"csoutlier"
	"csoutlier/internal/frame"
)

// lifecycle is what Close has to stop and wait for: listeners,
// connections with their handler goroutines, and the periodic loops.
type lifecycle struct {
	connMu    sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}

	// snapMu serializes whole snapshot cycles (capture → encode → rename
	// → commit). Rotation, a node's due commit, a relay's hello and Close
	// can all request one concurrently; without ordering, an older
	// capture's rename could land after a newer capture's rename+commit,
	// leaving the disk holding the older dedup base while nodes have
	// already trimmed their retention buffers to the newer one — a restore
	// would then silently lose the frames between the two bases.
	snapMu     sync.Mutex
	committing atomic.Bool // a handler is writing the commit a node is due

	closeOnce sync.Once
	quit      chan struct{}  // closed first: stops accept and the periodic loops
	wg        sync.WaitGroup // handlers and periodic loops
}

// every runs fn on its own goroutine each period until Close.
func (l *lifecycle) every(period time.Duration, fn func()) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-l.quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// closed reports whether Close has begun.
func (l *lifecycle) closed() bool {
	select {
	case <-l.quit:
		return true
	default:
		return false
	}
}

// Serve accepts node connections on ln until the aggregator is closed
// (or ln fails). It may be called for several listeners concurrently.
// On an aggregator that is already closed it closes ln and returns nil.
func (a *Aggregator) Serve(ln net.Listener) error {
	l := &a.life
	// Close closes quit before it takes connMu, so a listener or
	// connection registered under connMu while quit is open is one Close
	// will see; one that finds quit closed is this side's to close.
	l.connMu.Lock()
	if l.closed() {
		l.connMu.Unlock()
		ln.Close()
		return nil
	}
	l.listeners = append(l.listeners, ln)
	l.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if l.closed() {
				return nil
			}
			return err
		}
		l.connMu.Lock()
		if l.closed() {
			l.connMu.Unlock()
			conn.Close()
			return nil
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.connMu.Unlock()
		a.metrics.conns.Inc()
		go a.handle(conn)
	}
}

// handle runs one connection's read→fold→ack loop. Frames are read
// into one buffer per connection, and a delta's payload is decoded from
// it into one M-float sketch per connection (made at the first delta),
// then folded, on this goroutine: the next frame is not read until the
// current one is folded and acked, which is the backpressure a pusher
// sees. The connection speaks for the (node, epoch) of its last hello
// if that hello was admitted, and a delta or bye takes both from it;
// the handler's wireContext fills in what a delta leaves out and lets
// the ack leave out the same. Input no conforming node produces
// (another protocol, an oversized or truncated frame, a delta or bye
// with no admitted hello before it) closes the connection.
func (a *Aggregator) handle(conn net.Conn) {
	l := &a.life
	defer l.wg.Done()
	defer func() {
		l.connMu.Lock()
		delete(l.conns, conn)
		l.connMu.Unlock()
		conn.Close()
	}()
	fr := frame.Reader{R: conn, Limits: a.limits[:], Buf: make([]byte, frame.MaxOverhead+maxLeafDelta(a.sk.M()))}
	var (
		req   pushRequest
		wbuf  []byte
		ctx   wireContext
		delta csoutlier.Sketch
	)
	for {
		if a.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(a.opts.IdleTimeout))
		}
		k, body, err := fr.Next()
		kind := pushKind(k)
		if err == nil {
			err = ctx.parseRequest(kind, body, &req)
		}
		if err == nil && kind != pushHello {
			if !ctx.bound {
				err = fmt.Errorf("%w: kind %d before an admitted hello", errMalformed, kind)
			}
			req.Node, req.Epoch = ctx.node, ctx.epoch
		}
		if err != nil {
			// A clean EOF, a deadline or a reset is a node going away (it
			// re-dials); anything else is not the push protocol.
			if errors.Is(err, errMalformed) || err == io.ErrUnexpectedEOF {
				a.metrics.malformed.Inc()
			}
			return
		}
		var ack Ack
		switch kind {
		case pushHello:
			ack = a.hello(req)
			ctx.bound, ctx.node, ctx.epoch = ack.Err == "", req.Node, req.Epoch
		case pushBye:
			ack = a.bye(req)
		case pushDelta:
			ack = a.apply(req, &delta)
		}
		wbuf = ctx.appendAck(wbuf, &ack)
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
	}
}

// Ready reports whether the aggregator is still accepting frames — the
// /healthz readiness hook.
func (a *Aggregator) Ready() error {
	if a.life.closed() {
		return errors.New("stream: aggregator closed")
	}
	return nil
}

// Close shuts the aggregator down gracefully: stop accepting, close
// every node connection, and wait for the handlers and the periodic
// loops to exit. A frame a handler is folding when its connection
// closes is folded; its ack is lost and the node replays it. ctx bounds
// the wait. The window store stays readable after Close — final queries
// and reports are the point of a drain. For a durable aggregator, a
// failure to write the final shutdown snapshot is returned (and
// logged): it means a restart will restore stale state, which the
// caller must not mistake for a clean shutdown.
func (a *Aggregator) Close(ctx context.Context) error {
	l := &a.life
	l.closeOnce.Do(func() {
		close(l.quit)
		l.connMu.Lock()
		for _, ln := range l.listeners {
			ln.Close()
		}
		for conn := range l.conns {
			conn.Close()
		}
		l.connMu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Final snapshot: no handler is left, so everything acked is in
		// the window store — the snapshot a clean restart restores.
		return a.maybeSnapshot()
	case <-ctx.Done():
		return fmt.Errorf("stream: aggregator close: %w", ctx.Err())
	}
}
