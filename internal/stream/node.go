package stream

import (
	"context"
	"fmt"
	"time"

	"csoutlier"
)

// NodeOptions tunes a streaming node or a relay's upward connection.
// The zero value gets production defaults; the caller drives Flush and
// Sync.
type NodeOptions struct {
	// PushTimeout bounds each dial and each push exchange (default
	// 10s). The reconnect backoff follows it: from PushTimeout/400 up to
	// PushTimeout/10, 25ms to 1s at the default.
	PushTimeout time.Duration
}

func (o NodeOptions) withDefaults() NodeOptions {
	if o.PushTimeout <= 0 {
		o.PushTimeout = 10 * time.Second
	}
	return o
}

// FreshEpoch is a new incarnation's epoch: the wall clock in Unix
// nanoseconds, so a sender started after its predecessor announces a
// higher epoch than it did, on a clock that does not step back.
func FreshEpoch() uint64 { return uint64(time.Now().UnixNano()) }

// NodeStats is a snapshot of a streaming node's delta-protocol state.
type NodeStats struct {
	Epoch      uint64 // the incarnation this sender announces
	Window     uint64 // the node's current window view
	Seq        uint64 // last sequence number assigned
	Pending    int    // captured frames not yet acknowledged
	Captured   int64  // local captures drained from the standing sketch
	Acked      int64  // frames acknowledged (any status)
	Applied    int64  // frames the aggregator folded
	Duplicates int64  // frames the aggregator had already processed
	Dropped    int64  // frames acknowledged but too old to represent
	Rejected   int64  // frames the aggregator refused (frame-level error)
	Redials    int64  // connections re-established
	Rotations  int64  // window advances adopted from acks
	// PairFrames counts the frames queued in the pairs encoding — raw
	// observations, smaller than the sketch, which the aggregator
	// measures; Captured − PairFrames frames carried a sketch.
	PairFrames int64
	// Retained is the current replay-retention buffer depth: acked
	// frames the aggregator has not yet declared durable.
	Retained int
	// Replayed counts retained frames requeued because the aggregator's
	// incarnation (AggEpoch) advanced — a restore that may have lost
	// recently-acked frames.
	Replayed int64
	// RetainDropped counts retained frames discarded at the retention
	// cap (1,024 frames); each is a frame an aggregator restore could
	// silently lose.
	RetainDropped int64
	// AggEpoch is the aggregator incarnation last seen in an ack.
	AggEpoch uint64
	// Stable is the durable watermark last acked: every seq ≤ Stable
	// survives an aggregator restore.
	Stable uint64
}

// Node is the node-side half of the streaming service: a standing
// csoutlier.Updater fed by Observe, drained into window-tagged delta
// frames that its Sender pushes to the Aggregator with stop-and-wait
// retries. The Node owns capture — when a drain becomes a frame and
// which window tags it; delivery, retention and replay are the
// Sender's.
//
// The standing sketch is the node's only backlog. A capture is taken
// only once the queue has drained, so an unreachable aggregator costs
// one captured frame (plus a rotation residual) and the O(M) sketch,
// however long the outage: by linearity the sketch already holds the
// exact sum of everything observed since.
//
// Observe is safe for concurrent use and never blocks on
// the network. Flush, Sync and Close serialize among themselves.
type Node struct {
	u   *csoutlier.Updater
	snd *Sender

	// Guarded by snd.mu, the node's one state lock: a capture pushes
	// into the sender's outbox.
	window uint64
}

// Dial connects a streaming node to an aggregator, announces itself,
// and adopts the aggregator's current window. id identifies the node
// across reconnects and restarts; every node of a deployment must use
// the same Sketcher consensus as the aggregator. Each Dial is a new
// incarnation with a FreshEpoch, so the aggregator folds a restarted
// node's frames as new data, never as duplicates of its predecessor's.
// On a clock that steps back behind the predecessor's epoch the hello
// is refused as stale, by name: the frames are not deduped.
func Dial(ctx context.Context, addr string, sk *csoutlier.Sketcher, id string, opts NodeOptions) (*Node, error) {
	n := &Node{u: sk.NewUpdater()}
	var err error
	if n.snd, err = NewSender(addr, id, sk, FreshEpoch(), opts, n.adoptWindow); err != nil {
		return nil, err
	}
	if _, err := n.snd.Connect(ctx); err != nil {
		return nil, err
	}
	return n, nil
}

// Stats returns a snapshot of the node's streaming counters.
func (n *Node) Stats() NodeStats {
	n.snd.mu.Lock()
	defer n.snd.mu.Unlock()
	s := n.snd.statsLocked()
	s.Window = n.window
	return s
}

// Observe folds one (key, delta) observation into the node's standing
// sketch for the current window. O(M), no network, no blocking on the
// pusher.
func (n *Node) Observe(key string, delta float64) error {
	return n.u.Observe(key, delta)
}

// captureLocked drains the standing sketch into a new pending frame
// tagged with the node's current window. An empty drain captures
// nothing. Called with snd.mu held.
func (n *Node) captureLocked() error {
	// Captures are the only drains and they hold the lock, so what is
	// there now is still there when it is drained below.
	if n.u.Updates() == 0 {
		return nil
	}
	ob := &n.snd.ob
	f := ob.alloc()
	// Whichever encoding is smaller, straight into the recycled buffer.
	payload, _, err := n.u.DrainEncoded(f.Payload[:0])
	if err != nil {
		ob.recycle(f)
		return err
	}
	*f = Frame{Window: n.window, Folds: 1, Payload: payload}
	ob.push(f)
	ob.stats.Captured++
	if csoutlier.PairsEncoded(payload) {
		ob.stats.PairFrames++
	}
	return nil
}

// adoptWindow advances the node's window view to the aggregator's — the
// Sender's callback (a node's frames carry no cut, so none turns
// durable). The sealed window's residual observations
// are captured first (tagged with the old window), so no observation
// leaks across the boundary. Observations racing the adoption land on
// one side or the other — wall-clock skew the window-tagged protocol is
// explicitly built to absorb.
func (n *Node) adoptWindow(w uint64, _ []SnapNode) {
	n.snd.mu.Lock()
	defer n.snd.mu.Unlock()
	if w <= n.window {
		return
	}
	n.captureLocked() // residual of the sealed window
	n.window = w
	n.snd.ob.stats.Rotations++
}

// Flush pushes whatever is still pending, then captures the
// observations accumulated since the last capture as one delta frame
// and pushes it until acked. It is the node's durability point: when
// Flush returns nil, everything observed before the call is folded
// (exactly once) into the aggregator, or acked "dropped-old" (its
// window left the ring: by design, not an error). A refused frame is
// dropped, and Flush returns an error naming it. If a frame pending
// before the capture does not drain, or is refused, Flush captures
// nothing: the observations stay in the standing sketch for the next
// Flush to ship.
func (n *Node) Flush(ctx context.Context) error {
	snd := n.snd
	snd.sendMu.Lock()
	defer snd.sendMu.Unlock()
	if err := snd.drain(ctx); err != nil {
		return err
	}
	snd.mu.Lock()
	err := n.captureLocked()
	snd.mu.Unlock()
	if err != nil {
		return err
	}
	return snd.drain(ctx)
}

// Sync runs a hello round-trip — adopting the aggregator's current
// window — and drains any pending frames (including a rotation residual
// the hello may seal). Nodes with no traffic use it as a heartbeat so
// their window view and the aggregator's liveness table stay fresh.
func (n *Node) Sync(ctx context.Context) error { return n.snd.Sync(ctx) }

// Close flushes a final delta, drains the pending queue, and releases
// the connection. The ctx bounds the final drain; data still pending
// when it expires stays unsent (the error reports it).
func (n *Node) Close(ctx context.Context) error {
	flushErr := n.Flush(ctx)
	n.snd.Disconnect()
	if flushErr != nil {
		return fmt.Errorf("stream: node %s: final flush: %w (%d frames unsent)", n.snd.id, flushErr, n.snd.Stats().Pending)
	}
	return nil
}

// Leave is the graceful-membership exit: flush everything pending, then
// announce a bye so the aggregator retires this node from the live set
// (its dedup book stays, a tombstone for the aggregator's life: a stray
// retry still dedups, and this same incarnation may rejoin later with
// its sequence space intact). The connection is released either way.
func (n *Node) Leave(ctx context.Context) error {
	err := n.Flush(ctx)
	snd := n.snd
	snd.sendMu.Lock()
	defer snd.sendMu.Unlock()
	defer snd.disconnect()
	var c *Client
	if err == nil {
		c, _, err = snd.connect(ctx)
	}
	if err == nil {
		var ack Ack
		if ack, err = c.bye(); err == nil && ack.Err != "" {
			err = fmt.Errorf("stream: node %s bye rejected: %s", snd.id, ack.Err)
		}
	}
	if err != nil {
		return fmt.Errorf("stream: node %s leave: %w", snd.id, err)
	}
	return nil
}

// Abort drops the connection and every pending frame without flushing —
// a crash, for tests and for callers abandoning an incarnation. Data
// not yet acked is lost, exactly as if the process had died; a
// successor Dials as a new incarnation.
func (n *Node) Abort() {
	snd := n.snd
	snd.sendMu.Lock()
	defer snd.sendMu.Unlock()
	snd.disconnect()
	snd.mu.Lock()
	snd.ob.queue, snd.ob.acked, snd.ob.sent = nil, 0, nil
	snd.mu.Unlock()
}
