package stream

import (
	"context"
	"fmt"
	"sync"
	"time"

	"csoutlier"
)

// NodeOptions tunes a streaming node. The zero value gets production
// defaults and a manual (no background goroutine) flush discipline.
type NodeOptions struct {
	// Epoch is the node's incarnation number (default 1). A node that
	// restarts from scratch MUST announce a strictly higher epoch than
	// its previous life: the aggregator resets the node's sequence space
	// on an epoch bump, and rejects frames from older epochs.
	Epoch uint64
	// FlushEvery, when positive, runs a background loop that captures
	// and pushes a delta (or an idle heartbeat, which keeps the node's
	// window view fresh) on this period. 0 = the caller drives Flush and
	// Sync explicitly.
	FlushEvery time.Duration
	// MaxPending bounds how many captured-but-unacked delta frames may
	// queue at the node (default 64). When the queue is full, Flush
	// refuses to capture: observations keep accumulating loss-free in
	// the O(M) standing sketch, so backpressure costs memory neither
	// here nor there — the bound only caps frame buffering. Window
	// rotation may exceed the bound by one frame (the sealed window's
	// residual must not leak into the next).
	MaxPending int
	// DialTimeout bounds each TCP dial attempt (default 5s).
	DialTimeout time.Duration
	// PushTimeout bounds each push exchange (default 10s).
	PushTimeout time.Duration
	// BaseBackoff/MaxBackoff shape the reconnect backoff (defaults
	// 25ms / 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BackoffSeed seeds the jitter RNG for reconnect backoff. 0 derives
	// a per-(id, epoch) seed, which is already deterministic; the
	// simulation harness sets it from the scenario seed so a soak's
	// reconnect timing replays from its -sim.streamreplay line.
	BackoffSeed uint64
	// ShedAt, when positive, turns on admission control: once ShedAt
	// frames are pending (the aggregator is slow or unreachable), each
	// new capture is folded into the newest unsent same-window frame
	// instead of queueing — the node ships coarser merged frames rather
	// than blocking or refusing. Sketch linearity makes the merge exact:
	// the merged frame is bit-for-bit the delta a single larger capture
	// would have produced; only the frame count coarsens, which the
	// Folds tag reports to the aggregator's stream_shed_* counters.
	// 0 (default) keeps the refuse-at-MaxPending behavior.
	ShedAt int
	// Retain caps the replay-retention buffer: acked frames the
	// aggregator has not yet declared durable (ack.Stable below their
	// seq) are kept and replayed if a restored aggregator (bumped
	// AggEpoch) announces it may have lost them. Default 1024; negative
	// disables retention (an aggregator restore then silently loses
	// frames acked after its last snapshot). Against a non-durable
	// aggregator the buffer stays empty — every ack declares its own
	// frame durable.
	Retain int
}

func (o NodeOptions) withDefaults() NodeOptions {
	if o.Epoch == 0 {
		o.Epoch = 1
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 64
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.PushTimeout <= 0 {
		o.PushTimeout = 10 * time.Second
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.Retain == 0 {
		o.Retain = 1024
	}
	return o
}

// NodeStats is a snapshot of a streaming node's delta-protocol state.
type NodeStats struct {
	Window     uint64 // the node's current window view
	Seq        uint64 // last captured sequence number
	Pending    int    // captured frames not yet acknowledged
	Captured   int64  // local captures drained from the standing sketch
	Acked      int64  // frames acknowledged (any status)
	Applied    int64  // frames the aggregator folded
	Duplicates int64  // frames the aggregator had already processed
	Dropped    int64  // frames acknowledged but too old to represent
	Rejected   int64  // frames the aggregator refused (frame-level error)
	Redials    int64  // connections re-established
	Rotations  int64  // window advances adopted from acks
	// Merged counts captures folded into an already-pending frame under
	// backpressure (admission control) instead of queueing their own.
	Merged int64
	// PairFrames counts the frames queued in the pairs encoding — raw
	// observations, smaller than the sketch, which the aggregator
	// measures; Captured − Merged − PairFrames frames carried a sketch.
	PairFrames int64
	// Retained is the current replay-retention buffer depth: acked
	// frames the aggregator has not yet declared durable.
	Retained int
	// Replayed counts retained frames requeued because the aggregator's
	// incarnation (AggEpoch) advanced — a restore that may have lost
	// recently-acked frames.
	Replayed int64
	// RetainDropped counts retained frames discarded at the Retain cap;
	// each is a frame an aggregator restore could silently lose.
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
// retries. The Node owns capture — when a drain becomes a frame, which
// window tags it, and the shed merge under backpressure; delivery,
// retention and replay are the Sender's.
//
// Observe/ObserveBatch are safe for concurrent use and never block on
// the network. Flush, Sync and Close serialize among themselves.
type Node struct {
	sk   *csoutlier.Sketcher
	opts NodeOptions
	u    *csoutlier.Updater
	snd  *Sender

	// Guarded by snd.mu, the node's one state lock: a capture reads the
	// pending queue and may rewrite its unsent tail.
	window uint64
	seq    uint64
	drain  csoutlier.Sketch // a shed merge's drain buffer, made by the first one

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Dial connects a streaming node to an aggregator, announces itself,
// and adopts the aggregator's current window. id identifies the node
// across reconnects and restarts; every node of a deployment must use
// the same Sketcher consensus as the aggregator.
func Dial(ctx context.Context, addr string, sk *csoutlier.Sketcher, id string, opts NodeOptions) (*Node, error) {
	n := &Node{
		sk:   sk,
		opts: opts.withDefaults(),
		u:    sk.NewUpdater(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	var err error
	if n.snd, err = NewSender(addr, id, n.opts, n.adoptWindow); err != nil {
		return nil, err
	}
	if err := n.snd.Connect(ctx); err != nil {
		return nil, err
	}
	if n.opts.FlushEvery > 0 {
		go n.loop()
	} else {
		close(n.done)
	}
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() string { return n.snd.id }

// Window returns the node's current window view.
func (n *Node) Window() uint64 {
	n.snd.mu.Lock()
	defer n.snd.mu.Unlock()
	return n.window
}

// Stats returns a snapshot of the node's streaming counters.
func (n *Node) Stats() NodeStats {
	n.snd.mu.Lock()
	defer n.snd.mu.Unlock()
	s := n.snd.statsLocked()
	s.Window = n.window
	s.Seq = n.seq
	return s
}

// Observe folds one (key, delta) observation into the node's standing
// sketch for the current window. O(M), no network, no blocking on the
// pusher.
func (n *Node) Observe(key string, delta float64) error {
	return n.u.Observe(key, delta)
}

// ObserveBatch folds a batch of observations; all-or-nothing on unknown
// keys.
func (n *Node) ObserveBatch(pairs map[string]float64) error {
	return n.u.ObserveBatch(pairs)
}

// capture drains the standing sketch into a new pending frame tagged
// with the node's current window. force ignores the MaxPending bound
// (used for rotation residuals). An empty drain captures nothing.
func (n *Node) capture(force bool) error {
	n.snd.mu.Lock()
	defer n.snd.mu.Unlock()
	return n.captureLocked(force)
}

func (n *Node) captureLocked(force bool) error {
	snd := n.snd
	shed := n.opts.ShedAt > 0 && len(snd.pending) >= n.opts.ShedAt
	if !force && !shed && len(snd.pending) >= n.opts.MaxPending {
		return fmt.Errorf("stream: node %s: %d frames pending (limit %d); observations keep accumulating in the standing sketch",
			snd.id, len(snd.pending), n.opts.MaxPending)
	}
	// Captures are the only drains and they hold the lock, so what is
	// there now is still there when it is drained below.
	if n.u.Updates() == 0 {
		return nil
	}
	if shed && !force {
		if tail := snd.mergeTargetLocked(n.window); tail != nil {
			return n.mergeLocked(tail)
		}
		// No mergeable tail (it is in flight, or the window rotated):
		// queue a fresh frame even past the bound — it becomes the merge
		// target for the next capture, so overflow is capped at one frame
		// per (window, transmission) boundary.
	}
	f := snd.allocLocked()
	// Whichever encoding is smaller, straight into the recycled buffer.
	payload, _, err := n.u.DrainEncoded(f.Payload[:0])
	if err != nil {
		snd.recycleLocked(f)
		return err
	}
	n.seq++
	*f = Frame{Window: n.window, Seq: n.seq, Folds: 1, Payload: payload}
	snd.pending = append(snd.pending, f)
	snd.stats.Captured++
	if csoutlier.PairsEncoded(payload) {
		snd.stats.PairFrames++
	}
	return nil
}

// mergeLocked is admission control: it folds this capture into the
// queued frame tail instead of growing the queue. Exact by linearity —
// the merged frame is bit-for-bit sketch(tail) + sketch(capture), the
// delta one larger capture would have produced — and never applied to a
// frame that may already have been folded (sent) or that belongs to
// another window: mergeTargetLocked chose tail. The sum is taken in
// tail's bytes, in place; a tail still in the pairs encoding is measured
// into a sketch payload first.
func (n *Node) mergeLocked(tail *Frame) error {
	if len(n.drain.Y) == 0 {
		n.drain = n.sk.ZeroSketch() // only a node that sheds ever needs it
	}
	if csoutlier.PairsEncoded(tail.Payload) {
		if err := n.sk.UnmarshalSketchInto(tail.Payload, n.drain); err != nil {
			return err
		}
		payload, err := n.drain.AppendBinary(tail.Payload[:0])
		if err != nil {
			return err
		}
		tail.Payload = payload
		n.snd.stats.PairFrames--
	}
	if _, err := n.u.DrainInto(n.drain); err != nil {
		return err
	}
	if err := n.drain.AddToBinary(tail.Payload); err != nil {
		return err
	}
	tail.Folds++
	n.snd.stats.Captured++
	n.snd.stats.Merged++
	return nil
}

// adoptWindow advances the node's window view to the aggregator's — the
// Sender's window callback. The sealed window's residual observations
// are captured first (tagged with the old window), so no observation
// leaks across the boundary. Observations racing the adoption land on
// one side or the other — wall-clock skew the window-tagged protocol is
// explicitly built to absorb.
func (n *Node) adoptWindow(w uint64) {
	n.snd.mu.Lock()
	defer n.snd.mu.Unlock()
	if w <= n.window {
		return
	}
	n.captureLocked(true) // residual of the sealed window
	n.window = w
	n.snd.stats.Rotations++
}

// Flush captures the observations accumulated since the last capture as
// one delta frame and pushes every pending frame until acked. It is the
// node's durability point: when Flush returns nil, everything observed
// before the call is folded (exactly once) into the aggregator.
func (n *Node) Flush(ctx context.Context) error {
	if err := n.capture(false); err != nil {
		return err
	}
	return n.snd.Drain(ctx)
}

// Sync runs a hello round-trip — adopting the aggregator's current
// window — and drains any pending frames (including a rotation residual
// the hello may seal). Nodes with no traffic use it as a heartbeat so
// their window view and the aggregator's liveness table stay fresh.
func (n *Node) Sync(ctx context.Context) error { return n.snd.Sync(ctx) }

// loop is the background flush/heartbeat driver.
func (n *Node) loop() {
	defer close(n.done)
	t := time.NewTicker(n.opts.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), 4*n.opts.PushTimeout)
		n.capture(false)
		n.Sync(ctx) // hello (window/liveness) + drain; errors retried next tick
		cancel()
	}
}

// Close flushes a final delta, drains the pending queue, and releases
// the connection. The ctx bounds the final drain; data still pending
// when it expires stays unsent (the error reports it).
func (n *Node) Close(ctx context.Context) error {
	n.stopBackground()
	flushErr := n.Flush(ctx)
	n.snd.Disconnect()
	if flushErr != nil {
		return fmt.Errorf("stream: node %s: final flush: %w (%d frames unsent)", n.snd.id, flushErr, n.snd.Stats().Pending)
	}
	return nil
}

// Leave is the graceful-membership exit: flush everything pending, then
// announce a bye so the aggregator retires this node from the live set
// (its dedup book survives as a tombstone — a stray retry can still
// dedup, and this same incarnation may rejoin later with its sequence
// space intact). The connection is released either way.
func (n *Node) Leave(ctx context.Context) error {
	n.stopBackground()
	err := n.Flush(ctx)
	snd := n.snd
	snd.sendMu.Lock()
	defer snd.sendMu.Unlock()
	defer snd.disconnect()
	var c *Client
	if err == nil {
		c, err = snd.connect(ctx)
	}
	if err == nil {
		var ack Ack
		if ack, err = c.Bye(snd.id, n.opts.Epoch); err == nil && ack.Err != "" {
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
// successor must Dial with a higher epoch.
func (n *Node) Abort() {
	n.stopBackground()
	n.snd.Disconnect()
	n.snd.mu.Lock()
	n.snd.pending = nil
	n.snd.retained = nil
	n.snd.mu.Unlock()
}

func (n *Node) stopBackground() {
	n.stopOnce.Do(func() { close(n.stop) })
	<-n.done
}
