package stream

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"csoutlier"
	"csoutlier/internal/xrand"
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

// deltaFrame is one captured, retryable flush. folds counts the local
// captures merged into it (>1 = a shed frame); sent marks that at
// least one transmission attempt happened, which makes the frame
// ineligible for merging (the aggregator may already have folded it).
type deltaFrame struct {
	window  uint64
	seq     uint64
	folds   uint32
	payload []byte
	sent    bool
}

// Node is the node-side half of the streaming service: a standing
// csoutlier.Updater fed by Observe, drained into window-tagged delta
// frames that are pushed to the Aggregator with stop-and-wait retries.
// Exactly-once folding comes from the (epoch, seq) tags, not from the
// transport: a frame is re-sent until acked, and the aggregator ignores
// redeliveries.
//
// Observe/ObserveBatch are safe for concurrent use and never block on
// the network. Flush, Sync and Close serialize among themselves.
type Node struct {
	sk   *csoutlier.Sketcher
	id   string
	addr string
	opts NodeOptions
	u    *csoutlier.Updater

	mu       sync.Mutex
	window   uint64
	seq      uint64
	pending  []*deltaFrame
	retained []*deltaFrame    // acked but not yet durable, oldest first
	free     []*deltaFrame    // frames nothing can resend any more; captures reuse their payload buffers
	aggEpoch uint64           // aggregator incarnation last seen (0 = none yet)
	drain    csoutlier.Sketch // a shed merge's drain buffer, made by the first one; guarded by mu
	stats    NodeStats

	sendMu sync.Mutex // serializes network use: Flush/Sync/background
	client *Client
	rng    *xrand.RNG // backoff jitter, guarded by sendMu

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Dial connects a streaming node to an aggregator, announces itself,
// and adopts the aggregator's current window. id identifies the node
// across reconnects and restarts; every node of a deployment must use
// the same Sketcher consensus as the aggregator.
func Dial(ctx context.Context, addr string, sk *csoutlier.Sketcher, id string, opts NodeOptions) (*Node, error) {
	if id == "" || len(id) > MaxNodeLen {
		return nil, fmt.Errorf("stream: node id must be 1 to %d bytes, got %d", MaxNodeLen, len(id))
	}
	n := &Node{
		sk:   sk,
		id:   id,
		addr: addr,
		opts: opts.withDefaults(),
		u:    sk.NewUpdater(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	seed := n.opts.BackoffSeed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(id))
		seed = h.Sum64() ^ n.opts.Epoch
	}
	n.rng = xrand.New(seed)
	n.sendMu.Lock()
	_, err := n.connect(ctx)
	n.sendMu.Unlock()
	if err != nil {
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
func (n *Node) ID() string { return n.id }

// Window returns the node's current window view.
func (n *Node) Window() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.window
}

// Stats returns a snapshot of the node's streaming counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.stats
	s.Window = n.window
	s.Seq = n.seq
	s.Pending = len(n.pending)
	s.Retained = len(n.retained)
	s.AggEpoch = n.aggEpoch
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
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.captureLocked(force)
}

func (n *Node) captureLocked(force bool) error {
	shed := n.opts.ShedAt > 0 && len(n.pending) >= n.opts.ShedAt
	if !force && !shed && len(n.pending) >= n.opts.MaxPending {
		return fmt.Errorf("stream: node %s: %d frames pending (limit %d); observations keep accumulating in the standing sketch",
			n.id, len(n.pending), n.opts.MaxPending)
	}
	// Captures are the only drains and they hold n.mu, so what is there
	// now is still there when it is drained below.
	if n.u.Updates() == 0 {
		return nil
	}
	if shed && !force {
		if tail := n.mergeTargetLocked(); tail != nil {
			return n.mergeLocked(tail)
		}
		// No mergeable tail (it is in flight, or the window rotated):
		// queue a fresh frame even past the bound — it becomes the merge
		// target for the next capture, so overflow is capped at one frame
		// per (window, transmission) boundary.
	}
	var f *deltaFrame
	if last := len(n.free) - 1; last >= 0 {
		f, n.free = n.free[last], n.free[:last]
	} else {
		f = &deltaFrame{}
	}
	// Whichever encoding is smaller, straight into the recycled buffer.
	payload, _, err := n.u.DrainEncoded(f.payload[:0])
	if err != nil {
		n.recycleLocked(f)
		return err
	}
	n.seq++
	*f = deltaFrame{window: n.window, seq: n.seq, folds: 1, payload: payload}
	n.pending = append(n.pending, f)
	n.stats.Captured++
	if csoutlier.PairsEncoded(payload) {
		n.stats.PairFrames++
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
func (n *Node) mergeLocked(tail *deltaFrame) error {
	if len(n.drain.Y) == 0 {
		n.drain = n.sk.ZeroSketch() // only a node that sheds ever needs it
	}
	if csoutlier.PairsEncoded(tail.payload) {
		if err := n.sk.UnmarshalSketchInto(tail.payload, n.drain); err != nil {
			return err
		}
		payload, err := n.drain.AppendBinary(tail.payload[:0])
		if err != nil {
			return err
		}
		tail.payload = payload
		n.stats.PairFrames--
	}
	if _, err := n.u.DrainInto(n.drain); err != nil {
		return err
	}
	if err := n.drain.AddToBinary(tail.payload); err != nil {
		return err
	}
	tail.folds++
	n.stats.Captured++
	n.stats.Merged++
	return nil
}

// recycleLocked hands f's payload buffer to future captures. Only for a
// frame that has left both the pending queue and the retention buffer:
// nothing — retry, replay, in-flight push — can send its bytes again.
func (n *Node) recycleLocked(f *deltaFrame) {
	if len(n.free) < n.opts.MaxPending {
		n.free = append(n.free, f)
	}
}

// mergeTargetLocked returns the newest pending frame a capture may fold
// into: unsent (no transmission attempt — resending mutated bytes under
// an already-marked seq would lose the merge) and tagged with the
// node's current window.
func (n *Node) mergeTargetLocked() *deltaFrame {
	if len(n.pending) == 0 {
		return nil
	}
	tail := n.pending[len(n.pending)-1]
	if tail.sent || tail.window != n.window {
		return nil
	}
	return tail
}

// adoptWindow advances the node's window view to the aggregator's. The
// sealed window's residual observations are captured first (tagged with
// the old window), so no observation leaks across the boundary.
// Observations racing the adoption land on one side or the other —
// wall-clock skew the window-tagged protocol is explicitly built to
// absorb.
func (n *Node) adoptWindow(w uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if w <= n.window {
		return
	}
	n.captureLocked(true) // residual of the sealed window
	n.window = w
	n.stats.Rotations++
}

// head returns the oldest pending frame, or nil.
func (n *Node) head() *deltaFrame {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.pending) == 0 {
		return nil
	}
	return n.pending[0]
}

// noteAckLocked processes the durability piggybacks every ack carries:
// an AggEpoch bump requeues the retention buffer for replay (the
// restored aggregator may have lost those frames; its dedup books drop
// the ones it didn't), and the Stable watermark trims frames that can
// never need replay again.
func (n *Node) noteAckLocked(ack Ack) {
	n.stats.Stable = ack.Stable
	if ack.AggEpoch > n.aggEpoch {
		if n.aggEpoch != 0 && len(n.retained) > 0 {
			// The aggregator restarted from a snapshot. Replay everything
			// retained, oldest first and ahead of the pending queue, so
			// frames reach the restored dedup books in capture order.
			n.pending = append(append(make([]*deltaFrame, 0, len(n.retained)+len(n.pending)), n.retained...), n.pending...)
			n.stats.Replayed += int64(len(n.retained))
			n.retained = nil
		}
		n.aggEpoch = ack.AggEpoch
	}
	if len(n.retained) > 0 && ack.Stable > 0 {
		keep := n.retained[:0]
		for _, f := range n.retained {
			if f.seq > ack.Stable {
				keep = append(keep, f)
			} else {
				n.recycleLocked(f)
			}
		}
		n.retained = keep
	}
}

// ackFrame accounts f's ack, removes it from the pending queue (by
// identity — a concurrent replay may have requeued older frames ahead
// of it) and moves it to the retention buffer if the aggregator has not
// yet declared it durable.
func (n *Node) ackFrame(f *deltaFrame, ack Ack) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.noteAckLocked(ack)
	for i, p := range n.pending {
		if p == f {
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			break
		}
	}
	n.stats.Acked++
	switch {
	case ack.Err != "":
		n.stats.Rejected++
	case ack.Applied:
		n.stats.Applied++
	case ack.Status == StatusDuplicate:
		n.stats.Duplicates++
	case ack.Status == StatusDroppedOld:
		n.stats.Dropped++
	}
	if ack.Err == "" && n.opts.Retain > 0 && f.seq > ack.Stable {
		// Acked but not durable: keep for replay. The buffer is in seq
		// order because stop-and-wait acks frames in seq order.
		n.retained = append(n.retained, f)
		for len(n.retained) > n.opts.Retain {
			n.recycleLocked(n.retained[0])
			n.retained = n.retained[1:]
			n.stats.RetainDropped++
		}
		return
	}
	n.recycleLocked(f)
}

// connect returns the live client, dialing and re-announcing if needed.
// Called with sendMu held.
func (n *Node) connect(ctx context.Context) (*Client, error) {
	if n.client != nil {
		return n.client, nil
	}
	dctx, cancel := context.WithTimeout(ctx, n.opts.DialTimeout)
	c, err := DialClient(dctx, n.addr, n.opts.PushTimeout)
	cancel()
	if err != nil {
		return nil, err
	}
	ack, err := c.Hello(n.id, n.opts.Epoch)
	if err != nil {
		c.Close()
		return nil, err
	}
	if ack.Err != "" {
		c.Close()
		return nil, fmt.Errorf("stream: node %s rejected: %s", n.id, ack.Err)
	}
	n.client = c
	n.mu.Lock()
	n.noteAckLocked(ack)
	n.mu.Unlock()
	n.adoptWindow(ack.Window)
	return c, nil
}

// disconnect poisons the current connection. Called with sendMu held.
func (n *Node) disconnect() {
	if n.client != nil {
		n.client.Close()
		n.client = nil
	}
}

// push delivers one frame, redialing with backoff until it is acked or
// ctx expires. Called with sendMu held.
func (n *Node) push(ctx context.Context, f *deltaFrame) (Ack, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoffDelay(n.rng, attempt, n.opts.BaseBackoff, n.opts.MaxBackoff)); err != nil {
				return Ack{}, fmt.Errorf("stream: node %s: %w (last transport error: %v)", n.id, err, lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			return Ack{}, err
		}
		c, err := n.connect(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		if attempt > 0 {
			n.mu.Lock()
			n.stats.Redials++
			n.mu.Unlock()
		}
		n.mu.Lock()
		f.sent = true // from here the frame may have been folded: never merge into it
		folds := f.folds
		payload := f.payload
		n.mu.Unlock()
		ack, err := c.PushDelta(n.id, n.opts.Epoch, f.window, f.seq, folds, payload)
		if err != nil {
			// Transport failure: the stream may hold a half-written
			// frame. Poison and retry from a clean dial; the (epoch,
			// seq) tag makes the redelivery idempotent.
			n.disconnect()
			lastErr = err
			continue
		}
		return ack, nil
	}
}

// drainPending pushes every queued frame in order. Called with sendMu
// held.
func (n *Node) drainPending(ctx context.Context) error {
	for {
		f := n.head()
		if f == nil {
			return nil
		}
		ack, err := n.push(ctx, f)
		if err != nil {
			return err
		}
		n.ackFrame(f, ack)
		// A rotation learned from the ack may capture a residual frame;
		// the loop drains it in the same pass.
		n.adoptWindow(ack.Window)
	}
}

// Flush captures the observations accumulated since the last capture as
// one delta frame and pushes every pending frame until acked. It is the
// node's durability point: when Flush returns nil, everything observed
// before the call is folded (exactly once) into the aggregator.
func (n *Node) Flush(ctx context.Context) error {
	if err := n.capture(false); err != nil {
		return err
	}
	n.sendMu.Lock()
	defer n.sendMu.Unlock()
	return n.drainPending(ctx)
}

// Sync runs a hello round-trip — adopting the aggregator's current
// window — and drains any pending frames (including a rotation residual
// the hello may seal). Nodes with no traffic use it as a heartbeat so
// their window view and the aggregator's liveness table stay fresh.
func (n *Node) Sync(ctx context.Context) error {
	n.sendMu.Lock()
	defer n.sendMu.Unlock()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoffDelay(n.rng, attempt, n.opts.BaseBackoff, n.opts.MaxBackoff)); err != nil {
				return fmt.Errorf("stream: node %s: %w (last transport error: %v)", n.id, err, lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		c, err := n.connect(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		ack, err := c.Hello(n.id, n.opts.Epoch)
		if err != nil {
			n.disconnect()
			lastErr = err
			continue
		}
		if ack.Err != "" {
			return fmt.Errorf("stream: node %s rejected: %s", n.id, ack.Err)
		}
		n.mu.Lock()
		n.noteAckLocked(ack)
		n.mu.Unlock()
		n.adoptWindow(ack.Window)
		return n.drainPending(ctx)
	}
}

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
	n.sendMu.Lock()
	n.disconnect()
	n.sendMu.Unlock()
	n.mu.Lock()
	pending := len(n.pending)
	n.mu.Unlock()
	if flushErr != nil {
		return fmt.Errorf("stream: node %s: final flush: %w (%d frames unsent)", n.id, flushErr, pending)
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
	flushErr := n.Flush(ctx)
	n.sendMu.Lock()
	defer n.sendMu.Unlock()
	if flushErr == nil {
		c, err := n.connect(ctx)
		if err == nil {
			ack, berr := c.Bye(n.id, n.opts.Epoch)
			if berr == nil && ack.Err != "" {
				berr = fmt.Errorf("stream: node %s bye rejected: %s", n.id, ack.Err)
			}
			flushErr = berr
		} else {
			flushErr = err
		}
	}
	n.disconnect()
	if flushErr != nil {
		return fmt.Errorf("stream: node %s leave: %w", n.id, flushErr)
	}
	return nil
}

// Abort drops the connection and every pending frame without flushing —
// a crash, for tests and for callers abandoning an incarnation. Data
// not yet acked is lost, exactly as if the process had died; a
// successor must Dial with a higher epoch.
func (n *Node) Abort() {
	n.stopBackground()
	n.sendMu.Lock()
	n.disconnect()
	n.sendMu.Unlock()
	n.mu.Lock()
	n.pending = nil
	n.retained = nil
	n.mu.Unlock()
}

func (n *Node) stopBackground() {
	n.stopOnce.Do(func() { close(n.stop) })
	<-n.done
}
