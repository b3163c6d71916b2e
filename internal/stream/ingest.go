package stream

import (
	"sync"
	"sync/atomic"
	"time"

	"csoutlier"
)

// ingest is the fold state and the one mutex every fold, rotation,
// membership change and snapshot capture serialises on.
type ingest struct {
	mu sync.Mutex
	bk book // the window counter, incarnation and members: every verdict
	ws *csoutlier.WindowStore
	// gen is the fold generation: bumped on every fold and rotation, it
	// versions both the recovery cache and the point-state cache. Writes
	// happen under mu, after the ring change they version; reads are
	// atomic, so the point-query fast path never touches mu.
	gen  atomic.Uint64
	tick atomic.Uint64 // frame counter for sampled fold timing
}

// foldSampleMask picks which frames get wall-clock fold timing: frame
// ticks where tick&mask == 1, i.e. the first frame and then 1 in 16.
// Clock reads dominate instrumentation cost on sub-microsecond folds
// (two time.Now calls cost more than the fold on virtualized clocks),
// so the latency histogram samples while every counter stays exact.
const foldSampleMask = 15

// apply folds one delta frame on the calling goroutine, produces its
// ack and records the outcome. The payload is decoded into delta — the
// calling connection's own M-float scratch, made at its first delta —
// before mu is taken: checksum, consensus and finiteness, and for a
// pairs payload the measurement Σ vᵢ·φ_{kᵢ}, which is a function of the
// payload and Φ alone. Under mu, the book's verdict (admission, dedup,
// window placement) and one M-float add, so connections measure in
// parallel and hold the lock for about a microsecond. Outside mu: two
// atomic counter increments per frame (three for an applied one), plus
// a lock-free histogram observation on sampled frames, whose time is the
// decode plus the locked fold — never the wait for mu.
func (a *Aggregator) apply(req pushRequest, delta *csoutlier.Sketch) Ack {
	in, m := &a.in, a.metrics
	timed := in.tick.Add(1)&foldSampleMask == 1
	var start time.Time
	if timed {
		start = time.Now()
	}
	if delta.Y == nil {
		*delta = a.sk.ZeroSketch()
	}
	decodeErr := a.sk.UnmarshalSketchInto(req.Payload, *delta)
	var work time.Duration
	if timed {
		work = time.Since(start)
	}
	in.mu.Lock()
	if timed {
		start = time.Now()
	}
	ack, joined := in.bk.delta(req.Node, req.Epoch, req.Window, req.Seq, req.Folds, req.Cut, time.Now(), func(age int, w uint64) error {
		if decodeErr != nil {
			return decodeErr
		}
		if err := in.ws.AddSketch(age, *delta); err != nil {
			return err
		}
		if fn := a.opts.OnApplied; fn != nil {
			fn(req.Node, req.Epoch, req.Seq, w, max(1, int(req.Folds)), *delta)
		}
		in.gen.Add(1) // new data: recovery and point-state caches are now stale
		return nil
	})
	if timed {
		work += time.Since(start)
	}
	in.mu.Unlock()
	if joined {
		m.joins.Inc()
	}
	if timed {
		m.foldSeconds.Observe(work.Seconds())
	}
	m.frames.Inc()
	switch {
	case ack.Err != "":
		m.rejected.Inc()
	case ack.Status == StatusDuplicate:
		m.duplicates.Inc()
	case ack.Status == statusDroppedOld:
		m.dropped.Inc()
	default:
		m.applied.Inc()
		if csoutlier.PairsEncoded(req.Payload) {
			m.pairFrames.Inc()
		} else {
			m.sketchFrames.Inc()
		}
		if req.Folds > 1 {
			m.shedFrames.Inc()
			m.shedFolds.Add(int64(req.Folds - 1))
		}
	}
	return ack
}

// hello admits a node and returns the current window. A node the
// aggregator has never seen (or one coming back retired) joins the
// membership here — unless its hello names a consensus other than the
// aggregator's, or the node is new and the book full (counted as
// refused): either way it is neither joined nor refreshed. A cut given
// back to a relay is snapshotted first, when there is a snapshot file:
// the relay's leaves trim by it, so a crash must not lose what it names.
func (a *Aggregator) hello(req pushRequest) Ack {
	a.metrics.hellos.Inc()
	var idErr error
	if len(req.ID) > 0 {
		idErr = a.sk.CheckIdentity(req.ID)
	}
	in := &a.in
	in.mu.Lock()
	if idErr != nil {
		ack := in.bk.reply(statusHello)
		in.mu.Unlock()
		ack.Err = idErr.Error()
		return ack
	}
	ack, joined, refused := in.bk.hello(req.Node, req.Epoch, time.Now())
	in.mu.Unlock()
	if joined {
		a.metrics.joins.Inc()
	}
	if refused {
		a.metrics.refusals.Inc()
	}
	if len(ack.Cut) > 0 && a.maybeSnapshot() != nil {
		ack.Cut, ack.Err = nil, "stream: the cut for "+req.Node+" could not be made durable"
	}
	return ack
}

// bye retires a node's membership gracefully. Its record stays: a late
// retry of an already-folded frame still dedups, and a same-epoch
// reappearance revives the state intact.
func (a *Aggregator) bye(req pushRequest) Ack {
	in := &a.in
	in.mu.Lock()
	defer in.mu.Unlock()
	ack, left := in.bk.bye(req.Node, req.Epoch)
	if left {
		a.metrics.leaves.Inc()
	}
	return ack
}

// EvictIdle retires every live node whose last frame is older than
// olderThan, returning how many were evicted. The background loop
// (AggregatorOptions.EvictAfter) calls it on a timer; tests call it
// directly for determinism.
func (a *Aggregator) EvictIdle(olderThan time.Duration) int {
	deadline := time.Now().Add(-olderThan)
	a.in.mu.Lock()
	defer a.in.mu.Unlock()
	evicted := a.in.bk.evict(deadline)
	a.metrics.evictions.Add(int64(evicted))
	return evicted
}

// Nodes returns the liveness/lag table — live members and retired
// (left/evicted) ones, distinguished by State — sorted by node name.
func (a *Aggregator) Nodes() []NodeStatus {
	a.in.mu.Lock()
	defer a.in.mu.Unlock()
	return a.in.bk.statuses()
}

// liveNodes returns how many nodes are current members.
func (a *Aggregator) liveNodes() int {
	a.in.mu.Lock()
	defer a.in.mu.Unlock()
	return len(a.in.bk.members) - a.in.bk.retired
}
