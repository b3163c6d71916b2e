package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"csoutlier"
)

// ingest is the fold state and the one mutex every fold, rotation,
// membership change and snapshot capture serialises on.
type ingest struct {
	mu     sync.Mutex
	window uint64 // current window ID, from 1
	epoch  uint64 // aggregator incarnation; RestoreAggregator bumps it
	ws     *csoutlier.WindowStore
	// gen is the fold generation: bumped on every fold and rotation, it
	// versions both the recovery cache and the point-state cache. Writes
	// happen under mu, after the ring change they version; reads are
	// atomic, so the point-query fast path never touches mu.
	gen     atomic.Uint64
	members members
	tick    atomic.Uint64 // frame counter for sampled fold timing
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
// payload and Φ alone. Under mu, applyFrame does only admission, dedup,
// window placement and one M-float add, so connections measure in
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
	ack := a.applyFrame(req, *delta, decodeErr)
	if timed {
		work += time.Since(start)
	}
	in.mu.Unlock()
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

// applyFrame is the bare fold of a decoded delta: admission,
// idempotency, window placement and the sketch addition, no
// instrumentation. decodeErr is what decoding the payload into delta
// returned; it is reported where a payload check always was, after the
// frame is admitted, known new and placed in a window. The caller holds
// in.mu.
func (a *Aggregator) applyFrame(req pushRequest, delta csoutlier.Sketch, decodeErr error) Ack {
	in := &a.in
	ack := Ack{Window: in.window, AggEpoch: in.epoch}
	ns, err := in.members.admit(req.Node, req.Epoch)
	if err != nil {
		ack.Err = err.Error()
		return ack
	}
	ns.status.LastSeen = time.Now()
	// mark records seq as processed and, for a non-durable aggregator
	// (which never restores, so acked == durable), advances the stable
	// watermark with it.
	mark := func(seq uint64) {
		ns.tracker.mark(seq)
		if !a.opts.Durable {
			ns.status.Stable = ns.tracker.base
		}
	}
	ackStable := func() Ack {
		ack.Stable = ns.status.Stable
		return ack
	}
	reject := func(format string, args ...any) Ack {
		ack.Err = fmt.Sprintf(format, args...)
		ns.status.Rejected++
		return ackStable()
	}
	if req.Seq == 0 {
		return reject("stream: delta frames number from seq 1")
	}
	if ns.tracker.seen(req.Seq) {
		// Redelivery (lost ack, duplicated packet, replay), or a seq
		// below one already processed: ack again, fold nothing.
		ack.Status = StatusDuplicate
		ns.status.Duplicates++
		return ackStable()
	}
	// A node is ahead only when this aggregator's counter went back: a
	// non-durable one restarted at window 1, and its nodes never adopt a
	// lower window. Such a delta folds into the open window, as a late
	// one folds into its own.
	w := min(req.Window, in.window)
	age := in.window - w
	if age >= uint64(in.ws.Windows()) {
		// Too old to represent. Acknowledge and mark it so the node moves
		// on — re-sending can never succeed.
		mark(req.Seq)
		ack.Status = statusDroppedOld
		ns.status.Dropped++
		return ackStable()
	}
	if err = decodeErr; err == nil {
		err = in.ws.AddSketch(int(age), delta)
	}
	if err != nil {
		// Corrupt, consensus-mismatched or overflowing payload: rejected
		// before it can touch the aggregate, and not marked, so the same
		// seq sent again before any later one still folds.
		return reject("stream: node %s delta seq %d: %v", req.Node, req.Seq, err)
	}
	mark(req.Seq)
	ns.status.Applied++
	if fn := a.opts.OnApplied; fn != nil {
		fn(w, max(1, int(req.Folds)), delta)
	}
	if req.Folds > 1 {
		// A relay's frame: the exact sum of Folds leaf deltas it folded
		// before forwarding — account them so "captures folded"
		// reconciles.
		ns.status.ShedFrames++
		ns.status.ShedFolds += int64(req.Folds - 1)
	}
	if w > ns.status.LastWindow {
		ns.status.LastWindow = w
	}
	in.gen.Add(1) // new data: recovery and point-state caches are now stale
	ack.Applied = true
	ack.Status = statusApplied
	return ackStable()
}
