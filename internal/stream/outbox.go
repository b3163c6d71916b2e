package stream

import "slices"

// maxRetained caps the acked frames an outbox keeps for replay; past it
// the oldest go, each counted in RetainDropped.
const maxRetained = 1024

// outbox is the sending end's book: every decision a Sender makes about
// its frames, and no I/O, clock, lock (the Sender holds it under mu) or
// metric. It owns the seq space and one queue in seq order, cut in two
// by the acked cursor:
//
//	queue[:acked]   acked, not yet durable: sent again if the aggregator restarts
//	the rest        pending: the head is what the next attempt sends
type outbox struct {
	seq      uint64   // the last seq pushed
	queue    []*Frame // seq order
	acked    int
	sent     *Frame     // what the attempt in flight sent, until its ack
	aggEpoch uint64     // the aggregator incarnation last heard (0 = none yet)
	durable  []SnapNode // the cuts of the frames the last ack's Stable let leave
	free     []*Frame   // frames nothing can resend any more; alloc reuses their buffers
	stats    NodeStats
}

// alloc returns a frame to fill and push, with a recycled payload buffer
// (f.Payload[:0]) when there is one.
func (o *outbox) alloc() *Frame {
	if last := len(o.free) - 1; last >= 0 {
		f := o.free[last]
		o.free = o.free[:last]
		return f
	}
	return &Frame{}
}

// recycle hands the buffer of f, a frame that has left the queue, to
// future allocs.
func (o *outbox) recycle(f *Frame) {
	if len(o.free) < freeCap {
		o.free = append(o.free, f)
	}
}

// push gives f the next seq and queues it, sendable at once.
func (o *outbox) push(f *Frame) {
	o.seq++
	f.Seq = o.seq
	o.queue = append(o.queue, f)
}

// head returns the first pending frame, or nil.
func (o *outbox) head() *Frame {
	if o.acked < len(o.queue) {
		return o.queue[o.acked]
	}
	return nil
}

// send returns what an attempt sends: the head as the attempt finds it
// once its redial's hello is heard, so a replay that hello requeued goes
// before the frame an earlier attempt sent.
func (o *outbox) send() *Frame {
	o.sent = o.head()
	return o.sent
}

// heard processes an ack. A delta's (settles) first settles the frame
// sent, which stop-and-wait makes the head: refused, it leaves the
// queue; otherwise it is acked. An AggEpoch bump then moves the acked
// cursor back to 0 — the restored aggregator may have lost those frames,
// its dedup books drop the ones it did not — and last, acked frames the
// aggregator declares durable (Seq ≤ Stable) leave, their cuts kept for
// the owner, and so do the oldest past maxRetained, whose cuts nothing
// commits.
func (o *outbox) heard(a Ack, settles bool) {
	o.durable = o.durable[:0]
	if f := o.sent; settles && f != nil && o.acked < len(o.queue) && o.queue[o.acked] == f {
		o.stats.Acked++
		switch {
		case a.Err != "":
			o.stats.Rejected++
			o.queue = slices.Delete(o.queue, o.acked, o.acked+1)
			o.recycle(f)
		case a.Applied:
			o.stats.Applied++
		case a.Status == StatusDuplicate:
			o.stats.Duplicates++
		case a.Status == statusDroppedOld:
			o.stats.Dropped++
		}
		if a.Err == "" {
			o.acked++
		}
	}
	if settles {
		o.sent = nil
	}
	if a.AggEpoch > o.aggEpoch {
		if o.aggEpoch != 0 {
			o.stats.Replayed += int64(o.acked)
			o.acked = 0
		}
		o.aggEpoch = a.AggEpoch
	}
	o.stats.Stable = a.Stable
	drop := 0
	for ; drop < o.acked && (o.queue[drop].Seq <= a.Stable || o.acked-drop > maxRetained); drop++ {
		if f := o.queue[drop]; f.Seq > a.Stable {
			o.stats.RetainDropped++
		} else {
			o.durable = append(o.durable, f.Cut...)
		}
		o.recycle(o.queue[drop])
	}
	if drop > 0 {
		n := copy(o.queue, o.queue[drop:])
		clear(o.queue[n:])
		o.queue, o.acked = o.queue[:n], o.acked-drop
	}
}
