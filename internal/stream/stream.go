// Package stream is the push-based continuous-detection service: the
// subsystem that turns the batch sketch pipeline into a long-running
// system serving the paper's production setting, where "a terabyte of
// new click log data is generated every 10 mins" (§1) and the same
// substrate runs as a standing sketch store (Impression Store, the
// paper's reference [41]).
//
// Topology and protocol. A Node (one per data center) wraps a standing
// csoutlier.Updater: observations fold into the O(M) sketch locally,
// and the node periodically drains the sketch into a *delta* — the
// exact measurement of everything observed since the previous drain —
// and pushes it to the Aggregator over a persistent TCP connection, as
// one fixed binary frame (wire.go) the aggregator folds straight from
// its read buffer.
// Every delta frame is tagged with (node, epoch, window, seq):
//
//   - window is the wall-clock window the observations belong to, as
//     assigned by the aggregator's rotation clock and learned by nodes
//     from ack piggybacks — sketch linearity means a window-tagged delta
//     folds correctly whenever it arrives, so late and out-of-order
//     frames need no coordination round;
//   - (epoch, seq) make folding idempotent: the aggregator tracks the
//     processed sequence numbers of each node incarnation and folds
//     each delta exactly once, no matter how often retries, reconnects
//     or duplicated packets redeliver it. A node that restarts from
//     scratch announces a higher epoch, which resets its sequence space
//     (and abandons any un-acked data the old incarnation lost).
//
// The Aggregator maintains the global per-window standing sketches in a
// csoutlier.WindowStore, folds each incoming delta on the goroutine
// that read it, under one mutex, before acking it (stop-and-wait is the
// backpressure a pusher sees), rotates windows on a wall clock, tracks
// per-node liveness and window lag, and answers "outliers over the last
// W windows" queries from a recovery cache invalidated whenever a delta
// lands.
//
// cmd/csstreamd is the deployable daemon; csnode -push streams a node's
// slice into it; internal/simtest drives the whole service through
// chaos TCP against a differential oracle.
package stream

import "csoutlier"

// The push protocol: one request/response exchange per frame,
// node-initiated (the reverse of internal/cluster's pull protocol, whose
// aggregator is the client), strictly stop-and-wait — a connection
// carries one outstanding request, which is what lets both ends reuse a
// single buffer per connection. wire.go has the byte layout. Four
// request kinds:
//
//	hello  — announce (node, epoch), learn the current window; sent on
//	         every (re)connect and as an idle heartbeat. Also the join
//	         path: a node the aggregator has never seen becomes a
//	         member on its first hello.
//	delta  — push one window-tagged sketch delta; the payload is the
//	         csoutlier binary sketch codec, so the full consensus
//	         identity (M, N, seed, ensemble) travels with every delta
//	         and a mismatched node is rejected before it can corrupt
//	         the aggregate.
//	bye    — announce a graceful leave: the aggregator retires the
//	         node's membership (its dedup book is kept as a tombstone
//	         so a late retry still dedups, never refolds).
//	query  — answer a point-query watch list over a window-age span
//	         from the recovery-free count-sketch path. A read, not a
//	         fold: it takes the fold mutex for at most one span copy and replies
//	         with a QueryReply instead of an Ack.
//
// and two reply kinds: an Ack for hello, delta and bye, a QueryReply
// for a query.
type pushKind uint8

const (
	pushHello pushKind = iota + 1
	pushDelta
	pushBye
	pushPointQuery
	replyAck
	replyQuery
)

// pushRequest is a decoded node→aggregator frame. On the aggregator,
// Payload aliases the connection's read buffer: it is valid until the
// frame is acked.
type pushRequest struct {
	Kind    pushKind
	Node    string
	Epoch   uint64
	Window  uint64 // delta only: window ID the observations belong to
	Seq     uint64 // delta only: per-(node, epoch) sequence number, from 1
	Folds   uint32 // delta only: local captures merged into this frame (0/1 = plain, >1 = shed)
	Payload []byte // delta only: csoutlier.Sketch binary codec bytes

	// Point-query fields (Kind == pushPointQuery only): the window-age
	// span, the watch list, and the outlier-classification threshold —
	// the wire form of Aggregator.PointQueryMulti's arguments.
	FromAge   int
	ToAge     int
	Keys      []string
	Threshold float64
}

// QueryReply is the aggregator's reply to a pushPointQuery frame: one
// answer per requested key, in request order. Err is a query-level
// rejection (unknown key, span out of range, non-count-sketch backend)
// on a healthy connection.
type QueryReply struct {
	Err     string
	Answers []csoutlier.PointAnswer
}

// Statuses an Ack can carry for a processed delta.
const (
	// StatusApplied: the delta was folded into its window.
	StatusApplied = "applied"
	// StatusDuplicate: this (epoch, seq) was already processed; the
	// delta was ignored. The normal outcome of a retry whose original
	// ack was lost.
	StatusDuplicate = "duplicate"
	// StatusDroppedOld: the delta's window has already been evicted from
	// the ring; the data is acknowledged (so the node moves on) but no
	// longer representable.
	StatusDroppedOld = "dropped-old"
	// StatusHello: the ack answers a hello, not a delta.
	StatusHello = "hello"
	// StatusBye: the ack answers a graceful leave.
	StatusBye = "bye"
)

// Ack is the aggregator's reply to one push frame.
type Ack struct {
	// Err is a frame-level rejection (stale epoch, corrupt payload,
	// future window). The frame was not applied and must not be
	// retried as-is.
	Err string
	// Window is the aggregator's current window ID — the rotation
	// broadcast. Nodes adopt it: observations after the ack land in the
	// new window.
	Window uint64
	// Applied reports whether a delta was folded into a window.
	Applied bool
	// Status is one of the Status* constants.
	Status string
	// AggEpoch is the aggregator's incarnation number. It starts at 1 and
	// is bumped on every snapshot restore; a node that sees it increase
	// knows the aggregator may have lost recently-acked frames and
	// replays its retained ones (the restored dedup books drop the
	// already-durable ones as duplicates).
	AggEpoch uint64
	// Stable is the node's durable sequence watermark: every seq in
	// [1, Stable] of the node's current epoch was covered by the
	// aggregator's last committed snapshot (or folded by a non-durable
	// aggregator, which never forgets) and can never need replay. Nodes
	// trim their replay-retention buffer with it.
	Stable uint64
}

// seqTracker records which delta sequence numbers of one node epoch
// have been processed, making folds idempotent under duplicate and
// out-of-order delivery. It keeps a contiguous low-water mark plus the
// sparse set of sequence numbers processed ahead of it, so memory stays
// O(reordering window), not O(stream length).
type seqTracker struct {
	base  uint64 // every seq in [1, base] has been processed
	ahead map[uint64]struct{}
}

// seen reports whether seq has already been processed.
func (t *seqTracker) seen(seq uint64) bool {
	if seq <= t.base {
		return true
	}
	_, ok := t.ahead[seq]
	return ok
}

// mark records seq as processed and advances the contiguous mark.
func (t *seqTracker) mark(seq uint64) {
	if seq <= t.base {
		return
	}
	if t.ahead == nil {
		t.ahead = make(map[uint64]struct{})
	}
	t.ahead[seq] = struct{}{}
	for {
		if _, ok := t.ahead[t.base+1]; !ok {
			return
		}
		t.base++
		delete(t.ahead, t.base)
	}
}
