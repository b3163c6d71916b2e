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
// Every delta is tagged with (node, epoch, window, seq), the first two
// named once per connection by its hello:
//
//   - window is the wall-clock window the observations belong to, as
//     assigned by the aggregator's rotation clock and learned by nodes
//     from ack piggybacks — sketch linearity means a window-tagged delta
//     folds correctly whenever it arrives, so late frames need no
//     coordination round;
//   - (epoch, seq) make folding idempotent: a node's sender pushes
//     stop-and-wait in ascending seq order, replays included, so the
//     aggregator keeps one number per node incarnation, the highest seq
//     processed, and folds each delta exactly once, no matter how often
//     retries, reconnects or duplicated packets redeliver it. A node
//     that restarts from scratch announces a higher epoch, which resets
//     its sequence space (and abandons any un-acked data the old
//     incarnation lost).
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

// The push protocol: one request/response exchange per frame,
// node-initiated (the reverse of internal/cluster's pull protocol, whose
// aggregator is the client), strictly stop-and-wait — a connection
// carries one outstanding request, which is what lets both ends reuse a
// single buffer per connection. wire.go has the byte layout. Three
// request kinds:
//
//	hello  — announce (node, epoch) and, from a Sender, the consensus
//	         identity (M, N, seed, ensemble, depth); learn the current
//	         window. Sent on every (re)connect and as an idle heartbeat;
//	         once admitted, the deltas and bye that follow on the
//	         connection speak for that (node, epoch).
//	         Also the join path: a node the aggregator has never seen
//	         becomes a member on its first hello, unless it named
//	         another consensus.
//	delta  — push one window-tagged sketch delta; the payload is the
//	         csoutlier delta codec: a sketch carries the consensus
//	         identity, pairs a checksum that covers it, so a payload of
//	         another consensus is rejected before it can corrupt the
//	         aggregate.
//	bye    — announce a graceful leave: the aggregator retires the
//	         node's membership (its dedup book is kept as a tombstone
//	         so a late retry still dedups, never refolds).
//
// and one reply kind, the Ack. Sketches travel one way: queries are
// answered in the process that holds the windows (Aggregator.Outliers,
// PointQueryMulti), not over this wire; any other kind is refused as
// unknown.
type pushKind uint8

const (
	pushHello pushKind = 1
	pushDelta pushKind = 2
	pushBye   pushKind = 3
	replyAck  pushKind = 5
)

// pushRequest is a decoded node→aggregator frame. On the aggregator,
// Payload aliases the connection's read buffer: it is valid until the
// frame is acked.
type pushRequest struct {
	Kind    pushKind
	Node    string     // a hello's, or for delta and bye the connection's (not on the wire)
	Epoch   uint64     // likewise
	Window  uint64     // delta only: window ID the observations belong to
	Seq     uint64     // delta only: per-(node, epoch) sequence number, from 1
	Folds   uint32     // delta only: captures summed into this frame (0/1 = plain, >1 = a relay's sum)
	Cut     []SnapNode // delta only: a relay's, the leaf folds the frame sums (see Frame.Cut)
	Payload []byte     // delta only: csoutlier.Sketch binary codec bytes
	ID      []byte     // hello only: the consensus identity the node names (csoutlier.IdentityLen bytes), or none
}

// Statuses an Ack can carry for a processed delta.
const (
	// statusApplied: the delta was folded into its window.
	statusApplied = "applied"
	// StatusDuplicate: this (epoch, seq) was already processed; the
	// delta was ignored. The normal outcome of a retry whose original
	// ack was lost.
	StatusDuplicate = "duplicate"
	// statusDroppedOld: the delta's window has already been evicted from
	// the ring; the data is acknowledged (so the node moves on) but no
	// longer representable.
	statusDroppedOld = "dropped-old"
	// statusHello: the ack answers a hello, not a delta.
	statusHello = "hello"
	// statusBye: the ack answers a graceful leave.
	statusBye = "bye"
)

// Ack is the aggregator's reply to one push frame.
type Ack struct {
	// Err is a frame-level rejection (another consensus, stale epoch,
	// seq 0, corrupt or overflowing payload). The frame was not applied
	// and must not be retried as-is.
	Err string
	// Window is the aggregator's current window ID — the rotation
	// broadcast. Nodes adopt it: observations after the ack land in the
	// new window.
	Window uint64
	// Applied reports whether a delta was folded into a window.
	Applied bool
	// Status is "applied", StatusDuplicate, "dropped-old", "hello" or
	// "bye".
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
	// Cut, in a hello ack only, is the cut the aggregator merged from
	// the node's frames: per leaf below a relay, the highest seq of its
	// epoch the relay's frames summed. It travels when the node has
	// folded nothing yet at its epoch (a relay's new incarnation), which
	// seeds its leaf-facing books from it (tier.NewRelay).
	Cut []SnapNode
}
