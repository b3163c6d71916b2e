package stream

import (
	"net"
	"time"

	"csoutlier"
	"csoutlier/internal/obs"
)

// AggregatorOptions tunes the aggregator. The zero value gets
// production defaults and manual (Rotate-driven) window rotation.
type AggregatorOptions struct {
	// Windows is the ring capacity of the global window store: the
	// current window plus Windows-1 sealed ones stay queryable
	// (default 8).
	Windows int
	// WindowEvery, when positive, rotates windows on this wall-clock
	// period. 0 = the caller drives Rotate explicitly (tests, or an
	// external clock source).
	WindowEvery time.Duration
	// IdleTimeout, when positive, disconnects a node that sends nothing
	// for this long. Nodes reconnect transparently; the timeout only
	// reclaims handler goroutines from dead peers. 0 = never.
	IdleTimeout time.Duration
	// Metrics is the registry the aggregator's stream_* families are
	// registered in — pass the process registry to expose them on
	// /metrics. nil = a private registry (Stats still works; nothing is
	// exported).
	Metrics *obs.Registry
	// SnapshotPath, when non-empty, makes the aggregator durable: it
	// writes an atomic-rename snapshot (window ring + dedup books +
	// membership) to this path after every rotation, on every
	// SnapshotEvery tick, and on Close. On restart, restore with
	// LoadSnapshot + RestoreAggregator.
	SnapshotPath string
	// SnapshotEvery, when positive, also writes snapshots on this
	// wall-clock period (requires SnapshotPath).
	SnapshotEvery time.Duration
	// Durable forces durable ack semantics without a snapshot path: acks
	// advance the nodes' Stable watermark only at a commit — a
	// WriteSnapshot's, or an embedder's Commit — so nodes retain acked
	// frames for replay. Implied by SnapshotPath; a restored aggregator,
	// and so a tier relay's, is durable whatever it says.
	Durable bool
	// EvictAfter, when positive, evicts nodes not heard from for this
	// long: their membership is retired into a tombstone (the record,
	// dedup book included, stays as long as the aggregator, so a late
	// frame still dedups) and their per-node metric series are dropped.
	// 0 = never evict. Tests drive EvictIdle directly.
	EvictAfter time.Duration
	// OnApplied, when set, is invoked for every applied delta — under
	// the aggregator mutex, right after the frame folds and before its
	// seq is marked processed — with the sender's (node, epoch, seq),
	// the window it folded into, its local-capture count (max(1, Folds))
	// and the decoded delta sketch. The tier relay uses it to accumulate
	// the per-window upward delta, and the cut it covers, atomically
	// with the fold it mirrors. The callback must be fast and must not
	// call back into the aggregator. delta is the connection's decode
	// scratch: it is valid for the duration of the call only.
	OnApplied func(node string, epoch, seq, window uint64, folds int, delta csoutlier.Sketch)
}

func (o AggregatorOptions) withDefaults() AggregatorOptions {
	if o.Windows <= 0 {
		o.Windows = 8
	}
	if o.SnapshotPath != "" {
		o.Durable = true
	}
	return o
}

// Membership states of a node, as surfaced in NodeStatus.State.
const (
	// StateLive: the node is a current member.
	StateLive = "live"
	// StateLeft: the node announced a graceful leave (bye). Its dedup
	// book is tombstoned: late retries still dedup, never refold.
	StateLeft = "left"
	// stateEvicted: the node went silent past the liveness deadline and
	// was retired by the aggregator. Same tombstone semantics as a
	// leave; a same-epoch reappearance resurrects the state intact.
	stateEvicted = "evicted"
)

// NodeStatus is the aggregator's liveness/lag view of one streaming
// node — the server-side counterpart of the pull path's
// cluster.NodeReport.
type NodeStatus struct {
	Node       string
	State      string    // StateLive, StateLeft or "evicted"
	Epoch      uint64    // latest announced incarnation
	LastSeen   time.Time // last frame (hello or delta) from the node
	LastWindow uint64    // window the node's latest applied delta folded into
	Lag        uint64    // current window − LastWindow (0 = fully caught up)
	Applied    int64     // deltas folded
	Duplicates int64     // deltas ignored as already-processed
	Dropped    int64     // deltas acknowledged but older than the ring
	Rejected   int64     // frames refused (stale epoch, corrupt payload, …)
	Restarts   int64     // epoch bumps observed
	// ShedFrames/ShedFolds count the node's applied frames that carry
	// more than one capture and the extra captures folded into them —
	// only a relay sends such frames.
	ShedFrames int64
	ShedFolds  int64
	// Stable is the node's durable sequence watermark: every seq ≤ Stable
	// of the current epoch survives an aggregator restore.
	Stable uint64
}

// AggStats is a snapshot of aggregator-wide counters. Every counter is
// read from the aggregator's metrics registry (see AggregatorOptions
// .Metrics) — the struct is a convenience view over the same numbers
// /metrics exports, not a second set of books.
type AggStats struct {
	Window      uint64 // current window ID
	Nodes       int    // live members, as the stream_nodes gauge
	Conns       int64  // connections accepted
	Hellos      int64  // hello frames answered
	Frames      int64  // delta frames processed (all outcomes)
	Applied     int64
	Duplicates  int64
	Dropped     int64
	Rejected    int64
	Rotations   int64
	CacheHits   int64 // outlier queries answered from the recovery cache
	CacheMisses int64 // outlier queries that ran BOMP
	// WarmStarts counts recoveries (missed or piggybacked) that reused a
	// previous generation's selection order as the BOMP warm hint.
	WarmStarts int64
	// BatchRefreshes counts stale standing queries refreshed by
	// piggybacking on another query's recovery batch.
	BatchRefreshes int64
	// PointQueries counts recovery-free single-key queries;
	// PointRefreshes is how many of them had to re-fold their span's
	// sketch from the ring (the rest answered from a committed state in
	// O(depth)); PointOutliers is how many crossed the caller's
	// threshold.
	PointQueries   int64
	PointRefreshes int64
	PointOutliers  int64
	// AggEpoch is the aggregator's incarnation (bumped on restore);
	// Membership versions the member set (bumped on join/leave/evict).
	AggEpoch   uint64
	Membership uint64
	// Joins/Leaves/Evictions count membership events; Tombstones is the
	// current retired-state count.
	Joins      int64
	Leaves     int64
	Evictions  int64
	Tombstones int
	// Snapshots/SnapshotErrors count snapshot writes; SnapshotBytes is
	// the size of the last one.
	Snapshots      int64
	SnapshotErrors int64
	SnapshotBytes  int64
	// ShedFrames counts applied frames that carried >1 capture (a
	// relay's sum of leaf deltas); ShedFolds is the extra captures they
	// carried (sum of folds−1). Applied + ShedFolds = captures folded.
	ShedFrames int64
	ShedFolds  int64
}

// Aggregator is the server half of the streaming service. It folds
// window-tagged deltas from any number of nodes into a global
// csoutlier.WindowStore, exactly once each, and answers "outliers over
// the last W windows" queries from a recovery cache invalidated when
// new data lands.
//
// There is one serialisation point, ingest.mu: a connection's handler
// goroutine reads a frame, decodes (and, for pairs, measures) it into
// the connection's own scratch without the mutex, folds it under the
// mutex and writes the ack, so a pusher's next frame is not read until
// its current one is folded (stop-and-wait is the backpressure). Eq. 1
// is a sum, so the order in which handlers win the mutex cannot change
// a window; a test that needs one fold order drives the frames from one
// goroutine.
//
// The state is four components, each owning the mutex that guards its
// fields (ingest.go, queries.go, points.go, lifecycle.go). Lock order:
// qmu → mu, pmu → mu, snapMu → mu; connMu nests inside nothing.
type Aggregator struct {
	sk      *csoutlier.Sketcher
	opts    AggregatorOptions
	limits  frameLimits // per-kind request body caps, from the consensus M
	metrics *aggMetrics // registry-backed counters, always set

	in   ingest    // mu: window ring and the book (window, incarnation, members)
	q    queries   // qmu: recovery cache and its range-sketch buffers
	pts  points    // pmu: committed point-query states
	life lifecycle // connMu: listeners and connections; snapMu: the durable snapshot cycle
}

// NewAggregator builds a streaming aggregator bound to the Sketcher
// consensus every node must share.
func NewAggregator(sk *csoutlier.Sketcher, opts AggregatorOptions) (*Aggregator, error) {
	return newAggregator(sk, opts, 1)
}

// newAggregator builds an aggregator of incarnation epoch: 1 for a
// fresh one, the snapshot's + 1 for a restored one. Nodes that see the
// epoch increase replay their retained frames.
func newAggregator(sk *csoutlier.Sketcher, opts AggregatorOptions, epoch uint64) (*Aggregator, error) {
	opts = opts.withDefaults()
	ws, err := sk.NewWindowStore(opts.Windows)
	if err != nil {
		return nil, err
	}
	a := &Aggregator{
		sk:     sk,
		opts:   opts,
		limits: requestLimits(sk.M()),
		in:     ingest{bk: newBook(opts.Durable, opts.Windows, epoch), ws: ws},
		q:      queries{cache: newGenCache[queryKey, queryResult](cacheCap)},
		pts:    points{cache: newGenCache[pointKey, *csoutlier.PointState](pointCacheCap)},
		life:   lifecycle{conns: make(map[net.Conn]struct{}), quit: make(chan struct{})},
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	a.metrics = newAggMetrics(reg, a)
	if opts.WindowEvery > 0 {
		// A durable aggregator snapshots right after each rotation: the
		// snapshot's window counter then matches what nodes learn from
		// their next ack, so a restore never resurrects a pre-rotation
		// window numbering.
		a.life.every(opts.WindowEvery, func() { a.Rotate(); a.maybeSnapshot() })
	}
	if opts.SnapshotPath != "" && opts.SnapshotEvery > 0 {
		a.life.every(opts.SnapshotEvery, func() { a.maybeSnapshot() })
	}
	if opts.EvictAfter > 0 {
		a.life.every(max(opts.EvictAfter/4, 10*time.Millisecond), func() { a.EvictIdle(opts.EvictAfter) })
	}
	return a, nil
}

// Epoch returns the aggregator's incarnation number (1 for a fresh
// aggregator; a restore bumps it).
func (a *Aggregator) Epoch() uint64 {
	a.in.mu.Lock()
	defer a.in.mu.Unlock()
	return a.in.bk.epoch
}

// Rotate seals the current window and opens the next. Nodes learn the
// new window from the next ack they receive (hello heartbeats bound the
// lag); in-flight deltas tagged with sealed windows still fold into the
// right slot, so rotation needs no barrier.
func (a *Aggregator) Rotate() uint64 {
	a.in.mu.Lock()
	defer a.in.mu.Unlock()
	a.in.ws.Rotate()
	a.in.bk.window++
	a.in.gen.Add(1)
	a.metrics.rotations.Inc()
	return a.in.bk.window
}

// CurrentWindow returns the current window ID.
func (a *Aggregator) CurrentWindow() uint64 {
	a.in.mu.Lock()
	defer a.in.mu.Unlock()
	return a.in.bk.window
}

// AvailableWindows returns how many windows currently hold data.
func (a *Aggregator) AvailableWindows() int { return a.in.ws.Available() }

// WindowSketch returns a copy of the global sketch of the window `age`
// rotations ago (0 = the open window).
func (a *Aggregator) WindowSketch(age int) (csoutlier.Sketch, error) {
	return a.in.ws.Window(age)
}

// RangeSketch returns a copy of the summed global sketch over window
// ages [fromAge, toAge] — input for aggregate statistics beyond the
// cached outlier query (csoutlier.Sketcher.Aggregate and friends).
func (a *Aggregator) RangeSketch(fromAge, toAge int) (csoutlier.Sketch, error) {
	return a.in.ws.Range(fromAge, toAge)
}

// Stats returns a snapshot of aggregator-wide counters, read from the
// metrics registry. Counters are sampled individually (atomics, not one
// critical section), so a snapshot taken while frames are in flight may
// be mid-frame inconsistent by one; at quiescence the identities
// Frames == Applied+Duplicates+Dropped+Rejected and
// CacheHits+CacheMisses == queries hold exactly.
func (a *Aggregator) Stats() AggStats {
	a.in.mu.Lock()
	bk := &a.in.bk
	s := AggStats{
		Window:     bk.window,
		Nodes:      len(bk.members) - bk.retired,
		AggEpoch:   bk.epoch,
		Membership: bk.version,
		Tombstones: bk.retired,
	}
	a.in.mu.Unlock()
	m := a.metrics
	s.Conns = m.conns.Value()
	s.Hellos = m.hellos.Value()
	s.Frames = m.frames.Value()
	s.Applied = m.applied.Value()
	s.Duplicates = m.duplicates.Value()
	s.Dropped = m.dropped.Value()
	s.Rejected = m.rejected.Value()
	s.Rotations = m.rotations.Value()
	s.CacheHits = m.cacheHits.Value()
	s.CacheMisses = m.cacheMisses.Value()
	s.WarmStarts = m.warmStarts.Value()
	s.BatchRefreshes = m.batchRefreshes.Value()
	s.PointQueries = m.pointQueries.Value()
	s.PointRefreshes = m.pointRefreshes.Value()
	s.PointOutliers = m.pointOutliers.Value()
	s.Joins = m.joins.Value()
	s.Leaves = m.leaves.Value()
	s.Evictions = m.evictions.Value()
	s.Snapshots = m.snapshots.Value()
	s.SnapshotErrors = m.snapshotErrors.Value()
	s.SnapshotBytes = int64(m.snapshotBytes.Value())
	s.ShedFrames = m.shedFrames.Value()
	s.ShedFolds = m.shedFolds.Value()
	return s
}

// MetricsRegistry returns the registry holding the aggregator's
// stream_* families: the one supplied in AggregatorOptions.Metrics, or
// the private registry created when none was.
func (a *Aggregator) MetricsRegistry() *obs.Registry { return a.metrics.reg }
