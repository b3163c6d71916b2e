package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csoutlier"
	"csoutlier/internal/frame"
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
	// QueueDepth bounds the ingest queue between connection handlers and
	// the folder (default 64). When full, handlers block before reading
	// the next frame, so backpressure reaches pushers through TCP.
	QueueDepth int
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
	// advance the nodes' Stable watermark only at CommitSnapshot, so
	// nodes retain acked frames for replay. Implied by SnapshotPath;
	// useful for in-memory snapshot/restore (tests, embedding).
	Durable bool
	// EvictAfter, when positive, evicts nodes not heard from for this
	// long: their membership is retired into a tombstone (the dedup book
	// survives, so a late frame still dedups) and their per-node metric
	// series are dropped. 0 = never evict. Tests drive EvictIdle
	// directly.
	EvictAfter time.Duration
	// AggEpoch is the aggregator's incarnation number (default 1).
	// RestoreAggregator sets it to the snapshot's epoch + 1; nodes that
	// see it increase replay their retained frames.
	AggEpoch uint64
	// OnApplied, when set, is invoked for every applied delta — under
	// the aggregator mutex, right after the frame folds — with the
	// frame's window tag, its local-capture count (max(1, Folds)) and
	// the decoded delta sketch. The tier relay uses it to accumulate the
	// per-window upward delta atomically with the fold it mirrors. The
	// callback must be fast and must not call back into the aggregator.
	// delta is the aggregator's one decode scratch: it is valid for the
	// duration of the call only.
	OnApplied func(window uint64, folds int, delta csoutlier.Sketch)
	// SnapshotExtra, when set, is invoked inside Snapshot()'s critical
	// section; its bytes ride in Snapshot.Extra, atomically consistent
	// with the window ring and dedup books captured alongside. Same
	// no-reentrancy rule as OnApplied.
	SnapshotExtra func() ([]byte, error)
	// OnSnapshotCommit, when set, is invoked by CommitSnapshot with the
	// committed snapshot's Extra bytes, after the nodes' Stable
	// watermarks advance. The tier relay uses it to release staged
	// upward frames exactly when the snapshot covering them is durable.
	OnSnapshotCommit func(extra []byte)
}

func (o AggregatorOptions) withDefaults() AggregatorOptions {
	if o.Windows <= 0 {
		o.Windows = 8
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.SnapshotPath != "" {
		o.Durable = true
	}
	if o.AggEpoch == 0 {
		o.AggEpoch = 1
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
	// StateEvicted: the node went silent past the liveness deadline and
	// was retired by the aggregator. Same tombstone semantics as a
	// leave; a same-epoch reappearance resurrects the state intact.
	StateEvicted = "evicted"
)

// NodeStatus is the aggregator's liveness/lag view of one streaming
// node — the server-side counterpart of the pull path's
// cluster.NodeHealth.
type NodeStatus struct {
	Node       string
	State      string    // StateLive, StateLeft or StateEvicted
	Epoch      uint64    // latest announced incarnation
	LastSeen   time.Time // last frame (hello or delta) from the node
	LastWindow uint64    // window tag of the node's latest applied delta
	Lag        uint64    // current window − LastWindow (0 = fully caught up)
	Applied    int64     // deltas folded
	Duplicates int64     // deltas ignored as already-processed
	Dropped    int64     // deltas acknowledged but older than the ring
	Rejected   int64     // frames refused (stale epoch, corrupt payload, …)
	Restarts   int64     // epoch bumps observed
	// ShedFrames/ShedFolds count the node's applied merged frames and the
	// extra local captures folded into them (the admission-control path).
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
	Nodes       int    // nodes ever seen
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
	// ShedFrames counts applied frames that were node-side merges of >1
	// local capture; ShedFolds is the extra captures they carried
	// (sum of folds−1). Applied + ShedFolds = captures folded.
	ShedFrames int64
	ShedFolds  int64
}

// nodeState is the per-node fold state: the idempotency tracker for the
// node's current epoch plus its liveness counters. The same struct
// lives on as a tombstone after a leave/eviction, so a late or replayed
// frame from a retired node still dedups instead of refolding.
type nodeState struct {
	tracker seqTracker
	status  NodeStatus
	// stable is the durable sequence watermark acked to the node: in
	// durable mode it advances only when a snapshot covering the seq is
	// committed; otherwise it follows tracker.base (acked == durable).
	stable uint64
}

// maxTombstones bounds retired-node state. Tombstones are tiny (a
// tracker low-water mark plus counters), so the cap only guards a
// pathological churn of distinct node names; eviction is FIFO.
const maxTombstones = 1024

// ingestItem is one delta frame queued for the folder. reply is the
// sending connection's channel: a handler has one frame in flight, and
// waits on it before it reads (and so overwrites req.Payload with) the
// next.
type ingestItem struct {
	req   pushRequest
	reply chan Ack
}

// queryKey identifies one cached recovery result.
type queryKey struct {
	fromAge, toAge, k int
}

// queryResult is a cached recovery result, valid while gen matches the
// aggregator's fold generation. seq orders insertions so eviction can
// drop the oldest entry rather than an arbitrary (or, worse, the
// hottest) one.
type queryResult struct {
	gen    uint64
	seq    uint64
	report *csoutlier.Report
	// sel is the recovery engine's selection order for this result — the
	// warm hint for re-solving the same query on the next generation.
	sel []int
	// standing marks a query that has been asked more than once. Standing
	// queries are the ones worth refreshing speculatively: when any query
	// misses, stale standing entries piggyback on its batched recovery
	// pass, so a dashboard's query set is served by one block correlation
	// per generation instead of one cold solve each.
	standing bool
}

// cacheCap bounds the recovery cache. Standing queries are few; the cap
// only guards against a caller sweeping many distinct (span, k) tuples.
const cacheCap = 64

// pointKey identifies one cached point-query state: a window-age span.
// Unlike the recovery cache there is no k — point queries answer one
// key at a time from the same committed state.
type pointKey struct {
	fromAge, toAge int
}

// pointState is one span's recovery-free point-query engine plus the
// fold generation its committed sketch belongs to. gen and the
// PointState's buffer are written only under a.pmu held exclusively;
// the fast path reads them under a.pmu shared.
type pointState struct {
	ps  *csoutlier.PointState
	gen uint64
	seq uint64 // insertion order, for eviction
}

// pointCacheCap bounds the point-state cache. Each entry owns one
// M-float sketch buffer; dashboards watch a handful of spans, so the
// cap only guards a caller sweeping many distinct spans.
const pointCacheCap = 32

// pointSampleMask picks which point queries get wall-clock timing:
// query ticks where tick&mask == 1, i.e. the first query and then 1 in
// 256. A warm point query is O(depth) — a few hundred nanoseconds —
// so unsampled clock reads would dominate the thing they measure.
const pointSampleMask = 255

// batchRefreshCap bounds how many stale standing queries piggyback on
// one cache miss's batched recovery pass.
const batchRefreshCap = 16

// Aggregator is the server half of the streaming service. It folds
// window-tagged deltas from any number of nodes into a global
// csoutlier.WindowStore, exactly once each, and answers "outliers over
// the last W windows" queries from a recovery cache invalidated when
// new data lands.
//
// Ingest is intentionally single-threaded: connection handlers decode
// frames concurrently, but one folder goroutine applies them in queue
// order. Folding is O(M) per delta — cheap enough that one core keeps
// up with thousands of deltas per second (see BenchmarkStreamFold) —
// and a serial folder makes the fold order deterministic for a given
// arrival order, which the differential simulation harness leans on.
type Aggregator struct {
	sk   *csoutlier.Sketcher
	opts AggregatorOptions
	ws   *csoutlier.WindowStore

	limits   frameLimits      // per-kind request body caps, from the consensus M
	scratch  csoutlier.Sketch // OnApplied's decoded delta, allocated only when it is set; guarded by mu
	metrics  *aggMetrics      // registry-backed counters; nil only in bare benchmarks
	foldTick uint64           // frame counter for sampled fold timing; folder goroutine only

	// pointTick counts point queries for sampled latency timing. Unlike
	// foldTick it is bumped from arbitrary caller goroutines, so it is
	// atomic.
	pointTick atomic.Uint64

	mu     sync.Mutex
	window uint64 // current window ID, from 1
	// gen is the fold generation: bumped on every fold/rotation, it
	// versions both the recovery cache and the point-state cache. Writes
	// happen under a.mu (paired with the data change they version);
	// reads are atomic so the point-query fast path never touches a.mu.
	gen      atomic.Uint64
	epoch    uint64                // aggregator incarnation; bumped by RestoreAggregator
	member   uint64                // membership version; bumped on join/leave/evict
	nodes    map[string]*nodeState // live members
	tombs    map[string]*nodeState // retired members (left/evicted)
	tombFIFO []string              // tombstone insertion order, for the cap
	cache    map[queryKey]queryResult
	cacheSeq uint64 // insertion clock for cache eviction

	// testHookBeforeSnapshot, when set, runs between a query's cache-miss
	// decision and its span snapshot — the window where a concurrent fold
	// used to leave a mistagged cache entry.
	testHookBeforeSnapshot func()

	// snapMu serializes whole snapshot cycles (capture → encode → rename
	// → commit). rotateLoop, snapshotLoop and Close can all request one
	// concurrently; without ordering, an older capture's rename could
	// land after a newer capture's rename+commit, leaving the disk
	// holding the older dedup base while nodes have already trimmed
	// their retention buffers to the newer one — a restore would then
	// silently lose the frames between the two bases.
	snapMu sync.Mutex

	// qmu serializes queries so they can share the range-sketch buffers.
	qmu       sync.Mutex
	qsketches []csoutlier.Sketch // one per batched recovery slot, grown on demand

	// pmu guards the point-state cache. Readers (the PointQuery fast
	// path) hold it shared and only read committed states; the slow path
	// holds it exclusively while it refreshes a span from the ring.
	pmu      sync.RWMutex
	points   map[pointKey]*pointState
	pointSeq uint64 // insertion clock for point-state eviction

	ingest chan ingestItem

	connMu    sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}

	closeOnce  sync.Once
	quit       chan struct{} // closed first: stops accept/rotation, unblocks enqueues
	handlersWG sync.WaitGroup
	folderDone chan struct{}
	rotateDone chan struct{}
	snapDone   chan struct{}
	evictDone  chan struct{}
}

// NewAggregator builds a streaming aggregator bound to the Sketcher
// consensus every node must share.
func NewAggregator(sk *csoutlier.Sketcher, opts AggregatorOptions) (*Aggregator, error) {
	opts = opts.withDefaults()
	ws, err := sk.NewWindowStore(opts.Windows)
	if err != nil {
		return nil, err
	}
	a := &Aggregator{
		sk:         sk,
		opts:       opts,
		ws:         ws,
		limits:     requestLimits(sk.M()),
		window:     1,
		epoch:      opts.AggEpoch,
		nodes:      make(map[string]*nodeState),
		tombs:      make(map[string]*nodeState),
		cache:      make(map[queryKey]queryResult),
		points:     make(map[pointKey]*pointState),
		ingest:     make(chan ingestItem, opts.QueueDepth),
		conns:      make(map[net.Conn]struct{}),
		quit:       make(chan struct{}),
		folderDone: make(chan struct{}),
		rotateDone: make(chan struct{}),
		snapDone:   make(chan struct{}),
		evictDone:  make(chan struct{}),
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	a.metrics = newAggMetrics(reg, a)
	if opts.OnApplied != nil {
		a.scratch = sk.ZeroSketch()
	}
	go a.fold()
	if opts.WindowEvery > 0 {
		go a.rotateLoop()
	} else {
		close(a.rotateDone)
	}
	if opts.SnapshotPath != "" && opts.SnapshotEvery > 0 {
		go a.snapshotLoop()
	} else {
		close(a.snapDone)
	}
	if opts.EvictAfter > 0 {
		go a.evictLoop()
	} else {
		close(a.evictDone)
	}
	return a, nil
}

// Serve accepts node connections on ln until the aggregator is closed
// (or ln fails). It may be called for several listeners concurrently.
func (a *Aggregator) Serve(ln net.Listener) error {
	a.connMu.Lock()
	a.listeners = append(a.listeners, ln)
	a.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-a.quit:
				return nil
			default:
				return err
			}
		}
		a.connMu.Lock()
		select {
		case <-a.quit:
			a.connMu.Unlock()
			conn.Close()
			return nil
		default:
		}
		a.conns[conn] = struct{}{}
		a.connMu.Unlock()
		if m := a.metrics; m != nil {
			m.conns.Inc()
		}
		a.handlersWG.Add(1)
		go a.handle(conn)
	}
}

// handle runs one connection's read→fold→ack loop. Frames are read
// into one buffer per connection and a delta's payload is folded from
// it in place; input no conforming node produces (another protocol, an
// oversized or truncated frame) closes the connection.
func (a *Aggregator) handle(conn net.Conn) {
	defer a.handlersWG.Done()
	defer func() {
		a.connMu.Lock()
		delete(a.conns, conn)
		a.connMu.Unlock()
		conn.Close()
	}()
	fr := frame.Reader{R: conn, Limits: a.limits[:], Buf: make([]byte, FrameOverhead+a.limits[pushDelta])}
	var (
		req   pushRequest
		wbuf  []byte
		reply = make(chan Ack, 1)
	)
	for {
		if a.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(a.opts.IdleTimeout))
		}
		k, body, err := fr.Next()
		kind := pushKind(k)
		if err == nil {
			err = parseRequest(kind, body, &req)
		}
		if err != nil {
			// A clean EOF, a deadline or a reset is a node going away (it
			// re-dials); anything else is not the push protocol.
			if m := a.metrics; m != nil && (errors.Is(err, errMalformed) || err == io.ErrUnexpectedEOF) {
				m.malformed.Inc()
			}
			return
		}
		var ack Ack
		switch kind {
		case pushHello:
			ack = a.hello(req)
		case pushBye:
			ack = a.bye(req)
		case pushDelta:
			select {
			case a.ingest <- ingestItem{req: req, reply: reply}: // blocks when full: TCP backpressure
				ack = <-reply
			case <-a.quit:
				return
			}
		case pushPointQuery:
			// A read, not a fold: answered on the handler goroutine from
			// the point-query path, never through the ingest queue, so a
			// remote dashboard cannot stall (or be stalled by) folding.
			answers := a.answerPointQuery(req)
			wbuf = appendQueryReply(wbuf, &answers)
			if _, err := conn.Write(wbuf); err != nil {
				return
			}
			continue
		}
		wbuf = appendAck(wbuf, &ack)
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
	}
}

// hello registers/refreshes a node and returns the current window. A
// node the aggregator has never seen (or one coming back from a
// tombstone) joins the membership here.
func (a *Aggregator) hello(req pushRequest) Ack {
	if m := a.metrics; m != nil {
		m.hellos.Inc()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ack := Ack{Window: a.window, Status: StatusHello, AggEpoch: a.epoch}
	ns, err := a.nodeLocked(req.Node, req.Epoch)
	if err != nil {
		ack.Err = err.Error()
		return ack
	}
	ns.status.LastSeen = time.Now()
	ack.Stable = ns.stable
	return ack
}

// bye retires a node's membership gracefully. The dedup book moves to a
// tombstone: a late retry of an already-folded frame still dedups, and
// a same-epoch reappearance resurrects the state intact.
func (a *Aggregator) bye(req pushRequest) Ack {
	a.mu.Lock()
	defer a.mu.Unlock()
	ack := Ack{Window: a.window, Status: StatusBye, AggEpoch: a.epoch}
	ns, ok := a.nodes[req.Node]
	if !ok {
		// Unknown or already retired: a bye is idempotent.
		return ack
	}
	if req.Epoch < ns.status.Epoch {
		ack.Err = fmt.Sprintf("stream: node %s epoch %d is stale (current incarnation is %d)", req.Node, req.Epoch, ns.status.Epoch)
		return ack
	}
	a.retireLocked(ns, StateLeft)
	ack.Stable = ns.stable
	return ack
}

// retireLocked moves a live node into the tombstone set. The full
// nodeState survives — tombstones are what keep exactly-once exact
// across membership churn.
func (a *Aggregator) retireLocked(ns *nodeState, state string) {
	name := ns.status.Node
	delete(a.nodes, name)
	ns.status.State = state
	a.tombs[name] = ns
	a.tombFIFO = append(a.tombFIFO, name)
	for len(a.tombs) > maxTombstones && len(a.tombFIFO) > 0 {
		oldest := a.tombFIFO[0]
		a.tombFIFO = a.tombFIFO[1:]
		if t, ok := a.tombs[oldest]; ok && t.status.State != StateLive {
			delete(a.tombs, oldest)
		}
	}
	a.member++
	if m := a.metrics; m != nil {
		if state == StateEvicted {
			m.evictions.Inc()
		} else {
			m.leaves.Inc()
		}
	}
}

// nodeLocked returns the live state for (node, epoch), creating it on
// first contact (a membership join), resurrecting a tombstone, and
// resetting the sequence tracker on an epoch bump. An epoch older than
// the node's current one is rejected: the successor already owns the
// sequence space.
func (a *Aggregator) nodeLocked(node string, epoch uint64) (*nodeState, error) {
	ns, ok := a.nodes[node]
	if !ok {
		if t, tok := a.tombs[node]; tok {
			// A retired node is back. Same epoch: resurrect the tombstone —
			// its dedup book still describes this incarnation's sequence
			// space exactly, so nothing can refold. Higher epoch: a fresh
			// incarnation, fresh sequence space.
			if epoch < t.status.Epoch {
				return nil, fmt.Errorf("stream: node %s epoch %d is stale (current incarnation is %d)", node, epoch, t.status.Epoch)
			}
			delete(a.tombs, node)
			for i, name := range a.tombFIFO {
				if name == node {
					a.tombFIFO = append(a.tombFIFO[:i], a.tombFIFO[i+1:]...)
					break
				}
			}
			if epoch > t.status.Epoch {
				t.status.Epoch = epoch
				t.status.Restarts++
				t.tracker = seqTracker{}
				t.stable = 0
			}
			t.status.State = StateLive
			a.nodes[node] = t
			a.member++
			if m := a.metrics; m != nil {
				m.joins.Inc()
			}
			return t, nil
		}
		ns = &nodeState{status: NodeStatus{Node: node, Epoch: epoch, State: StateLive}}
		a.nodes[node] = ns
		a.member++
		if m := a.metrics; m != nil {
			m.joins.Inc()
		}
		return ns, nil
	}
	switch {
	case epoch < ns.status.Epoch:
		return nil, fmt.Errorf("stream: node %s epoch %d is stale (current incarnation is %d)", node, epoch, ns.status.Epoch)
	case epoch > ns.status.Epoch:
		// Restart: the new incarnation starts a fresh sequence space; any
		// un-acked frames of the old one are gone with it.
		ns.status.Epoch = epoch
		ns.status.Restarts++
		ns.tracker = seqTracker{}
		ns.stable = 0
	}
	return ns, nil
}

// EvictIdle retires every live node whose last frame is older than
// olderThan, returning how many were evicted. The background loop
// (AggregatorOptions.EvictAfter) calls it on a timer; tests call it
// directly for determinism.
func (a *Aggregator) EvictIdle(olderThan time.Duration) int {
	deadline := time.Now().Add(-olderThan)
	a.mu.Lock()
	defer a.mu.Unlock()
	var victims []*nodeState
	for _, ns := range a.nodes {
		if ns.status.LastSeen.Before(deadline) {
			victims = append(victims, ns)
		}
	}
	for _, ns := range victims {
		a.retireLocked(ns, StateEvicted)
	}
	return len(victims)
}

// evictLoop drives liveness-based eviction.
func (a *Aggregator) evictLoop() {
	defer close(a.evictDone)
	period := a.opts.EvictAfter / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-a.quit:
			return
		case <-t.C:
			a.EvictIdle(a.opts.EvictAfter)
		}
	}
}

// Epoch returns the aggregator's incarnation number (1 for a fresh
// aggregator; a restore bumps it).
func (a *Aggregator) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// MembershipVersion returns the membership configuration version —
// bumped on every join, leave and eviction.
func (a *Aggregator) MembershipVersion() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.member
}

// fold is the single folder goroutine: it applies queued deltas in
// order until the ingest channel is closed (by Close, after every
// handler has exited), then drains what remains.
func (a *Aggregator) fold() {
	defer close(a.folderDone)
	for item := range a.ingest {
		item.reply <- a.apply(item.req)
	}
}

// foldSampleMask picks which frames get wall-clock fold timing: frame
// ticks where tick&mask == 1, i.e. the first frame and then 1 in 16.
// Clock reads dominate instrumentation cost on sub-microsecond folds
// (two time.Now calls cost more than the fold on virtualized clocks),
// so the latency histogram samples while every counter stays exact.
const foldSampleMask = 15

// apply folds one delta frame, produces its ack, and records the
// frame's outcome — two atomic counter increments per frame (three for
// an applied one), plus a lock-free histogram observation on sampled
// frames. Nothing here can
// block the folder.
func (a *Aggregator) apply(req pushRequest) Ack {
	m := a.metrics
	if m == nil {
		return a.applyFrame(req)
	}
	a.foldTick++
	timed := a.foldTick&foldSampleMask == 1
	var start time.Time
	if timed {
		start = time.Now()
	}
	ack := a.applyFrame(req)
	if timed {
		m.foldSeconds.Observe(time.Since(start).Seconds())
	}
	m.frames.Inc()
	switch {
	case ack.Err != "":
		m.rejected.Inc()
	case ack.Status == StatusDuplicate:
		m.duplicates.Inc()
	case ack.Status == StatusDroppedOld:
		m.dropped.Inc()
	default:
		m.applied.Inc()
		if csoutlier.PairsEncoded(req.Payload) {
			m.pairFrames.Inc()
		} else {
			m.sketchFrames.Inc()
		}
	}
	return ack
}

// applyFrame is the uninstrumented fold: idempotency, window placement
// and the actual sketch addition.
func (a *Aggregator) applyFrame(req pushRequest) Ack {
	a.mu.Lock()
	defer a.mu.Unlock()
	ack := Ack{Window: a.window, AggEpoch: a.epoch}
	ns, err := a.nodeLocked(req.Node, req.Epoch)
	if err != nil {
		ack.Err = err.Error()
		return ack
	}
	ns.status.LastSeen = time.Now()
	// markLocked records seq as processed and, for a non-durable
	// aggregator (which never restores, so acked == durable), advances
	// the stable watermark with it.
	markLocked := func(seq uint64) {
		ns.tracker.mark(seq)
		if !a.opts.Durable {
			ns.stable = ns.tracker.base
		}
	}
	ackStable := func() Ack {
		ack.Stable = ns.stable
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
		// Redelivery (lost ack, duplicated packet, replay): already
		// folded, ack again, fold nothing.
		ack.Status = StatusDuplicate
		ns.status.Duplicates++
		return ackStable()
	}
	if req.Window > a.window {
		// A frame from the future means clock confusion somewhere; do not
		// mark it processed — the node should re-sync and retry.
		return reject("stream: window %d is ahead of the aggregator's %d", req.Window, a.window)
	}
	age := a.window - req.Window
	if age >= uint64(a.ws.Windows()) {
		// Too old to represent. Acknowledge and mark it so the node moves
		// on — re-sending can never succeed.
		markLocked(req.Seq)
		ack.Status = StatusDroppedOld
		ns.status.Dropped++
		return ackStable()
	}
	// The payload goes from the frame straight into the window's ring
	// slot — a sketch's floats added, a pairs payload measured first; only
	// a relay's OnApplied needs the delta as a Sketch too.
	fn := a.opts.OnApplied
	if fn == nil {
		err = a.ws.AddEncoded(int(age), req.Payload)
	} else if err = a.sk.UnmarshalSketchInto(req.Payload, a.scratch); err == nil {
		err = a.ws.AddSketch(int(age), a.scratch)
	}
	if err != nil {
		// Corrupt or consensus-mismatched payload: rejected before it can
		// touch the aggregate, not marked (a clean retry may succeed).
		return reject("stream: node %s delta seq %d: %v", req.Node, req.Seq, err)
	}
	markLocked(req.Seq)
	ns.status.Applied++
	if fn != nil {
		folds := int(req.Folds)
		if folds < 1 {
			folds = 1
		}
		fn(req.Window, folds, a.scratch)
	}
	if req.Folds > 1 {
		// A node-side merge: the frame is the exact sum of Folds local
		// captures the overloaded node folded together instead of
		// blocking — account the shed so "captures folded" reconciles.
		ns.status.ShedFrames++
		ns.status.ShedFolds += int64(req.Folds - 1)
		if m := a.metrics; m != nil {
			m.shedFrames.Inc()
			m.shedFolds.Add(int64(req.Folds - 1))
		}
	}
	if req.Window > ns.status.LastWindow {
		ns.status.LastWindow = req.Window
	}
	a.gen.Add(1) // new data: recovery and point-state caches are now stale
	ack.Applied = true
	ack.Status = StatusApplied
	return ackStable()
}

// rotateLoop drives wall-clock window rotation. A durable aggregator
// snapshots right after each rotation: the snapshot's window counter
// then matches what nodes learn from their next ack, so a restore never
// resurrects a pre-rotation window numbering.
func (a *Aggregator) rotateLoop() {
	defer close(a.rotateDone)
	t := time.NewTicker(a.opts.WindowEvery)
	defer t.Stop()
	for {
		select {
		case <-a.quit:
			return
		case <-t.C:
			a.Rotate()
			a.maybeSnapshot()
		}
	}
}

// snapshotLoop writes periodic snapshots between rotations.
func (a *Aggregator) snapshotLoop() {
	defer close(a.snapDone)
	t := time.NewTicker(a.opts.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-a.quit:
			return
		case <-t.C:
			a.maybeSnapshot()
		}
	}
}

// maybeSnapshot writes a snapshot to the configured path, if any,
// recording success/failure in the stream_snapshot_* families. A
// failure is also logged: a silently stale snapshot is a durability
// loss an operator must hear about before the next crash, not after.
func (a *Aggregator) maybeSnapshot() error {
	if a.opts.SnapshotPath == "" {
		return nil
	}
	err := a.WriteSnapshot(a.opts.SnapshotPath)
	if err != nil {
		if m := a.metrics; m != nil {
			m.snapshotErrors.Inc()
		}
		log.Printf("stream: snapshot write failed (durability stale): %v", err)
	}
	return err
}

// Rotate seals the current window and opens the next. Nodes learn the
// new window from the next ack they receive (hello heartbeats bound the
// lag); in-flight deltas tagged with sealed windows still fold into the
// right slot, so rotation needs no barrier.
func (a *Aggregator) Rotate() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ws.Rotate()
	a.window++
	a.gen.Add(1)
	if m := a.metrics; m != nil {
		m.rotations.Inc()
	}
	return a.window
}

// CurrentWindow returns the current window ID.
func (a *Aggregator) CurrentWindow() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.window
}

// AvailableWindows returns how many windows currently hold data.
func (a *Aggregator) AvailableWindows() int { return a.ws.Available() }

// WindowSketch returns a copy of the global sketch of the window `age`
// rotations ago (0 = the open window).
func (a *Aggregator) WindowSketch(age int) (csoutlier.Sketch, error) {
	return a.ws.Window(age)
}

// RangeSketch returns a copy of the summed global sketch over window
// ages [fromAge, toAge] — input for aggregate statistics beyond the
// cached outlier query (csoutlier.Sketcher.Aggregate and friends).
func (a *Aggregator) RangeSketch(fromAge, toAge int) (csoutlier.Sketch, error) {
	return a.ws.Range(fromAge, toAge)
}

// Outliers answers the continuous-detection query: the top-k outliers
// over window ages [fromAge, toAge] (0 = the open window, so (0, W-1,
// k) = "over the last W windows"). Results are cached per (span, k) and
// reused until a delta or rotation changes the underlying data, so a
// dashboard polling a standing query between arrivals pays zero
// recovery work.
func (a *Aggregator) Outliers(fromAge, toAge, k int) (*csoutlier.Report, error) {
	key := queryKey{fromAge: fromAge, toAge: toAge, k: k}
	a.qmu.Lock()
	defer a.qmu.Unlock()
	m := a.metrics
	a.mu.Lock()
	if r, ok := a.cache[key]; ok && r.gen == a.gen.Load() {
		// A repeat of a cached query marks it standing: it is worth
		// refreshing speculatively when some other query misses.
		r.standing = true
		a.cache[key] = r
		a.mu.Unlock()
		if m != nil {
			m.cacheHits.Inc()
		}
		return r.report, nil
	}
	a.mu.Unlock()
	if m != nil {
		m.cacheMisses.Inc()
	}
	if hook := a.testHookBeforeSnapshot; hook != nil {
		hook()
	}
	// Snapshot every batched span and read the fold generation under one
	// a.mu critical section — apply holds a.mu across both the sketch
	// addition and the gen bump, so the pair is consistent: each cache
	// entry is tagged with exactly the generation whose data it holds.
	// (Tagging with a generation read before the snapshot — the old code
	// — let a fold land in between, leaving an entry that contained the
	// new data but was tagged stale, so an identical follow-up query
	// recomputed.) Recovery itself still runs outside every mutex: it is
	// the expensive part and must not stall ingest. A fold racing the
	// recovery leaves the entries honestly stale-tagged and the next
	// query recomputes.
	//
	// The missing query does not recover alone: stale standing queries
	// piggyback on its batched recovery pass, each warm-started from its
	// previous generation's selection order, so a dashboard's whole query
	// set is served by one block correlation per fold generation.
	type slot struct {
		key      queryKey
		warm     []int
		standing bool
	}
	a.mu.Lock()
	gen := a.gen.Load()
	slots := make([]slot, 1, 1+batchRefreshCap)
	slots[0] = slot{key: key}
	if prev, ok := a.cache[key]; ok {
		// The entry exists but is stale — this query has now been asked
		// twice, so it is standing, and its old selection is the warm hint.
		slots[0].warm = prev.sel
		slots[0].standing = true
	}
	for k2, v := range a.cache {
		if len(slots) >= 1+batchRefreshCap {
			break
		}
		if k2 != key && v.standing && v.gen != gen {
			slots = append(slots, slot{key: k2, warm: v.sel, standing: true})
		}
	}
	for len(a.qsketches) < len(slots) {
		a.qsketches = append(a.qsketches, a.sk.ZeroSketch())
	}
	kept := slots[:0]
	queries := make([]csoutlier.BatchQuery, 0, len(slots))
	for _, sl := range slots {
		sketch := a.qsketches[len(kept)]
		if err := a.ws.RangeInto(sl.key.fromAge, sl.key.toAge, sketch); err != nil {
			if sl.key == key {
				a.mu.Unlock()
				return nil, err
			}
			continue // a piggybacked span no longer resolves; drop it
		}
		kept = append(kept, sl)
		queries = append(queries, csoutlier.BatchQuery{Global: sketch, K: sl.key.k, Warm: sl.warm})
	}
	a.mu.Unlock()
	reports, err := a.sk.DetectBatch(queries)
	if err != nil {
		return nil, err
	}
	if m != nil {
		for _, sl := range kept {
			if len(sl.warm) > 0 {
				m.warmStarts.Inc()
			}
		}
		m.batchRefreshes.Add(int64(len(kept) - 1))
	}
	a.mu.Lock()
	for i, sl := range kept {
		a.insertCacheLocked(sl.key, queryResult{
			gen:      gen,
			report:   reports[i],
			sel:      reports[i].Selection,
			standing: sl.standing,
		})
	}
	a.mu.Unlock()
	return reports[0], nil
}

// insertCacheLocked stores a recovery result and bounds the cache.
// Eviction preference: entries whose generation is already stale (they
// can never hit again) go first, then the oldest-inserted live entries
// — never the whole map, which used to evict hot standing queries the
// moment a 65th distinct query swept past.
func (a *Aggregator) insertCacheLocked(key queryKey, r queryResult) {
	a.cacheSeq++
	r.seq = a.cacheSeq
	a.cache[key] = r
	if len(a.cache) <= cacheCap {
		return
	}
	cur := a.gen.Load()
	for k, v := range a.cache {
		if k != key && v.gen != cur {
			delete(a.cache, k)
		}
	}
	for len(a.cache) > cacheCap {
		oldest, oldestSeq := key, uint64(0)
		for k, v := range a.cache {
			if k != key && (oldest == key || v.seq < oldestSeq) {
				oldest, oldestSeq = k, v.seq
			}
		}
		if oldest == key {
			return // only the fresh entry is left
		}
		delete(a.cache, oldest)
	}
}

// SupportsPointQuery reports whether the aggregator's sketch backend
// answers recovery-free point queries (i.e. PointQuery will work).
func (a *Aggregator) SupportsPointQuery() bool { return a.sk.SupportsPointQuery() }

// PointQuery answers a single-key outlier check over window ages
// [fromAge, toAge] (0 = the open window) straight from the folded
// ring: the key's aggregated value is estimated from the count-sketch
// cells it hashes into — no BOMP, no recovery cache, no top-k. The
// key is classified an outlier when its estimate deviates from the
// span's mode by at least threshold (threshold ≤ 0 skips
// classification and just estimates).
//
// States are cached per span and refreshed only when a fold or
// rotation changes the underlying data, so a warm query is O(depth):
// a shared-lock acquire, one atomic generation check, and depth hashed
// cell reads — zero allocations (see BenchmarkPointQuery). Requires
// the CountSketch ensemble; other backends get csoutlier
// .ErrNoPointQuery. Span top-k detection stays on Outliers — the two
// paths serve the same ring and agree on the mode by construction.
func (a *Aggregator) PointQuery(fromAge, toAge int, key string, threshold float64) (csoutlier.PointAnswer, error) {
	m := a.metrics
	var start time.Time
	timed := false
	if m != nil {
		m.pointQueries.Inc()
		timed = a.pointTick.Add(1)&pointSampleMask == 1
		if timed {
			start = time.Now()
		}
	}
	pk := pointKey{fromAge: fromAge, toAge: toAge}
	// Fast path: a state committed at the current fold generation
	// answers under the shared lock. st.gen is written only under pmu
	// held exclusively, and apply/Rotate bump a.gen after (not before)
	// mutating the ring, so a generation match proves the committed
	// sketch still equals the span's current contents.
	a.pmu.RLock()
	st, ok := a.points[pk]
	if ok && st.gen == a.gen.Load() {
		ans, err := st.ps.Query(key, threshold)
		a.pmu.RUnlock()
		if m != nil {
			if err == nil && ans.Outlier {
				m.pointOutliers.Inc()
			}
			if timed {
				m.pointSeconds.Observe(time.Since(start).Seconds())
			}
		}
		return ans, err
	}
	a.pmu.RUnlock()
	ans, err := a.pointQuerySlow(pk, key, threshold)
	if m != nil {
		if err == nil && ans.Outlier {
			m.pointOutliers.Inc()
		}
		if timed {
			m.pointSeconds.Observe(time.Since(start).Seconds())
		}
	}
	return ans, err
}

// pointQuerySlow refreshes (or creates) the span's point state and
// answers from it.
func (a *Aggregator) pointQuerySlow(pk pointKey, key string, threshold float64) (csoutlier.PointAnswer, error) {
	a.pmu.Lock()
	defer a.pmu.Unlock()
	st, err := a.refreshPointLocked(pk)
	if err != nil {
		return csoutlier.PointAnswer{}, err
	}
	return st.ps.Query(key, threshold)
}

// refreshPointLocked returns the span's point state committed at the
// current fold generation, rebuilding its sketch from the ring when
// stale or absent. The span snapshot and the fold generation are read
// under one a.mu critical section — the same pairing discipline as
// Outliers — so the state is tagged with exactly the generation whose
// data it holds. The O(M log M) mode re-estimate runs outside a.mu: it
// only reads the state's private buffer, so ingest never stalls on a
// commit. Caller holds pmu exclusively.
func (a *Aggregator) refreshPointLocked(pk pointKey) (*pointState, error) {
	st, ok := a.points[pk]
	if ok && st.gen == a.gen.Load() {
		return st, nil
	}
	var ps *csoutlier.PointState
	if ok {
		ps = st.ps
	} else {
		var err error
		if ps, err = a.sk.NewPointState(); err != nil {
			return nil, err
		}
	}
	a.mu.Lock()
	gen := a.gen.Load()
	err := a.ws.RangeInto(pk.fromAge, pk.toAge, ps.Sketch())
	a.mu.Unlock()
	if err != nil {
		return nil, err
	}
	ps.Commit()
	if ok {
		st.gen = gen
	} else {
		st = &pointState{ps: ps, gen: gen}
		a.insertPointLocked(pk, st)
	}
	if m := a.metrics; m != nil {
		m.pointRefreshes.Inc()
	}
	return st, nil
}

// PointQueryMulti answers a whole watch list of keys over one window
// span under a single shared-lock acquisition and generation check —
// the dashboard shape, where callers poll sets of keys, not singles.
// Answers come back in request order. Cost on the warm path is one
// RLock plus len(keys)·O(depth); a stale span pays exactly one refresh
// for the whole list (PointQuery would pay the RLock and generation
// check per key, and could even refresh twice if a fold landed between
// two keys — Multi answers every key from one committed state, so the
// list is a consistent cut of a single fold generation).
func (a *Aggregator) PointQueryMulti(fromAge, toAge int, keys []string, threshold float64) ([]csoutlier.PointAnswer, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	m := a.metrics
	var start time.Time
	timed := false
	if m != nil {
		m.pointQueries.Add(int64(len(keys)))
		timed = a.pointTick.Add(1)&pointSampleMask == 1
		if timed {
			start = time.Now()
		}
	}
	pk := pointKey{fromAge: fromAge, toAge: toAge}
	out := make([]csoutlier.PointAnswer, len(keys))
	answered := false
	var err error
	a.pmu.RLock()
	if st, ok := a.points[pk]; ok && st.gen == a.gen.Load() {
		answered = true
		err = queryPointKeys(st.ps, keys, threshold, out)
	}
	a.pmu.RUnlock()
	if !answered {
		err = a.pointQueryMultiSlow(pk, keys, threshold, out)
	}
	if err != nil {
		return nil, err
	}
	if m != nil {
		for i := range out {
			if out[i].Outlier {
				m.pointOutliers.Inc()
			}
		}
		if timed {
			m.pointSeconds.Observe(time.Since(start).Seconds())
		}
	}
	return out, nil
}

// pointQueryMultiSlow is PointQueryMulti's refresh path: one rebuild of
// the span's state, then every key answered from it.
func (a *Aggregator) pointQueryMultiSlow(pk pointKey, keys []string, threshold float64, out []csoutlier.PointAnswer) error {
	a.pmu.Lock()
	defer a.pmu.Unlock()
	st, err := a.refreshPointLocked(pk)
	if err != nil {
		return err
	}
	return queryPointKeys(st.ps, keys, threshold, out)
}

// queryPointKeys answers every key from one committed point state.
func queryPointKeys(ps *csoutlier.PointState, keys []string, threshold float64, out []csoutlier.PointAnswer) error {
	for i, key := range keys {
		ans, err := ps.Query(key, threshold)
		if err != nil {
			return err
		}
		out[i] = ans
	}
	return nil
}

// answerPointQuery serves one pushPointQuery frame: the wire form of
// PointQueryMulti, accounted in the pointq_remote_* families (the
// underlying answers still count in pointq_* like local ones).
func (a *Aggregator) answerPointQuery(req pushRequest) QueryReply {
	m := a.metrics
	var start time.Time
	if m != nil {
		m.pointRemoteQueries.Inc()
		m.pointRemoteKeys.Add(int64(len(req.Keys)))
		start = time.Now()
	}
	var reply QueryReply
	answers, err := a.PointQueryMulti(req.FromAge, req.ToAge, req.Keys, req.Threshold)
	if err != nil {
		reply.Err = err.Error()
		if m != nil {
			m.pointRemoteErrors.Inc()
		}
	} else {
		reply.Answers = answers
	}
	if m != nil {
		m.pointRemoteSeconds.Observe(time.Since(start).Seconds())
	}
	return reply
}

// insertPointLocked stores a span's point state and bounds the cache:
// stale-generation entries go first (they can never fast-path again
// without a refresh), then the oldest-inserted live ones.
func (a *Aggregator) insertPointLocked(pk pointKey, st *pointState) {
	a.pointSeq++
	st.seq = a.pointSeq
	a.points[pk] = st
	if len(a.points) <= pointCacheCap {
		return
	}
	cur := a.gen.Load()
	for k, v := range a.points {
		if k != pk && v.gen != cur {
			delete(a.points, k)
		}
	}
	for len(a.points) > pointCacheCap {
		oldest, oldestSeq := pk, uint64(0)
		for k, v := range a.points {
			if k != pk && (oldest == pk || v.seq < oldestSeq) {
				oldest, oldestSeq = k, v.seq
			}
		}
		if oldest == pk {
			return // only the fresh entry is left
		}
		delete(a.points, oldest)
	}
}

// Nodes returns the liveness/lag table — live members plus retired
// (left/evicted) tombstones, distinguished by State — sorted by node
// name.
func (a *Aggregator) Nodes() []NodeStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]NodeStatus, 0, len(a.nodes)+len(a.tombs))
	collect := func(ns *nodeState) {
		s := ns.status
		s.Stable = ns.stable
		if s.State == "" {
			s.State = StateLive
		}
		if s.LastWindow < a.window {
			s.Lag = a.window - s.LastWindow
		}
		out = append(out, s)
	}
	for _, ns := range a.nodes {
		collect(ns)
	}
	for _, ns := range a.tombs {
		collect(ns)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// LiveNodes returns how many nodes are current members.
func (a *Aggregator) LiveNodes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.nodes)
}

// Stats returns a snapshot of aggregator-wide counters, read from the
// metrics registry. Counters are sampled individually (atomics, not one
// critical section), so a snapshot taken while frames are in flight may
// be mid-frame inconsistent by one; at quiescence the identities
// Frames == Applied+Duplicates+Dropped+Rejected and
// CacheHits+CacheMisses == queries hold exactly.
func (a *Aggregator) Stats() AggStats {
	a.mu.Lock()
	s := AggStats{
		Window:     a.window,
		Nodes:      len(a.nodes),
		AggEpoch:   a.epoch,
		Membership: a.member,
		Tombstones: len(a.tombs),
	}
	a.mu.Unlock()
	m := a.metrics
	if m == nil {
		return s
	}
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
func (a *Aggregator) MetricsRegistry() *obs.Registry {
	if a.metrics == nil {
		return nil
	}
	return a.metrics.reg
}

// Ready reports whether the aggregator is still accepting frames — the
// /healthz readiness hook.
func (a *Aggregator) Ready() error {
	select {
	case <-a.quit:
		return errors.New("stream: aggregator closed")
	default:
		return nil
	}
}

// Close shuts the aggregator down gracefully: stop accepting, close
// every node connection, fold what the ingest queue already holds, and
// stop the folder and rotation clock. ctx bounds the wait. The window
// store stays readable after Close — final queries and reports are the
// point of a drain. For a durable aggregator, a failure to write the
// final shutdown snapshot is returned (and logged): it means a restart
// will restore stale state, which the caller must not mistake for a
// clean shutdown.
func (a *Aggregator) Close(ctx context.Context) error {
	a.closeOnce.Do(func() {
		close(a.quit)
		a.connMu.Lock()
		for _, ln := range a.listeners {
			ln.Close()
		}
		for conn := range a.conns {
			conn.Close()
		}
		a.connMu.Unlock()
		go func() {
			// Handlers exit on their (closed) connections; only then is it
			// safe to close the ingest channel they send on. The folder
			// drains the queue and exits.
			a.handlersWG.Wait()
			close(a.ingest)
		}()
	})
	done := make(chan struct{})
	go func() {
		<-a.folderDone
		<-a.rotateDone
		<-a.snapDone
		<-a.evictDone
		close(done)
	}()
	select {
	case <-done:
		// Final snapshot: the folder has drained, so everything acked is
		// in the window store — the snapshot a clean restart restores.
		return a.maybeSnapshot()
	case <-ctx.Done():
		return fmt.Errorf("stream: aggregator close: %w", ctx.Err())
	}
}
