package simtest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"csoutlier"
	"csoutlier/internal/stream"
	"csoutlier/internal/tier"
	"csoutlier/internal/xrand"
)

// pointThreshold is the detection threshold every point query in the
// harness uses. BuildStream plants per-window magnitudes of at least
// 100, so 50 splits true single-window outliers from clean keys with a
// 2× margin; on multi-window spans the checker compares each flag
// against the exact span deviation instead of assuming the plant stayed
// hot (per-window signs are random, so spans can cancel).
const pointThreshold = 50

// pointProbeClean is how many seeded clean (non-planted) keys the
// checker samples per span: enough to catch a biased estimator, small
// enough to keep a scenario under a second. Mid-run probes (issued
// between flushes and rotations while the aggregators are live) take the
// first pointMidProbeClean of them.
const (
	pointProbeClean    = 48
	pointMidProbeClean = 8
)

// pushNode is what the window drive needs of a leaf: a *stream.Node on
// the flat topology, a *tier.ShardedNode on the tier.
type pushNode interface {
	Observe(key string, delta float64) error
	Flush(ctx context.Context) error
	Sync(ctx context.Context) error
	Close(ctx context.Context) error
	Abort()
}

// streamQuerier is where the checker asks its questions: the flat
// aggregator itself, or a tier.Router over the shard roots.
type streamQuerier interface {
	Outliers(fromAge, toAge, k int) (*csoutlier.Report, error)
	PointQuery(fromAge, toAge int, key string, threshold float64) (csoutlier.PointAnswer, error)
	PointQueryMulti(fromAge, toAge int, keys []string, threshold float64) ([]csoutlier.PointAnswer, error)
}

// lane is one upstream the leaves push a shard's deltas into: the shard
// root itself on the flat topology (relay nil), a regional relay on the
// tier. Leaf l is homed on lane l % len(lanes) of every shard.
type lane struct {
	addr  string
	relay *tier.Relay
	opts  tier.RelayOptions
}

// sentFrame is a flush as it went on the wire, kept to send it again.
type sentFrame struct {
	leaf               int
	epoch, window, seq uint64
	payload            []byte
}

// pointProbe is one mid-run point query the drive recorded for the
// checker: issued after Window windows had been flushed (and before the
// next rotation), over window ages [FromAge, ToAge].
type pointProbe struct {
	Window  int
	FromAge int
	ToAge   int
	Index   int // key index probed
	Ans     csoutlier.PointAnswer
}

// StreamRig is one scenario's running pipeline and the books its checker
// reads: sketchers, aggregators and relays with their listeners, chaos
// proxies, nodes, the shadow updaters that mirror the exact fold
// sequence, and the context they all run under. RunStream builds and
// drives it; Close tears all of it down.
type StreamRig struct {
	scn     StreamScenario
	data    *StreamData
	clean   []int // seeded clean-key sample the point probes draw from
	ctx     context.Context
	cancel  context.CancelFunc
	snapDir string

	sks      []*csoutlier.Sketcher // [shard]; one shard on the flat topology
	route    func(key string) int  // key → shard
	roots    []*stream.Aggregator  // [shard]
	rootOpts stream.AggregatorOptions
	lanes    [][]lane // [shard][lane]
	query    streamQuerier
	remotes  []*stream.RemotePoint
	// dial connects leaf l to one address per shard and returns it with
	// its per-shard stream nodes.
	dial func(l int, addrs []string, opts stream.NodeOptions) (pushNode, []*stream.Node, error)

	proxies [][]*chaosProxy        // [leaf][shard]; nil when the scenario dials direct
	nodes   []pushNode             // [leaf]; nil before a join, after a leave or the final close
	parts   [][]*stream.Node       // [leaf][shard]
	epoch   []uint64               // [leaf] current incarnation, 0 = never dialed
	shadow  [][]*csoutlier.Updater // [leaf][shard]
	scratch []csoutlier.Sketch     // [shard] the last shadow drain

	snap  *stream.Snapshot // what a MarkSnap wrote, for the MarkAggCrash restore
	probe sentFrame        // a snapshot-covered frame, re-delivered after the restore

	// The books. expected and captured cover the whole run; the others
	// mirror aggregator counters a restore resets, and restart with it.
	expected     [][]csoutlier.Sketch // [shard][w] bit-exact shadow of each root's fold
	captured     []int64              // [shard] leaf captures bound for the shard
	replayed     int64                // retained leaf frames requeued at a restore
	kills        int64                // chaos-proxy connection kills
	restores     int                  // root restores
	probes       []pointProbe
	pointIssued  []int64 // [shard] point-query keys asked of the root
	pointFlagged []int64 // [shard] answers flagged Outlier
	dups         int64   // verbatim re-deliveries the flat root had to dedup
	joins        int64
	leaves       int64
	evictions    int64
	member       uint64 // membership version: survives a restore
	tombs        int
}

// RunStream executes a scenario's pipeline for real and returns the rig
// at quiescence — nodes and relays drained and closed, roots still
// serving for the checker. The caller Closes it. On error the rig is
// already closed.
func RunStream(scn StreamScenario, data *StreamData) (*StreamRig, error) {
	snapDir, err := os.MkdirTemp("", "csstream-sim-*")
	if err != nil {
		return nil, err
	}
	r := &StreamRig{scn: scn, data: data, snapDir: snapDir, clean: pickCleanProbes(scn, data.Support)}
	r.ctx, r.cancel = context.WithTimeout(context.Background(), 120*time.Second)
	build := r.buildFlat
	if scn.Tier {
		build = r.buildTier
	}
	err = build()
	if err == nil {
		err = r.connectAll()
	}
	if err == nil {
		err = r.drive()
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// serve starts srv on a fresh loopback listener.
func (r *StreamRig) serve(srv interface{ Serve(net.Listener) error }) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// buildFlat is the flat topology: one sketcher, one aggregator every
// node pushes into, durable when the schedule snapshots it.
func (r *StreamRig) buildFlat() error {
	scn := r.scn
	sk, err := csoutlier.NewSketcher(r.data.Keys, csoutlier.Config{
		M:             scn.M,
		Seed:          scn.Seed ^ 0x9e3779b97f4a7c15,
		MaxIterations: recoveryBudget(scn.S, scn.K),
		Ensemble:      scn.Ens,
		Depth:         scn.Depth,
	})
	if err != nil {
		return err
	}
	r.sks = []*csoutlier.Sketcher{sk}
	r.route = func(string) int { return 0 }
	r.rootOpts = stream.AggregatorOptions{Windows: scn.W, Durable: scn.mark(MarkSnap) != nil}
	root, err := stream.NewAggregator(sk, r.rootOpts)
	if err != nil {
		return err
	}
	r.roots = []*stream.Aggregator{root}
	r.query = root
	addr, err := r.serve(root)
	if err != nil {
		return err
	}
	r.lanes = [][]lane{{{addr: addr}}}
	r.dial = func(l int, addrs []string, opts stream.NodeOptions) (pushNode, []*stream.Node, error) {
		n, err := stream.Dial(r.ctx, addrs[0], sk, NodeID(l), opts)
		if err != nil {
			return nil, nil, err
		}
		return n, []*stream.Node{n}, nil
	}
	return nil
}

// buildTier is the 2-shard × 2-relay tree: per shard one root (not
// durable: the durability story here is the relays') fed by two durable
// relays, each owning a snapshot file; queries go through a tier.Router,
// span queries in process and point queries over the wire (the query
// RPC on each root's push listener).
func (r *StreamRig) buildTier() error {
	scn := r.scn
	m, err := tier.NewShardMap(r.data.Keys, tierShards, tier.Spec{
		M:             scn.M,
		BaseSeed:      scn.Seed ^ 0x9e3779b97f4a7c15,
		MaxIterations: recoveryBudget(scn.S, scn.K),
		Ensemble:      scn.Ens,
		Depth:         scn.Depth,
	}, 1)
	if err != nil {
		return err
	}
	if r.sks, err = m.Sketchers(); err != nil {
		return err
	}
	r.route = m.Route
	r.rootOpts = stream.AggregatorOptions{Windows: scn.W}
	r.lanes = make([][]lane, tierShards)
	targets := make([]tier.Target, tierShards)
	seedRng := xrand.New(scn.Seed)
	for s := 0; s < tierShards; s++ {
		root, err := stream.NewAggregator(r.sks[s], r.rootOpts)
		if err != nil {
			return err
		}
		r.roots = append(r.roots, root)
		rootAddr, err := r.serve(root)
		if err != nil {
			return err
		}
		rp := stream.NewRemotePoint(rootAddr, 5*time.Second)
		r.remotes = append(r.remotes, rp)
		targets[s] = tier.Target{Span: root, Point: rp}
		for rr := 0; rr < tierRelays; rr++ {
			ln := lane{opts: tier.RelayOptions{
				ID:           fmt.Sprintf("r%d", rr),
				Shard:        s,
				Upstream:     rootAddr,
				SnapshotPath: filepath.Join(r.snapDir, fmt.Sprintf("relay-%d-%d.snap", s, rr)),
				PushTimeout:  2 * time.Second,
				BaseBackoff:  time.Millisecond,
				MaxBackoff:   20 * time.Millisecond,
				BackoffSeed:  seedRng.Split(0x8e1a1 ^ uint64(s)<<16 ^ uint64(rr)<<8).Uint64(),
				Agg:          stream.AggregatorOptions{Windows: scn.W},
			}}
			if ln.relay, err = tier.NewRelay(r.ctx, r.sks[s], ln.opts); err != nil {
				return fmt.Errorf("simtest: relay %d/%d: %w", s, rr, err)
			}
			r.lanes[s] = append(r.lanes[s], ln)
			if r.lanes[s][rr].addr, err = r.serve(ln.relay); err != nil {
				return err
			}
		}
	}
	if r.query, err = tier.NewRouter(m, targets); err != nil {
		return err
	}
	r.dial = func(l int, addrs []string, opts stream.NodeOptions) (pushNode, []*stream.Node, error) {
		sn, err := tier.DialSharded(r.ctx, m, r.sks, addrs, NodeID(l), opts)
		if err != nil {
			return nil, nil, err
		}
		parts := make([]*stream.Node, tierShards)
		for s := range parts {
			parts[s] = sn.Node(s)
		}
		return sn, parts, nil
	}
	return nil
}

// connectAll starts one chaos proxy per (leaf, shard) connection — the
// joiner's too, so the proxy seeds do not depend on when it joins — and
// dials the base nodes.
func (r *StreamRig) connectAll() error {
	scn := r.scn
	if scn.pointQueries() && !r.sks[0].SupportsPointQuery() {
		return fmt.Errorf("simtest: count-sketch aggregator does not support point queries")
	}
	leaves := scn.L
	if scn.mark(MarkJoin) != nil {
		leaves++
	}
	shards := len(r.sks)
	r.nodes = make([]pushNode, leaves)
	r.parts = make([][]*stream.Node, leaves)
	r.epoch = make([]uint64, leaves)
	r.shadow = make([][]*csoutlier.Updater, leaves)
	r.proxies = make([][]*chaosProxy, leaves)
	proxySeed := xrand.New(scn.Seed).Split(0x9097)
	for l := range r.shadow {
		for s := 0; s < shards; s++ {
			r.shadow[l] = append(r.shadow[l], r.sks[s].NewUpdater())
			if scn.direct() {
				continue
			}
			p, err := startChaosProxy(r.laneOf(l, s).addr, proxySeed.Uint64(), scn.ProxyMin, scn.ProxyMax)
			if err != nil {
				return err
			}
			r.proxies[l] = append(r.proxies[l], p)
		}
	}
	for s := 0; s < shards; s++ {
		r.scratch = append(r.scratch, r.sks[s].ZeroSketch())
	}
	r.expected = make([][]csoutlier.Sketch, shards)
	r.captured = make([]int64, shards)
	r.pointIssued = make([]int64, shards)
	r.pointFlagged = make([]int64, shards)
	for l := 0; l < scn.L; l++ {
		if err := r.connect(l); err != nil {
			return err
		}
	}
	return nil
}

func (r *StreamRig) laneOf(l, shard int) *lane {
	return &r.lanes[shard][l%len(r.lanes[shard])]
}

// connect dials leaf l's next incarnation through its proxies. The
// first is a membership join; a later one is a restart.
func (r *StreamRig) connect(l int) error {
	r.epoch[l]++
	if r.epoch[l] == 1 {
		r.joins++
		r.member++
	}
	addrs := make([]string, len(r.sks))
	for s := range addrs {
		addrs[s] = r.laneOf(l, s).addr
		if r.proxies[l] != nil {
			addrs[s] = r.proxies[l][s].Addr()
		}
	}
	var err error
	r.nodes[l], r.parts[l], err = r.dial(l, addrs, stream.NodeOptions{
		Epoch:       r.epoch[l],
		PushTimeout: 2 * time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		// Reconnect jitter derives from the scenario seed, so a soak
		// failure's backoff timing replays from its scenario line.
		BackoffSeed: xrand.New(r.scn.Seed).Split(0xbac0ff ^ uint64(l)<<8 ^ r.epoch[l]).Uint64(),
	})
	if err != nil {
		return fmt.Errorf("simtest: dial node %d (epoch %d): %w", l, r.epoch[l], err)
	}
	return nil
}

// retire books what leaf l's current incarnation did before the drive
// lets go of it (Abort, Leave or the final Close).
func (r *StreamRig) retire(l int) {
	for s, n := range r.parts[l] {
		st := n.Stats()
		r.captured[s] += st.Captured
		r.replayed += st.Replayed
	}
	r.nodes[l] = nil
}

// syncLeaves syncs every connected leaf but one (-1: all), in id order — the order a
// post-restore replay must reproduce (each leaf's retained frames replay
// consecutively, leaves in the l-major order the lost frames were
// flushed in).
func (r *StreamRig) syncLeaves(why string, except int) error {
	for l, n := range r.nodes {
		if n == nil || l == except {
			continue
		}
		if err := n.Sync(r.ctx); err != nil {
			return fmt.Errorf("simtest: node %d %s: %w", l, why, err)
		}
	}
	return nil
}

// drive is the one window loop: for each active node × streamChunks,
// observe + shadow-observe, flush, shadow-drain and accumulate the
// expected sketch, then fire whatever marks are due. Each window ships
// as several mid-window delta flushes, not one snapshot: that is the
// protocol's real shape, and the extra frames guarantee every connection
// outlives its chaos budget at least once per run. Windows rotate
// manually between ticks and every member syncs into the new window, so
// the fold sequence — and therefore every per-window sketch — is
// deterministic down to the bit.
func (r *StreamRig) drive() error {
	scn := r.scn
	for w := 1; w <= scn.W; w++ {
		if scn.markAt(MarkJoin, w) != nil {
			if err := r.connect(scn.L); err != nil {
				return err
			}
		}
		// Per-lane accumulators mirroring what each upstream folds this
		// window.
		acc := make([][]csoutlier.Sketch, len(r.sks))
		for s, sk := range r.sks {
			for range r.lanes[s] {
				acc[s] = append(acc[s], sk.ZeroSketch())
			}
		}
		for i, l := range scn.activeNodes(w) {
			slice := r.data.WinSlices[w-1][i]
			for c := 0; c < streamChunks; c++ {
				for idx := len(slice) * c / streamChunks; idx < len(slice)*(c+1)/streamChunks; idx++ {
					v, key := slice[idx], r.data.Keys[idx]
					if v == 0 {
						continue
					}
					if err := r.nodes[l].Observe(key, v); err != nil {
						return fmt.Errorf("simtest: node %d observe: %w", l, err)
					}
					if err := r.shadow[l][r.route(key)].Observe(key, v); err != nil {
						return err
					}
				}
				if err := r.nodes[l].Flush(r.ctx); err != nil {
					return fmt.Errorf("simtest: node %d flush (window %d): %w", l, w, err)
				}
				for s := range r.sks {
					if _, err := r.shadow[l][s].DrainInto(r.scratch[s]); err != nil {
						return err
					}
					if err := acc[s][l%len(acc[s])].Add(r.scratch[s]); err != nil {
						return err
					}
				}
				if err := r.fireFlushMarks(w, i*streamChunks+c, l); err != nil {
					return err
				}
			}
			if err := r.fireNodeMarks(w, l); err != nil {
				return err
			}
		}
		// Window boundary: every relay forwards its folded window upward
		// as one frame, in (shard, relay) order — the root's fold order,
		// which the expected sketch mirrors. Sums that start from zero
		// never hold a negative zero, so adding a lane that folded nothing
		// (its relay stages no frame), or adding a flat root's one lane to
		// zero, changes no bit.
		for s, sk := range r.sks {
			expected := sk.ZeroSketch()
			for li, ln := range r.lanes[s] {
				if ln.relay != nil {
					if err := ln.relay.Forward(r.ctx); err != nil {
						return fmt.Errorf("simtest: relay %d/%d forward (window %d): %w", s, li, w, err)
					}
				}
				if err := expected.Add(acc[s][li]); err != nil {
					return err
				}
			}
			r.expected[s] = append(r.expected[s], expected)
		}
		if err := r.fireWindowMarks(w); err != nil {
			return err
		}
		if w < scn.W {
			if err := r.rotate(); err != nil {
				return err
			}
		}
	}
	return r.quiesce()
}

// eachRelay does one thing to every relay in (shard, relay) order,
// stopping at the first error. The flat topology has none.
func (r *StreamRig) eachRelay(what string, do func(*tier.Relay) error) error {
	for s := range r.lanes {
		for li, ln := range r.lanes[s] {
			if ln.relay == nil {
				continue
			}
			if err := do(ln.relay); err != nil {
				return fmt.Errorf("simtest: relay %d/%d %s: %w", s, li, what, err)
			}
		}
	}
	return nil
}

// rotate opens the next window at every root and walks the tree down:
// relays adopt it, then the leaves. An evicted leaf's sync is its
// comeback: the hello resurrects its tombstone, dedup book intact.
func (r *StreamRig) rotate() error {
	for _, root := range r.roots {
		root.Rotate()
	}
	if err := r.eachRelay("sync", func(rel *tier.Relay) error { return rel.Sync(r.ctx) }); err != nil {
		return err
	}
	return r.syncLeaves("sync", -1)
}

// quiesce is the graceful shutdown: every leaf drains (final flushes are
// empty), then every relay (a final Forward of empty residue), and the
// books settle. The roots keep serving: their window rings are what the
// checker reads.
func (r *StreamRig) quiesce() error {
	for l, n := range r.nodes {
		if n == nil {
			continue
		}
		if err := n.Close(r.ctx); err != nil {
			return fmt.Errorf("simtest: node %d close: %w", l, err)
		}
		r.retire(l)
	}
	if err := r.eachRelay("close", func(rel *tier.Relay) error { return rel.Close(r.ctx) }); err != nil {
		return err
	}
	for _, ps := range r.proxies {
		for _, p := range ps {
			r.kills += p.Kills()
		}
	}
	return nil
}

// Close tears the rig down: whatever is still connected is dropped,
// relays and roots close, proxies stop. It is safe to call twice; the
// first call reports a root that failed to close cleanly.
func (r *StreamRig) Close() error {
	for _, n := range r.nodes {
		if n != nil {
			n.Abort()
		}
	}
	r.nodes = nil
	var errs []error
	r.eachRelay("kill", func(rel *tier.Relay) error { return within10s(rel.Kill) })
	for _, root := range r.roots {
		errs = append(errs, within10s(root.Close))
	}
	r.roots, r.lanes = nil, nil
	for _, rp := range r.remotes {
		rp.Close()
	}
	r.remotes = nil
	for _, ps := range r.proxies {
		for _, p := range ps {
			p.Stop()
		}
	}
	r.proxies = nil
	r.cancel()
	os.RemoveAll(r.snapDir)
	return errors.Join(errs...)
}

// within10s bounds one shutdown call.
func within10s(stop func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return stop(ctx)
}

// fireFlushMarks fires the marks keyed by flush f of window w, which
// leaf l just made. A snapshot and a crash may share a window's first
// flush with the probe-frame capture, so each is its own check.
func (r *StreamRig) fireFlushMarks(w, f, l int) error {
	scn := r.scn
	if snap := scn.markAt(MarkSnap, w); snap != nil {
		if f == 0 {
			// Remember a frame the snapshot will cover, for the post-restore
			// duplicate probe.
			var err error
			if r.probe, err = r.lastFlush(l); err != nil {
				return err
			}
		}
		if f == snap.Flush {
			// Durability point: everything flushed so far is folded (acks
			// follow folds), so the snapshot covers exactly flushes
			// [0, f] of this window plus all earlier windows.
			path := filepath.Join(r.snapDir, "agg.snap")
			if err := r.roots[0].WriteSnapshot(path); err != nil {
				return fmt.Errorf("simtest: snapshot at flush %d: %w", f, err)
			}
			var err error
			if r.snap, err = stream.LoadSnapshot(path); err != nil {
				return fmt.Errorf("simtest: load snapshot: %w", err)
			}
		}
	}
	if crash := scn.markAt(MarkAggCrash, w); crash != nil && f == crash.Flush {
		if err := r.restoreRoot(); err != nil {
			return err
		}
	}
	if kill := scn.markAt(MarkRelayKill, w); kill != nil && f == kill.Flush {
		return r.restoreRelay(kill.Node)
	}
	return nil
}

// reattach records lane (shard, li)'s new address and points the chaos
// proxies of the leaves homed on it at it; each leaf's next redial lands
// there.
func (r *StreamRig) reattach(shard, li int, addr string) {
	r.lanes[shard][li].addr = addr
	for l, ps := range r.proxies {
		if ps != nil && l%len(r.lanes[shard]) == li {
			ps[shard].Retarget(addr)
		}
	}
}

// restoreRoot is the aggregator crash: the flat root dies with the
// frames after the snapshot folded but not snapshotted. The successor
// restores, bumps its incarnation, and the leaves' syncs replay
// retention so the fold sequence continues exactly where the shadow says
// it should. A snapshot-covered frame is then re-delivered verbatim: the
// restored dedup books must refuse it.
func (r *StreamRig) restoreRoot() error {
	within10s(r.roots[0].Close)
	root, err := stream.RestoreAggregator(r.sks[0], r.rootOpts, r.snap)
	if err != nil {
		return fmt.Errorf("simtest: restore: %w", err)
	}
	r.roots[0], r.query = root, root
	addr, err := r.serve(root)
	if err != nil {
		return err
	}
	r.reattach(0, 0, addr)
	// The per-node books came back with the snapshot; the aggregate
	// counters start over.
	r.restores++
	r.dups, r.joins, r.leaves, r.evictions = 0, 0, 0, 0
	r.pointIssued[0], r.pointFlagged[0] = 0, 0
	if err := r.syncLeaves("post-restore sync", -1); err != nil {
		return err
	}
	ack, err := r.redeliver(r.probe)
	if err != nil {
		return fmt.Errorf("simtest: post-restore duplicate probe: %w", err)
	}
	// A probe from an incarnation that has since restarted is refused as
	// stale instead; either way it must fold nothing.
	if ack.Applied || (r.probe.epoch == r.epoch[r.probe.leaf] && ack.Status != stream.StatusDuplicate) {
		return fmt.Errorf("simtest: snapshot-covered frame refolded after restore: %+v", ack)
	}
	if ack.Status == stream.StatusDuplicate {
		r.dups++
	}
	return nil
}

// restoreRelay is the relay crash: relay 0 of the shard dies without a
// snapshot (everything since its last Forward is lost), restores from
// its own snapshot file, and syncs first — it must adopt the root's
// current window (its snapshot predates the latest rotations) and replay
// its retained upward frames against the root's dedup books before any
// leaf frame arrives. Then the leaves replay the lost leaf frames
// against its restored books.
func (r *StreamRig) restoreRelay(shard int) error {
	ln := &r.lanes[shard][0]
	if err := ln.relay.Kill(r.ctx); err != nil {
		return fmt.Errorf("simtest: kill relay: %w", err)
	}
	snap, err := stream.LoadSnapshot(ln.opts.SnapshotPath)
	if err != nil {
		return fmt.Errorf("simtest: load relay snapshot: %w", err)
	}
	if ln.relay, err = tier.RestoreRelay(r.ctx, r.sks[shard], ln.opts, snap); err != nil {
		return fmt.Errorf("simtest: restore relay: %w", err)
	}
	addr, err := r.serve(ln.relay)
	if err != nil {
		return err
	}
	r.reattach(shard, 0, addr)
	if err := ln.relay.Sync(r.ctx); err != nil {
		return fmt.Errorf("simtest: restored relay sync: %w", err)
	}
	return r.syncLeaves("post-restore sync", -1)
}

// lastFlush returns leaf l's latest flush to shard 0 as it went on the
// wire: the shadow drain bytes are bit-identical to what the node
// pushed, so they and the node's own (epoch, window, seq) tags are an
// exact wire-level duplicate.
func (r *StreamRig) lastFlush(l int) (sentFrame, error) {
	payload, err := r.scratch[0].MarshalBinary()
	st := r.parts[l][0].Stats()
	return sentFrame{leaf: l, epoch: r.epoch[l], window: st.Window, seq: st.Seq, payload: payload}, err
}

// redeliver pushes a frame again, straight at its leaf's upstream (no
// chaos).
func (r *StreamRig) redeliver(f sentFrame) (stream.Ack, error) {
	c, err := stream.DialClient(r.ctx, r.laneOf(f.leaf, 0).addr, 5*time.Second)
	if err != nil {
		return stream.Ack{}, err
	}
	defer c.Close()
	return c.PushDelta(NodeID(f.leaf), f.epoch, f.window, f.seq, 1, f.payload)
}

// fireNodeMarks fires the marks keyed by leaf l once it has made its
// last flush of window w.
func (r *StreamRig) fireNodeMarks(w, l int) error {
	scn := r.scn
	if dup := scn.mark(MarkDup); dup != nil && dup.Node == l {
		// Re-deliver the flush verbatim: must be acked as a duplicate and
		// fold nothing.
		flush, err := r.lastFlush(l)
		if err != nil {
			return err
		}
		ack, err := r.redeliver(flush)
		if err != nil {
			return fmt.Errorf("simtest: dup injection: %w", err)
		}
		if ack.Applied || ack.Status != stream.StatusDuplicate {
			return fmt.Errorf("simtest: duplicate flush was not deduplicated: %+v", ack)
		}
		r.dups++
	}
	if crash := scn.markAt(MarkNodeCrash, w); crash != nil && crash.Node == l {
		// The crash loses everything observed since the last flush: an
		// extra anomalous batch that must never reach the aggregate. The
		// successor re-dials with a bumped epoch.
		if err := r.nodes[l].Observe(r.data.Keys[r.data.Support[0]], 123456); err != nil {
			return err
		}
		n := r.nodes[l]
		r.retire(l)
		n.Abort()
		return r.connect(l)
	}
	return nil
}

// fireWindowMarks fires the marks due once window w's flushes are all
// acked and forwarded: probes while the ring holds exactly windows 1..w,
// then the membership exits.
func (r *StreamRig) fireWindowMarks(w int) error {
	scn := r.scn
	if scn.markAt(MarkProbe, w) != nil {
		// Probe the newest window alone and the whole span so far, on the
		// planted keys plus a small clean sample. The answers are checked
		// later against the exact oracle.
		spans := [][2]int{{0, 0}}
		if w > 1 {
			spans = append(spans, [2]int{0, w - 1})
		}
		idxs := append(append([]int{}, r.data.Support...), r.clean[:pointMidProbeClean]...)
		for _, span := range spans {
			for _, idx := range idxs {
				ans, err := r.query.PointQuery(span[0], span[1], r.data.Keys[idx], pointThreshold)
				if err != nil {
					return fmt.Errorf("simtest: mid-run point query window %d span [%d,%d] key %d: %w", w, span[0], span[1], idx, err)
				}
				r.notePoint(idx, ans)
				r.probes = append(r.probes, pointProbe{Window: w, FromAge: span[0], ToAge: span[1], Index: idx, Ans: ans})
			}
		}
	}
	if leave := scn.markAt(MarkLeave, w); leave != nil {
		// The bye exchange runs through chaos, so retry (Leave is
		// idempotent) until it lands.
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			if err = r.parts[leave.Node][0].Leave(r.ctx); err == nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("simtest: node %d leave: %w", leave.Node, err)
		}
		r.retire(leave.Node)
		r.leaves++
		r.member++
		r.tombs++
	}
	if evict := scn.markAt(MarkEvict, w); evict != nil {
		if err := r.evict(evict.Node); err != nil {
			return err
		}
		// validate put a window after this one, so the rotation that
		// follows resurrects the node: one eviction, one more join.
		r.evictions++
		r.joins++
		r.member += 2
	}
	return nil
}

// notePoint books one point-query answer against the root that gave it.
func (r *StreamRig) notePoint(idx int, ans csoutlier.PointAnswer) {
	s := r.route(r.data.Keys[idx])
	r.pointIssued[s]++
	if ans.Outlier {
		r.pointFlagged[s]++
	}
}

// pickCleanProbes draws the scenario's deterministic clean-key sample:
// pointProbeClean distinct indices outside the planted support.
func pickCleanProbes(scn StreamScenario, support []int) []int {
	taken := make(map[int]bool, len(support)+pointProbeClean)
	for _, j := range support {
		taken[j] = true
	}
	rng := xrand.New(scn.Seed).Split(0x9b0be5)
	out := make([]int, 0, pointProbeClean)
	for len(out) < pointProbeClean {
		if j := rng.Intn(scn.N); !taken[j] {
			taken[j] = true
			out = append(out, j)
		}
	}
	return out
}

// evict retires exactly the target node via the flat root's liveness
// sweep: it refreshes every other live node's LastSeen, reads the
// aggregator's own liveness table, and calls EvictIdle with a threshold
// that provably separates the silent target from the just-refreshed
// rest — retrying (the target only gets older) until the separation
// holds with margin.
func (r *StreamRig) evict(target int) error {
	targetID := NodeID(target)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("simtest: could not separate node %d for eviction", target)
		}
		if err := r.syncLeaves("pre-evict sync", target); err != nil {
			return err
		}
		var targetSeen time.Time
		staleOther := time.Duration(0)
		for _, ns := range r.roots[0].Nodes() {
			if ns.State != stream.StateLive {
				continue
			}
			if ns.Node == targetID {
				targetSeen = ns.LastSeen
			} else if age := time.Since(ns.LastSeen); age > staleOther {
				staleOther = age
			}
		}
		if targetSeen.IsZero() {
			return fmt.Errorf("simtest: evict target %s not live", targetID)
		}
		threshold := time.Since(targetSeen) / 2
		// Proceed only when every other node is fresher than a quarter of
		// the threshold — enough margin that the sweep below cannot
		// misfire even if this goroutine stalls briefly.
		if threshold >= 20*time.Millisecond && staleOther < threshold/4 {
			if got := r.roots[0].EvictIdle(threshold); got != 1 {
				return fmt.Errorf("simtest: EvictIdle(%v) evicted %d nodes, want exactly the silent target", threshold, got)
			}
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}
