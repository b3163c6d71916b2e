package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"time"

	"csoutlier"
	"csoutlier/internal/obs"
	"csoutlier/internal/stream"
	"csoutlier/internal/tier"
)

// standing_tier: the same layers as the other streaming workloads, used
// differently. Two key-range shards, each leaf → relay → shard root,
// behind a Router; one ShardedNode (two connections) drives them. The
// backend is the bias-aware count-sketch, so observing is cheap, frames
// are few and large, span queries are standing (cache hits, warm batched
// refreshes), and a 1024-key watch list is read beside them with no
// recovery at all. Relays snapshot in memory on every Forward.
//
// The script has a period of one window of cyclesPerWindow cycles; each
// cycle gives every key its base value once, planted keys a deviation on
// top. With the ring warm, a span of a+1 windows holds a whole windows
// plus the open window's prefix, so every exact answer depends on
// (a, cycle mod cyclesPerWindow) only and is computed with the inputs.

type tierSize struct {
	shards, perShard int
	m, depth         int
	s                int // planted keys, over all shards
	unit             int // observations per ShardedNode.Flush
	cyclesPerWindow  int
	ring             int // windows; spans are (0,0) .. (0,ring-1)
	ks               []int
	watch            int
}

var (
	tierFull = tierSize{shards: 2, perShard: 4096, m: 448, depth: 7, s: 12, unit: 256, cyclesPerWindow: 16, ring: 4, ks: []int{5, 10}, watch: 1024}
	tierTiny = tierSize{shards: 2, perShard: 256, m: 140, depth: 5, s: 6, unit: 64, cyclesPerWindow: 4, ring: 2, ks: []int{2, 4}, watch: 64}
)

type tierCycle struct {
	obs     []observation
	oracles []oracle  // per span a: exact top-max(ks) after this cycle
	point   []float64 // exact value of each watched key over the widest span
	bound   float64   // bias-aware error bound for the point answers
}

type standingTier struct {
	size   tierSize
	seed   uint64
	keys   []string
	watch  []string
	cycles []tierCycle
	fp     uint64

	encodeNS, decodeNS float64

	smap   *tier.ShardMap
	sks    []*csoutlier.Sketcher
	regs   []*obs.Registry
	roots  []*stream.Aggregator
	relays []*tier.Relay
	addrs  []string // shard roots' push listeners
	waits  []func()
	leaf   *tier.ShardedNode
	router *tier.Router
	tr     *recorder // the current phase's recorder, for the query wrappers
	parent spanRef   // the router span the wrappers' spans belong under

	starts        []time.Time
	applied       []int64 // root Applied per shard, after the last cycle
	next          int64
	newSketcherMS float64
}

func (w *standingTier) spec() tier.Spec {
	return tier.Spec{M: w.size.m, BaseSeed: w.seed, Ensemble: csoutlier.CountSketch, Depth: w.size.depth}
}

func newStandingTier(seed uint64, tiny bool) workload {
	size := tierFull
	if tiny {
		size = tierTiny
	}
	n := size.shards * size.perShard
	w := &standingTier{size: size, seed: seed, keys: plainKeys(n)}
	rng := newRNG(seed, 300)
	fp := newFingerprint()
	const base, drift = 100, 15
	// The same number of planted keys in every shard: a routed query
	// waits for its slowest shard, and recovery time grows with the
	// outliers a shard holds, so an uneven split would make the timings a
	// property of the seed.
	var pos []int
	for sh := 0; sh < size.shards; sh++ {
		for _, p := range rng.Perm(size.perShard)[:size.s/size.shards] {
			pos = append(pos, sh*size.perShard+p)
		}
	}
	dev := ladder(len(pos), 300, 80, rng)

	// The watch list: every planted key, the rest drawn at random.
	watched := make(map[int]bool, size.watch)
	var watchIdx []int
	for _, p := range pos {
		watched[p] = true
		watchIdx = append(watchIdx, p)
	}
	for len(watchIdx) < size.watch {
		if i := rng.Intn(n); !watched[i] {
			watched[i] = true
			watchIdx = append(watchIdx, i)
		}
	}
	rng.Shuffle(len(watchIdx), func(a, b int) { watchIdx[a], watchIdx[b] = watchIdx[b], watchIdx[a] })
	for _, i := range watchIdx {
		w.watch = append(w.watch, w.keys[i])
	}

	perCycle := make([][]float64, size.cyclesPerWindow)
	whole := make([]float64, n)
	for c := range perCycle {
		x := make([]float64, n)
		for i := range x {
			x[i] = base
		}
		for j, p := range pos {
			x[p] += dev[j] + float64(rng.Intn(2*drift+1)-drift)
		}
		list := make([]observation, 0, n)
		for _, i := range rng.Perm(n) {
			list = append(list, observation{int32(i), x[i]})
			fp.u64(uint64(i))
			fp.f64(x[i])
			whole[i] += x[i]
		}
		perCycle[c] = x
		w.cycles = append(w.cycles, tierCycle{obs: list})
	}
	kmax := size.ks[len(size.ks)-1]
	prefix := make([]float64, n)
	x := make([]float64, n)
	for c := range w.cycles {
		for i, v := range perCycle[c] {
			prefix[i] += v
		}
		tc := &w.cycles[c]
		for a := 0; a < size.ring; a++ {
			for i := range x {
				x[i] = float64(a)*whole[i] + prefix[i]
			}
			tc.oracles = append(tc.oracles, exactOracle(w.keys, x, kmax, false))
		}
		// x now holds the widest span. The count-sketch guarantee: a
		// point estimate misses by at most ~‖x − mode‖₂/√buckets; three
		// times that is the bound an answer must stay inside.
		mode := tc.oracles[size.ring-1].mode
		var energy float64
		for _, v := range x {
			energy += (v - mode) * (v - mode)
		}
		tc.bound = 3 * math.Sqrt(energy) / math.Sqrt(float64(size.m/size.depth))
		for _, i := range watchIdx {
			tc.point = append(tc.point, x[i])
		}
	}
	w.fp = fp.h
	return w
}

func (w *standingTier) fingerprint() uint64 { return w.fp }

// One lane for the driver plus one per shard: the Router fans a query
// out on a goroutine per shard, and each records into its own lane.
func (w *standingTier) lanes() int { return 1 + w.size.shards }

func (w *standingTier) build(ctx context.Context, m *meter) (time.Duration, error) {
	t0 := time.Now()
	var err error
	if w.smap, err = tier.NewShardMap(w.keys, w.size.shards, w.spec(), 1); err != nil {
		return 0, err
	}
	if w.sks, err = w.smap.Sketchers(); err != nil {
		return 0, err
	}
	w.newSketcherMS = float64(time.Since(t0)) / 1e6 / float64(w.size.shards)
	w.regs, w.roots, w.relays, w.addrs, w.waits = nil, nil, nil, nil, nil
	var relayAddrs []string
	var targets []tier.Target
	for i, sk := range w.sks {
		reg := obs.NewRegistry()
		sk.Instrument(reg)
		root, err := stream.NewAggregator(sk, stream.AggregatorOptions{Windows: w.size.ring, Metrics: reg})
		if err != nil {
			return 0, err
		}
		w.regs, w.roots = append(w.regs, reg), append(w.roots, root)
		ln, err := m.listen()
		if err != nil {
			return 0, err
		}
		w.addrs = append(w.addrs, ln.Addr().String())
		w.waits = append(w.waits, serveOn(root.Serve, ln))
		relay, err := tier.NewRelay(ctx, sk, tier.RelayOptions{
			ID: "relay", Shard: i, Upstream: ln.Addr().String(),
			Agg: stream.AggregatorOptions{Windows: w.size.ring, Durable: true},
		})
		if err != nil {
			return 0, err
		}
		w.relays = append(w.relays, relay)
		var rln net.Listener
		if rln, err = m.listen(); err != nil {
			return 0, err
		}
		relayAddrs = append(relayAddrs, rln.Addr().String())
		w.waits = append(w.waits, serveOn(relay.Serve, rln))
		q := &shardQuerier{w: w, shard: i, root: root, misses: reg.CounterVec("stream_recovery_cache_total", "", "result").With("miss")}
		targets = append(targets, tier.Target{Span: q, Point: q})
	}
	if w.leaf, err = tier.DialSharded(ctx, w.smap, w.sks, relayAddrs, "leaf", stream.NodeOptions{}); err != nil {
		return 0, err
	}
	if w.router, err = tier.NewRouter(w.smap, targets); err != nil {
		return 0, err
	}
	w.applied = make([]int64, w.size.shards)
	w.next = 0
	setup := time.Since(t0)

	if w.encodeNS == 0 {
		pairs := map[string]float64{w.smap.Shard(0).Keys[0]: 1}
		if s, err := w.sks[0].SketchPairs(pairs); err == nil {
			w.encodeNS, w.decodeNS = probeCodec(w.sks[0], s)
		}
	}

	// Warm the ring: ring-1 whole windows through the ordinary cycle
	// (queries included).
	t1 := time.Now()
	for i := 0; i < (w.size.ring-1)*w.size.cyclesPerWindow; i++ {
		if err := w.cycle(ctx, m, nil); err != nil {
			return 0, err
		}
	}
	return setup + time.Since(t1), nil
}

// shardQuerier stands between the Router and one shard root: the same
// calls, with a span around each when tracing is on.
type shardQuerier struct {
	w      *standingTier
	shard  int
	root   *stream.Aggregator
	misses *obs.Counter
}

func (q *shardQuerier) lane() *lane {
	ln := q.w.tr.lane(1 + q.shard)
	ln.adopt(q.w.parent, q.w.next)
	return ln
}

func (q *shardQuerier) Outliers(fromAge, toAge, k int) (*csoutlier.Report, error) {
	ln := q.lane()
	before := q.misses.Value()
	sp := ln.begin("stream.outliers_hit")
	rep, err := q.root.Outliers(fromAge, toAge, k)
	ln.end(sp, 1)
	if q.misses.Value() != before {
		ln.rename(sp, "stream.outliers_miss")
	}
	return rep, err
}

func (q *shardQuerier) PointQueryMulti(fromAge, toAge int, keys []string, threshold float64) ([]csoutlier.PointAnswer, error) {
	ln := q.lane()
	sp := ln.begin("stream.pointq_multi")
	out, err := q.root.PointQueryMulti(fromAge, toAge, keys, threshold)
	ln.end(sp, 1)
	return out, err
}

func (w *standingTier) cycle(ctx context.Context, m *meter, tr *recorder) error {
	i := w.next
	c := int(i % int64(w.size.cyclesPerWindow))
	tc := &w.cycles[c]
	w.tr = tr
	l0 := tr.lane(0)
	l0.setOp(i)
	cyc := l0.begin("bench.cycle")

	w.starts = w.starts[:0]
	for list := tc.obs; len(list) > 0; {
		var chunk []observation
		chunk, list = nextChunk(list, w.size.unit)
		sp := l0.begin("tier.sharded_observe")
		for _, o := range chunk {
			if err := w.leaf.Observe(w.keys[o.key], o.val); err != nil {
				return err
			}
		}
		l0.end(sp, len(chunk))
		w.starts = append(w.starts, time.Now())
		sp = l0.begin("tier.sharded_flush")
		err := w.leaf.Flush(ctx)
		l0.end(sp, 1)
		m.op(err)
		m.obs.Add(int64(len(chunk)))
	}
	for s, relay := range w.relays {
		sp := l0.begin("tier.forward")
		err := relay.Forward(ctx)
		l0.end(sp, 1)
		if applied := w.roots[s].Stats().Applied; err == nil && applied <= w.applied[s] {
			err = fmt.Errorf("shard %d: forward returned but the root folded nothing new", s)
		} else {
			w.applied[s] = applied
		}
		m.op(err)
	}
	// A delta is fresh once the forward that carries it is folded at the
	// shard root, where queries read.
	fresh := time.Now()
	for _, t0 := range w.starts {
		m.freshness.add(0, fresh.Sub(t0))
	}

	// While the ring is still filling (set-up), only the spans whose
	// windows all exist have an oracle.
	// The span-query sample is the whole refresh: what a dashboard waits
	// for its standing set after new data (one miss that batch-refreshes
	// the rest, then hits). A single hit is ~5 us of goroutine fan-out,
	// too short to repeat; it is the per-layer stream.outliers_hit_us.
	whole := int(i / int64(w.size.cyclesPerWindow))
	var refresh time.Duration
	for a := 0; a < w.size.ring && a <= whole; a++ {
		for _, k := range w.size.ks {
			sp := l0.begin("tier.router_outliers")
			w.parent = l0.ref(sp)
			t0 := time.Now()
			rep, err := w.router.Outliers(0, a, k)
			d := time.Since(t0)
			l0.end(sp, 1)
			refresh += d
			if err == nil {
				err = m.checkReport(rep, tc.oracles[a], k, k-k/5)
			}
			m.op(err)
		}
	}
	m.spanQuery.add(0, refresh)

	if whole >= w.size.ring-1 {
		sp := l0.begin("tier.router_pointq")
		w.parent = l0.ref(sp)
		t0 := time.Now()
		answers, err := w.router.PointQueryMulti(0, w.size.ring-1, w.watch, 0)
		d := time.Since(t0)
		l0.end(sp, 1)
		m.pointKeys.Add(int64(len(w.watch)))
		m.pointRead.add(0, d)
		if err == nil {
			for j, ans := range answers {
				if math.Abs(ans.Value-tc.point[j]) > tc.bound {
					err = fmt.Errorf("point answer for %s is %.6g, exact %.6g, bound %.3g", w.watch[j], ans.Value, tc.point[j], tc.bound)
					break
				}
			}
		}
		m.op(err)
	}

	if c == w.size.cyclesPerWindow-1 {
		// Rotate at the roots; relays, then the leaf, adopt the new window.
		for s, root := range w.roots {
			sp := l0.begin("stream.rotate")
			root.Rotate()
			l0.end(sp, 1)
			sp = l0.begin("tier.relay_sync")
			err := w.relays[s].Sync(ctx)
			l0.end(sp, 1)
			if err != nil {
				return err
			}
		}
		sp := l0.begin("stream.sync")
		err := w.leaf.Sync(ctx)
		l0.end(sp, 1)
		if err != nil {
			return err
		}
	}
	l0.end(cyc, 1)
	w.next++
	return nil
}

// verify checks conservation through the tree: every leaf capture is in
// a frame a relay folded, and every fold a relay staged upward reached
// its root.
func (w *standingTier) verify(m *meter) {
	for s := range w.roots {
		ns := w.leaf.Node(s).Stats()
		leafSide := w.relays[s].Aggregator().Stats()
		rs := w.relays[s].Stats()
		root := w.roots[s].Stats()
		var err error
		switch {
		case leafSide.Applied+leafSide.ShedFolds != ns.Captured:
			err = fmt.Errorf("shard %d: relay applied %d + shed %d != leaf captured %d", s, leafSide.Applied, leafSide.ShedFolds, ns.Captured)
		case rs.FoldsStaged != leafSide.Applied+leafSide.ShedFolds:
			err = fmt.Errorf("shard %d: relay staged %d folds upward, folded %d", s, rs.FoldsStaged, leafSide.Applied+leafSide.ShedFolds)
		case root.Applied != rs.FramesStaged || rs.Queued+rs.Staged != 0:
			err = fmt.Errorf("shard %d: root applied %d of %d upward frames (%d queued, %d staged)", s, root.Applied, rs.FramesStaged, rs.Queued, rs.Staged)
		case root.Duplicates+root.Dropped+root.Rejected+rs.Rejected+rs.Dropped != 0:
			err = fmt.Errorf("shard %d: upward frames duplicated, dropped or rejected", s)
		}
		m.op(err)
	}
}

func (w *standingTier) carves() []carveReading {
	var out []carveReading
	for s, root := range w.roots {
		out = append(out, recoveryCarve(w.regs[s], "stream.outliers_miss"))
		// Upward frames fold at the root, leaf frames at the relay (its
		// embedded aggregator keeps the same histogram, privately).
		out = append(out, pushCarves(root, "tier.forward", w.encodeNS, w.decodeNS)...)
		out = append(out, pushCarves(w.relays[s].Aggregator(), "tier.sharded_flush", w.encodeNS, w.decodeNS)...)
	}
	return out
}

func (w *standingTier) close(ctx context.Context) {
	if w.leaf != nil {
		w.leaf.Close(ctx)
		w.leaf = nil
	}
	for _, relay := range w.relays {
		relay.Close(ctx)
	}
	for _, root := range w.roots {
		root.Close(ctx)
	}
	for _, wait := range w.waits {
		wait()
	}
	w.relays, w.roots, w.waits = nil, nil, nil
}

func (w *standingTier) layers(ctx context.Context, out map[string]float64) error {
	out["csoutlier.new_sketcher_ms"] = w.newSketcherMS
	var leafFrames, rootFrames float64
	for s, root := range w.roots {
		aggregatorCounters(root, w.regs[s], out)
		rootFrames += float64(root.Stats().Applied)
		leafSide := w.relays[s].Aggregator()
		leafFrames += float64(leafSide.Stats().Applied)
		if mean, n := histMean(leafSide.MetricsRegistry(), "stream_snapshot_seconds"); n > 0 {
			out["stream.snapshot_ms"] = mean * 1e3
		}
		out["stream.redials"] += float64(w.leaf.Node(s).Stats().Redials + w.relays[s].Stats().Redials)
	}
	if leafFrames > 0 {
		out["tier.fanin_ratio"] = rootFrames / leafFrames
	}

	// Probes run on shard 0: its Sketcher, its keys, its root's widest span.
	sk, keys := w.sks[0], w.smap.Shard(0).Keys
	global, err := w.roots[0].RangeSketch(0, w.size.ring-1)
	if err != nil {
		return err
	}
	pairs := make(map[string]float64, len(keys))
	var list []observation
	for _, o := range w.cycles[0].obs {
		if int(o.key) < len(keys) {
			pairs[keys[o.key]] = o.val
			list = append(list, o)
		}
	}
	kmax := w.size.ks[len(w.size.ks)-1]
	probeSketcher(sk, keys, list, pairs, global, kmax, out)
	spec := w.spec()
	cfg := csoutlier.Config{M: spec.M, Seed: w.smap.Shard(0).Seed, Ensemble: spec.Ensemble, Depth: spec.Depth}
	if err := probeKernels(sk, cfg, global, kmax, out); err != nil {
		return err
	}
	snapMS := out["stream.snapshot_ms"]
	if err := probeService(ctx, w.addrs[0], w.roots[0], sk, out); err != nil {
		return err
	}
	out["stream.snapshot_ms"] = snapMS // keep the relays' own in-Forward number

	// route_ns: what ShardedNode.Observe adds over the shard node's own
	// Observe, on the same key (+1 then -1, so the leaf ends unchanged).
	key := keys[len(keys)/2]
	node := w.leaf.Node(0)
	sign := 1.0
	flip := func() float64 { sign = -sign; return sign }
	sharded := timeCalls(probeSamples, 512, func() { w.leaf.Observe(key, flip()) })
	direct := timeCalls(probeSamples, 512, func() { node.Observe(key, flip()) })
	out["tier.route_ns"] = math.Max(sharded-direct, 0)
	return nil
}
