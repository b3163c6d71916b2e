package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"csoutlier"
	"csoutlier/internal/cluster"
	"csoutlier/internal/linalg"
	"csoutlier/internal/obs"
)

// oneshot_pull: the paper's single round and nothing else. L pull nodes
// each hold a dense slice of a click-log-shaped aggregate (slices look
// nothing like the sum: zero-sum noise across nodes); one op is one
// Sketcher.DetectCluster — dial, every node measures its full vector
// against the requested spec, sketches are summed, outliers recovered.
// No streaming code runs. Between ops one node's slice is updated so
// successive rounds answer different aggregates.

type pullSize struct {
	n, m, s, k int
	nodes      int
	variants   int
	warmup     int
	hard       int // vectors the large-k recall probe answers
}

var (
	pullFull = pullSize{n: 2000, m: 320, s: 20, k: 16, nodes: 8, variants: 4, warmup: 2, hard: 8}
	pullTiny = pullSize{n: 400, m: 96, s: 6, k: 4, nodes: 3, variants: 2, warmup: 1, hard: 1}
)

type pullVariant struct {
	delta  linalg.Vector // what takes the aggregate from the previous variant to this one
	oracle oracle
}

type oneshotPull struct {
	size     pullSize
	seed     uint64
	keys     []string
	slices   []linalg.Vector // variant 0, per node
	variants []pullVariant
	fp       uint64

	sk    *csoutlier.Sketcher
	reg   *obs.Registry
	nodes []*cluster.LocalNode
	lns   []net.Listener
	addrs []string
	waits []func()

	collectNS     float64 // cumulative max-node RTT, for the self-time table
	rtts          []float64
	collects      []float64
	attempts      int64
	retries       int64
	next          int64
	newSketcherMS float64
}

func (w *oneshotPull) config() csoutlier.Config { return csoutlier.Config{M: w.size.m, Seed: w.seed} }

func newOneshotPull(seed uint64, tiny bool) workload {
	size := pullFull
	if tiny {
		size = pullTiny
	}
	rng := newRNG(seed, 400)
	w := &oneshotPull{size: size, seed: seed, keys: clickLogKeys(size.n, rng)}
	fp := newFingerprint()
	for _, k := range w.keys[:8] {
		fp.str(k)
	}
	const mode = 5000
	pos, _ := plant(size.n, size.s, 1, 1, rng)
	globals := make([]linalg.Vector, size.variants)
	for v := range globals {
		g := make(linalg.Vector, size.n)
		for i := range g {
			g[i] = mode
		}
		dev := ladder(size.s, 2000, 400, rng)
		for j, p := range pos {
			g[p] += dev[j]
		}
		globals[v] = g
	}
	// Variant 0 split across the nodes with zero-sum noise a quarter of
	// the mode wide: every slice is dense and unlike the aggregate.
	w.slices = make([]linalg.Vector, size.nodes)
	for l := range w.slices {
		w.slices[l] = make(linalg.Vector, size.n)
	}
	for i, gv := range globals[0] {
		rest := gv
		for l := 0; l < size.nodes-1; l++ {
			part := float64(int(gv)/size.nodes + rng.Intn(mode/2+1) - mode/4)
			w.slices[l][i] = part
			rest -= part
			fp.f64(part)
		}
		w.slices[size.nodes-1][i] = rest
	}
	for v, g := range globals {
		prev := globals[(v+size.variants-1)%size.variants]
		delta := make(linalg.Vector, size.n)
		for i := range delta {
			delta[i] = g[i] - prev[i]
			fp.f64(delta[i])
		}
		w.variants = append(w.variants, pullVariant{delta: delta, oracle: exactOracle(w.keys, g, size.k, false)})
	}
	w.fp = fp.h
	return w
}

func (w *oneshotPull) fingerprint() uint64 { return w.fp }
func (w *oneshotPull) lanes() int          { return 1 }

func (w *oneshotPull) build(ctx context.Context, m *meter) (time.Duration, error) {
	t0 := time.Now()
	sk, err := csoutlier.NewSketcher(w.keys, w.config())
	if err != nil {
		return 0, err
	}
	w.newSketcherMS = float64(time.Since(t0)) / 1e6
	w.sk = sk
	w.reg = obs.NewRegistry()
	sk.Instrument(w.reg)
	w.nodes, w.lns, w.addrs, w.waits = nil, nil, nil, nil
	for l, slice := range w.slices {
		node := cluster.NewLocalNode(fmt.Sprintf("dc-%d", l), slice.Clone())
		ln, err := m.listen()
		if err != nil {
			return 0, err
		}
		w.nodes, w.lns, w.addrs = append(w.nodes, node), append(w.lns, ln), append(w.addrs, ln.Addr().String())
		w.waits = append(w.waits, serveOn(func(ln net.Listener) error { return cluster.Serve(ln, node) }, ln))
	}
	w.next, w.collectNS, w.attempts, w.retries = 0, 0, 0, 0
	w.rtts, w.collects = w.rtts[:0], w.collects[:0]
	for i := 0; i < w.size.warmup; i++ {
		if err := w.cycle(ctx, m, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func (w *oneshotPull) cycle(ctx context.Context, m *meter, tr *recorder) error {
	i := w.next
	w.next++
	v := int(i % int64(w.size.variants))
	// New data lands at one node between rounds (the first round sees
	// variant 0 as built).
	if i > 0 {
		if err := w.nodes[int(i)%w.size.nodes].Update(w.variants[v].delta); err != nil {
			return err
		}
	}
	l0 := tr.lane(0)
	l0.setOp(i)
	sp := l0.begin("csoutlier.detect_cluster")
	t0 := time.Now()
	rep, err := w.sk.DetectCluster(ctx, w.addrs, w.size.k, csoutlier.ClusterOptions{BackoffSeed: w.seed + 1})
	d := time.Since(t0)
	l0.end(sp, 1)
	m.spanQuery.add(0, d)
	m.obs.Add(int64(w.size.nodes * w.size.n))
	if err != nil {
		m.op(err)
		return nil
	}
	var collect time.Duration
	for _, nr := range rep.Nodes {
		if nr.RTT > collect {
			collect = nr.RTT
		}
		w.rtts = append(w.rtts, float64(nr.RTT))
	}
	w.collects = append(w.collects, float64(collect))
	w.collectNS += float64(collect)
	w.attempts += int64(rep.Stats.Attempts)
	w.retries += int64(rep.Stats.Retries)
	// The aggregate is fresh at the aggregator once the slowest node's
	// sketch is in: the round's collection time.
	m.freshness.add(0, collect)
	switch {
	case len(rep.Included) != w.size.nodes || len(rep.Failed) != 0:
		err = fmt.Errorf("round covered %d of %d nodes (%d failed)", len(rep.Included), w.size.nodes, len(rep.Failed))
	case rep.Stats.Messages != w.size.nodes || rep.Stats.Retries != 0:
		err = fmt.Errorf("round took %d messages and %d retries for %d nodes", rep.Stats.Messages, rep.Stats.Retries, w.size.nodes)
	default:
		err = m.checkReport(&rep.Report, w.variants[v].oracle, w.size.k, w.size.k-w.size.k/5)
	}
	m.op(err)
	return nil
}

// verify: the per-round checks cover everything; there is no standing
// state to reconcile at the end.
func (w *oneshotPull) verify(m *meter) {}

func (w *oneshotPull) carves() []carveReading {
	return []carveReading{
		{"csoutlier.detect_cluster", "recovery.solve", recoverySeconds(w.reg) * 1e9, w.next},
		{"csoutlier.detect_cluster", "cluster.collect", w.collectNS, w.next},
	}
}

func (w *oneshotPull) close(ctx context.Context) {
	for _, ln := range w.lns {
		ln.Close()
	}
	for _, wait := range w.waits {
		wait()
	}
	w.lns, w.waits, w.nodes = nil, nil, nil
}

func (w *oneshotPull) layers(ctx context.Context, out map[string]float64) error {
	out["csoutlier.new_sketcher_ms"] = w.newSketcherMS
	recoveryCounters(w.reg, out)
	out["cluster.collect_ms"] = median(w.collects) / 1e6
	out["cluster.node_rtt_ms"] = median(w.rtts) / 1e6
	out["cluster.attempts"] = float64(w.attempts)
	out["cluster.retries"] = float64(w.retries)

	pairs := make(map[string]float64, w.size.n)
	list := make([]observation, w.size.n)
	for i, key := range w.keys {
		pairs[key] = w.slices[0][i]
		list[i] = observation{int32(i), w.slices[0][i]}
	}
	global, err := w.sk.SketchVector(w.aggregate())
	if err != nil {
		return err
	}
	probeSketcher(w.sk, w.keys, list, pairs, global, w.size.k, out)
	if err := probeKernels(w.sk, w.config(), global, w.size.k, out); err != nil {
		return err
	}
	out["recovery.large_k_recall"], err = largeKRecall(w.seed, w.size.hard)
	return err
}

// largeKRecall answers the query this workload was sized away from. With
// k=16 and M=320 the selector picks AIHT (k >= 16 and M >= 8k); at N=4000
// with 48 planted keys that pick reports about four fifths of the exact
// top-16, as little as a quarter on some inputs, where BOMP reports all of
// it. A workload whose operations fail cannot be timed, so the shape is
// kept as an ungated number for the solver-selection work to move: the
// share of the exact top-k reported over a few seeded vectors, one
// in-process Detect each.
func largeKRecall(seed uint64, vectors int) (float64, error) {
	const n, m, s, k = 4000, 320, 48, 16
	rng := newRNG(seed, 401)
	keys := plainKeys(n)
	sk, err := csoutlier.NewSketcher(keys, csoutlier.Config{M: m, Seed: seed})
	if err != nil {
		return 0, err
	}
	hits := 0
	for v := 0; v < vectors; v++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = 5000
		}
		pos, dev := plant(n, s, 2000, 400, rng)
		for j, p := range pos {
			x[p] += dev[j]
		}
		global, err := sk.SketchVector(x)
		if err != nil {
			return 0, err
		}
		rep, err := sk.Detect(global, k)
		if err != nil {
			return 0, err
		}
		exact := make(map[string]bool, k)
		for _, key := range exactOracle(keys, x, k, false).top {
			exact[key] = true
		}
		for _, o := range rep.Outliers {
			if exact[o.Key] {
				hits++
			}
		}
	}
	return float64(hits) / float64(vectors*k), nil
}

// aggregate asks every node for its slice and sums them: the exact
// aggregate the last round answered.
func (w *oneshotPull) aggregate() linalg.Vector {
	sum := make(linalg.Vector, w.size.n)
	for _, node := range w.nodes {
		if x, err := node.FullVector(context.Background()); err == nil {
			sum.Add(x)
		}
	}
	return sum
}
