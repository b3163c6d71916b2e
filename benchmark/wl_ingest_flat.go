package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"csoutlier"
	"csoutlier/internal/obs"
	"csoutlier/internal/stream"
)

// ingest_flat: the push path does the work and recovery almost none.
// Leaves observe a majority-dominated vector split between them with
// zero-sum noise (each slice looks dense, the sum is sparse around the
// mode) plus zipf-skewed zero-sum churn on hot keys, and flush a frame
// every flushEvery observations, waiting for each ack. One checked span
// query and one rotation per cycle.

type flatSize struct {
	n, m, s, k int
	leaves     int
	flushEvery int
	churn      int // zero-sum (+d, -d) pairs per leaf per cycle
	variants   int // distinct cycles the script replays round-robin
	warmup     int64
}

var (
	flatFull = flatSize{n: 4096, m: 256, s: 6, k: 3, leaves: 2, flushEvery: 16, churn: 2048, variants: 8, warmup: 4}
	flatTiny = flatSize{n: 512, m: 64, s: 4, k: 3, leaves: 2, flushEvery: 16, churn: 64, variants: 2, warmup: 1}
)

type flatVariant struct {
	leaf   [][]observation // per leaf, in arrival order
	pairs  map[string]float64
	oracle oracle
}

type ingestFlat struct {
	size     flatSize
	seed     uint64
	keys     []string
	variants []flatVariant
	fp       uint64

	want []csoutlier.Sketch // sketch of each variant's exact sum

	sk    *csoutlier.Sketcher
	reg   *obs.Registry
	root  *stream.Aggregator
	addr  string
	nodes []*stream.Node
	wait  func() // for the root's Serve loop to end

	encodeNS, decodeNS float64 // codec probe, for the self-time table
	next               int64   // cycles run since build
	newSketcherMS      float64
}

func newIngestFlat(seed uint64, tiny bool) *ingestFlat {
	size := flatFull
	if tiny {
		size = flatTiny
	}
	w := &ingestFlat{size: size, seed: seed, keys: plainKeys(size.n)}
	fp := newFingerprint()
	for v := 0; v < size.variants; v++ {
		rng := newRNG(seed, uint64(100+v))
		const mode = 1800
		x := make([]float64, size.n)
		for i := range x {
			x[i] = mode
		}
		pos, dev := plant(size.n, size.s, 4000, 900, rng)
		for j, p := range pos {
			x[p] += dev[j]
		}
		// Split x across the leaves: every leaf but the last takes an
		// integer share plus noise three times the mode wide; the last
		// takes what is left, so the slices sum to x exactly.
		slices := make([][]float64, size.leaves)
		for l := range slices {
			slices[l] = make([]float64, size.n)
		}
		for i, xv := range x {
			rest := xv
			for l := 0; l < size.leaves-1; l++ {
				part := float64(int(xv)/size.leaves + rng.Intn(6*mode+1) - 3*mode)
				slices[l][i] = part
				rest -= part
			}
			slices[size.leaves-1][i] = rest
		}
		va := flatVariant{leaf: make([][]observation, size.leaves)}
		sum := make([]float64, size.n)
		for l := range slices {
			hot := zipfIndex(size.n, rng)
			list := make([]observation, 0, size.n+2*size.churn)
			for _, i := range rng.Perm(size.n) {
				list = append(list, observation{int32(i), slices[l][i]})
			}
			for c := 0; c < size.churn; c++ {
				j, d := int32(hot()), float64(1+rng.Intn(500))
				list = append(list, observation{j, d}, observation{j, -d})
			}
			rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
			for _, o := range list {
				sum[o.key] += o.val
				fp.u64(uint64(o.key))
				fp.f64(o.val)
			}
			va.leaf[l] = list
		}
		va.pairs = make(map[string]float64, size.n)
		for i, sv := range sum {
			va.pairs[w.keys[i]] = sv
		}
		va.oracle = exactOracle(w.keys, sum, size.k, false)
		w.variants = append(w.variants, va)
	}
	w.fp = fp.h
	return w
}

func (w *ingestFlat) fingerprint() uint64 { return w.fp }
func (w *ingestFlat) lanes() int          { return 1 + w.size.leaves }

func (w *ingestFlat) build(ctx context.Context, m *meter) (time.Duration, error) {
	t0 := time.Now()
	sk, err := csoutlier.NewSketcher(w.keys, csoutlier.Config{M: w.size.m, Seed: w.seed})
	if err != nil {
		return 0, err
	}
	w.newSketcherMS = float64(time.Since(t0)) / 1e6
	w.sk = sk
	w.reg = obs.NewRegistry()
	sk.Instrument(w.reg)
	if w.root, err = stream.NewAggregator(sk, stream.AggregatorOptions{Windows: 8, Metrics: w.reg}); err != nil {
		return 0, err
	}
	ln, err := m.listen()
	if err != nil {
		return 0, err
	}
	w.addr = ln.Addr().String()
	w.wait = serveOn(w.root.Serve, ln)
	w.nodes = w.nodes[:0]
	for l := 0; l < w.size.leaves; l++ {
		node, err := stream.Dial(ctx, w.addr, sk, fmt.Sprintf("leaf-%d", l), stream.NodeOptions{})
		if err != nil {
			return 0, err
		}
		w.nodes = append(w.nodes, node)
	}
	setup := time.Since(t0)

	// The expected sketches are the benchmark's oracle, not the system's
	// set-up: computed once, outside the timed part.
	if w.want == nil {
		for _, va := range w.variants {
			s, err := sk.SketchPairs(va.pairs)
			if err != nil {
				return 0, err
			}
			w.want = append(w.want, s)
		}
		w.encodeNS, w.decodeNS = probeCodec(sk, w.want[0])
	}

	w.next = 0
	t1 := time.Now()
	for i := int64(0); i < w.size.warmup; i++ {
		if err := w.cycle(ctx, m, nil); err != nil {
			return 0, err
		}
	}
	return setup + time.Since(t1), nil
}

func (w *ingestFlat) cycle(ctx context.Context, m *meter, tr *recorder) error {
	i := w.next
	w.next++
	v := int(i % int64(len(w.variants)))
	l0 := tr.lane(0)
	l0.setOp(i)
	cyc := l0.begin("bench.cycle")

	errs := make([]error, w.size.leaves)
	var wg sync.WaitGroup
	for l := 0; l < w.size.leaves; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			ln := tr.lane(1 + l)
			ln.adopt(l0.ref(cyc), i)
			errs[l] = w.leafCycle(ctx, l, w.variants[v].leaf[l], m, ln)
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	sp := l0.begin("stream.outliers_miss")
	t0 := time.Now()
	rep, err := w.root.Outliers(0, 0, w.size.k)
	d := time.Since(t0)
	l0.end(sp, 1)
	m.spanQuery.add(0, d)
	if err == nil {
		err = m.checkReport(rep, w.variants[v].oracle, w.size.k, w.size.k)
	}
	m.op(err)

	sp = l0.begin("bench.check")
	got, err := w.root.WindowSketch(0)
	if err == nil {
		err = sketchesAgree(got, w.want[v])
	}
	m.op(err)
	l0.end(sp, 1)

	sp = l0.begin("stream.rotate")
	w.root.Rotate()
	l0.end(sp, 1)
	for _, node := range w.nodes {
		sp = l0.begin("stream.sync")
		err := node.Sync(ctx)
		l0.end(sp, 1)
		if err != nil {
			return err
		}
	}
	l0.end(cyc, 1)
	return nil
}

// leafCycle is one leaf's closed loop: observe a frame's worth, flush,
// wait for the ack.
func (w *ingestFlat) leafCycle(ctx context.Context, l int, list []observation, m *meter, ln *lane) error {
	node := w.nodes[l]
	for len(list) > 0 {
		var chunk []observation
		chunk, list = nextChunk(list, w.size.flushEvery)
		sp := ln.begin("stream.node_observe")
		for _, o := range chunk {
			if err := node.Observe(w.keys[o.key], o.val); err != nil {
				return err
			}
		}
		ln.end(sp, len(chunk))
		sp = ln.begin("stream.flush")
		t0 := time.Now()
		err := node.Flush(ctx)
		m.freshness.add(1+l, time.Since(t0))
		ln.end(sp, 1)
		m.op(err)
		m.obs.Add(int64(len(chunk)))
	}
	return nil
}

// verify checks conservation: every local capture was folded at the
// root exactly once, none refused, dropped or shed away.
func (w *ingestFlat) verify(m *meter) {
	var captured, applied, bad int64
	for _, node := range w.nodes {
		st := node.Stats()
		captured += st.Captured
		applied += st.Applied
		bad += st.Rejected + st.Dropped + st.Duplicates + int64(st.Pending)
	}
	rs := w.root.Stats()
	var err error
	switch {
	case bad != 0:
		err = fmt.Errorf("conservation: %d frames rejected, dropped, duplicated or still pending", bad)
	case rs.Applied+rs.ShedFolds != captured:
		err = fmt.Errorf("conservation: root applied %d + shed folds %d != captured %d", rs.Applied, rs.ShedFolds, captured)
	case applied != captured:
		err = fmt.Errorf("conservation: leaves saw %d applied acks for %d captures", applied, captured)
	}
	m.op(err)
}

func (w *ingestFlat) close(ctx context.Context) {
	for _, node := range w.nodes {
		node.Close(ctx)
	}
	w.nodes = nil
	if w.root != nil {
		w.root.Close(ctx)
		w.wait()
		w.root = nil
	}
}

func (w *ingestFlat) carves() []carveReading {
	return append(pushCarves(w.root, "stream.flush", w.encodeNS, w.decodeNS), recoveryCarve(w.reg, "stream.outliers_miss"))
}

func (w *ingestFlat) layers(ctx context.Context, out map[string]float64) error {
	out["csoutlier.new_sketcher_ms"] = w.newSketcherMS
	aggregatorCounters(w.root, w.reg, out)
	va := w.variants[0]
	probeSketcher(w.sk, w.keys, va.leaf[0], va.pairs, w.want[0], w.size.k, out)
	if err := probeKernels(w.sk, csoutlier.Config{M: w.size.m, Seed: w.seed}, w.want[0], w.size.k, out); err != nil {
		return err
	}
	if err := probeService(ctx, w.addr, w.root, w.sk, out); err != nil {
		return err
	}
	var redials int64
	for _, node := range w.nodes {
		redials += node.Stats().Redials
	}
	out["stream.redials"] = float64(redials)
	return nil
}
