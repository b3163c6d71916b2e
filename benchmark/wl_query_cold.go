package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"csoutlier"
	"csoutlier/internal/obs"
	"csoutlier/internal/stream"
)

// query_cold: recovery does the work, the push path under 1%. One root;
// every op pushes one pre-encoded delta through a raw Client (which
// stales the recovery cache) and then asks the same k-outlier span cold.
// Non-outlier keys are jittered around the mode (the heavy-noise shape),
// so the data is only approximately sparse.
//
// The script has a period of one window of perWindow dense deltas. With
// the ring warmed, the span of `span` windows always holds (span-1) whole
// windows plus the open window's prefix, so the exact answer to op j
// depends on j mod perWindow only and is computed once, when the inputs
// are generated.

type coldSize struct {
	n, m, s, k int
	perWindow  int
	span       int // windows the query covers
	warmup     int
}

var (
	coldFull = coldSize{n: 4096, m: 384, s: 24, k: 15, perWindow: 64, span: 4, warmup: 8}
	coldTiny = coldSize{n: 512, m: 128, s: 6, k: 4, perWindow: 8, span: 2, warmup: 2}
)

const coldRing = 8

type coldStep struct {
	payload []byte // the delta, already in the sketch codec
	pairs   int    // key-value pairs the delta measures
	oracle  oracle
	want    csoutlier.Sketch // sketch of the exact span content after this step
}

type queryCold struct {
	size  coldSize
	seed  uint64
	keys  []string
	steps []coldStep
	fp    uint64

	decodeNS float64

	sk     *csoutlier.Sketcher
	reg    *obs.Registry
	root   *stream.Aggregator
	addr   string
	wait   func()
	client *stream.Client
	window uint64
	seq    uint64
	pushed int64

	next          int64
	newSketcherMS float64
}

func (w *queryCold) config() csoutlier.Config { return csoutlier.Config{M: w.size.m, Seed: w.seed} }

func newQueryCold(seed uint64, tiny bool) workload {
	size := coldFull
	if tiny {
		size = coldTiny
	}
	w := &queryCold{size: size, seed: seed, keys: plainKeys(size.n)}
	rng := newRNG(seed, 200)
	fp := newFingerprint()
	// Every delta gives every key its share of the mode with jitter a
	// fifth of the share wide, and every planted key its share of a
	// deviation ladder: the deltas are all the same size (so an op always
	// ingests n pairs), and a window's jitter adds up to a heavy-noise
	// floor under outliers that grow with every delta.
	const share, jitter = 16, 3
	pos, dev := plant(size.n, size.s, 10, 2, rng)
	// Open a gap in the ladder under the k largest, so which keys are the
	// exact top-k never hangs on a near-tie the jitter could flip.
	for o, d := range dev {
		if math.Abs(d) >= float64(10+2*(size.s-size.k)) {
			dev[o] = d + math.Copysign(12, d)
		}
	}
	deltas := make([][]float64, size.perWindow)
	for j := range deltas {
		d := make([]float64, size.n)
		for i := range d {
			d[i] = float64(share + rng.Intn(2*jitter+1) - jitter)
		}
		for o, p := range pos {
			d[p] = share + dev[o] + float64(rng.Intn(3)-1)
		}
		deltas[j] = d
	}

	// The generator's own Sketcher only encodes the deltas and the
	// expected span sketches; the system under test builds its own.
	sk, err := csoutlier.NewSketcher(w.keys, w.config())
	if err != nil {
		panic(err) // sizes are constants: only a bug gets here
	}
	whole := make([]float64, size.n) // one window's total
	for _, d := range deltas {
		for i, v := range d {
			whole[i] += v
		}
	}
	x := make([]float64, size.n) // (span-1) whole windows + the open prefix
	for i, v := range whole {
		x[i] = float64(size.span-1) * v
	}
	for j, d := range deltas {
		pairs := make(map[string]float64, len(d))
		for i, v := range d {
			pairs[w.keys[i]] = v
			x[i] += v
			fp.f64(v)
		}
		ds, err := sk.SketchPairs(pairs)
		if err != nil {
			panic(err)
		}
		payload, err := ds.MarshalBinary()
		if err != nil {
			panic(err)
		}
		exact := make(map[string]float64, size.n)
		for i, v := range x {
			exact[w.keys[i]] = v
		}
		want, err := sk.SketchPairs(exact)
		if err != nil {
			panic(err)
		}
		w.steps = append(w.steps, coldStep{
			payload: payload, pairs: len(d), want: want,
			oracle: exactOracle(w.keys, x, size.k, true),
		})
		if j == 0 {
			_, w.decodeNS = probeCodec(sk, ds)
		}
	}
	w.fp = fp.h
	return w
}

func (w *queryCold) fingerprint() uint64 { return w.fp }
func (w *queryCold) lanes() int          { return 1 }

func (w *queryCold) build(ctx context.Context, m *meter) (time.Duration, error) {
	t0 := time.Now()
	sk, err := csoutlier.NewSketcher(w.keys, w.config())
	if err != nil {
		return 0, err
	}
	w.newSketcherMS = float64(time.Since(t0)) / 1e6
	w.sk = sk
	w.reg = obs.NewRegistry()
	sk.Instrument(w.reg)
	if w.root, err = stream.NewAggregator(sk, stream.AggregatorOptions{Windows: coldRing, Metrics: w.reg}); err != nil {
		return 0, err
	}
	ln, err := m.listen()
	if err != nil {
		return 0, err
	}
	w.addr = ln.Addr().String()
	w.wait = serveOn(w.root.Serve, ln)
	if w.client, err = stream.DialClient(ctx, w.addr, 10*time.Second); err != nil {
		return 0, err
	}
	ack, err := w.client.Hello("pusher", 1)
	if err != nil {
		return 0, err
	}
	w.window, w.seq, w.pushed, w.next = ack.Window, 0, 0, 0

	// Warm the ring: span-1 whole windows pushed without queries, then a
	// few full ops so pools, workspaces and the cache entry exist.
	for win := 0; win < w.size.span-1; win++ {
		for j := range w.steps {
			if err := w.push(j, m, nil); err != nil {
				return 0, err
			}
		}
		w.window = w.root.Rotate()
	}
	for i := 0; i < w.size.warmup; i++ {
		if err := w.cycle(ctx, m, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// push ships step j's delta and waits for the ack that says it folded.
func (w *queryCold) push(j int, m *meter, ln *lane) error {
	st := w.steps[j]
	w.seq++
	sp := ln.begin("stream.push_delta")
	t0 := time.Now()
	ack, err := w.client.PushDelta("pusher", 1, w.window, w.seq, 1, st.payload)
	d := time.Since(t0)
	ln.end(sp, 1)
	if err != nil {
		return err // a poisoned connection ends the run
	}
	m.freshness.add(0, d)
	m.obs.Add(int64(st.pairs))
	w.pushed++
	if !ack.Applied {
		err = fmt.Errorf("delta %d not applied: %+v", w.seq, ack)
	}
	m.op(err)
	return nil
}

func (w *queryCold) cycle(ctx context.Context, m *meter, tr *recorder) error {
	i := w.next
	w.next++
	j := int(i % int64(w.size.perWindow))
	l0 := tr.lane(0)
	l0.setOp(i)
	cyc := l0.begin("bench.cycle")
	if err := w.push(j, m, l0); err != nil {
		return err
	}

	sp := l0.begin("stream.outliers_miss")
	t0 := time.Now()
	rep, err := w.root.Outliers(0, w.size.span-1, w.size.k)
	d := time.Since(t0)
	l0.end(sp, 1)
	m.spanQuery.add(0, d)
	if err == nil {
		err = m.checkReport(rep, w.steps[j].oracle, w.size.k, w.size.k-w.size.k/5)
	}
	m.op(err)

	sp = l0.begin("bench.check")
	got, err := w.root.RangeSketch(0, w.size.span-1)
	if err == nil {
		err = sketchesAgree(got, w.steps[j].want)
	}
	m.op(err)
	l0.end(sp, 1)

	if j == w.size.perWindow-1 {
		sp = l0.begin("stream.rotate")
		w.window = w.root.Rotate()
		l0.end(sp, 1)
	}
	l0.end(cyc, 1)
	return nil
}

func (w *queryCold) verify(m *meter) {
	st := w.root.Stats()
	var err error
	if st.Applied != w.pushed || st.Duplicates+st.Dropped+st.Rejected != 0 {
		err = fmt.Errorf("conservation: pushed %d, root applied %d, duplicates %d, dropped %d, rejected %d",
			w.pushed, st.Applied, st.Duplicates, st.Dropped, st.Rejected)
	}
	m.op(err)
}

func (w *queryCold) carves() []carveReading {
	return append(pushCarves(w.root, "stream.push_delta", 0, w.decodeNS), recoveryCarve(w.reg, "stream.outliers_miss"))
}

func (w *queryCold) close(ctx context.Context) {
	if w.client != nil {
		w.client.Close()
		w.client = nil
	}
	if w.root != nil {
		w.root.Close(ctx)
		w.wait()
		w.root = nil
	}
}

func (w *queryCold) layers(ctx context.Context, out map[string]float64) error {
	out["csoutlier.new_sketcher_ms"] = w.newSketcherMS
	aggregatorCounters(w.root, w.reg, out)
	last := w.steps[len(w.steps)-1]
	pairs := make(map[string]float64, w.size.n)
	list := make([]observation, w.size.n)
	for i, key := range w.keys {
		pairs[key] = float64(1000 + i%7)
		list[i] = observation{int32(i), pairs[key]}
	}
	probeSketcher(w.sk, w.keys, list, pairs, last.want, w.size.k, out)
	if err := probeKernels(w.sk, w.config(), last.want, w.size.k, out); err != nil {
		return err
	}
	return probeService(ctx, w.addr, w.root, w.sk, out)
}
