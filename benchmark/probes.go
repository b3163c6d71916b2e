package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"csoutlier"
	"csoutlier/internal/keydict"
	"csoutlier/internal/linalg"
	"csoutlier/internal/obs"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
	"csoutlier/internal/stream"
)

// Layer probes: direct calls into a layer's exported functions on the
// workload's own inputs, for layers the driver only reaches through
// another layer (the codec inside Flush, Correlate inside Outliers).
// They run after the traced pass, on the run's own Sketcher and data, so
// a probe's number and the span it explains see the same shapes.

const probeSamples = 15

// probeSketcher times the public sketch surface: single-key updates,
// drain, the wire codec, sums, batch measurement, window ranges, cold
// and batched detection and, for count-sketch, the point path.
func probeSketcher(sk *csoutlier.Sketcher, keys []string, list []observation, pairs map[string]float64, global csoutlier.Sketch, k int, out map[string]float64) {
	u := sk.NewUpdater()
	next := 0
	out["csoutlier.observe_ns"] = timeCalls(probeSamples, 256, func() {
		o := list[next%len(list)]
		next++
		u.Observe(keys[o.key], o.val)
	})
	dst := sk.ZeroSketch()
	out["csoutlier.drain_us"] = timeCalls(probeSamples, 16, func() { u.DrainInto(dst) }) / 1e3

	payload, _ := global.MarshalBinary()
	out["csoutlier.sketch_bytes"] = float64(len(payload))
	enc, dec := probeCodec(sk, global)
	out["csoutlier.encode_us"], out["csoutlier.decode_us"] = enc/1e3, dec/1e3
	acc := sk.ZeroSketch()
	out["csoutlier.add_ns"] = timeCalls(probeSamples, 256, func() { acc.Add(global) })
	out["csoutlier.sketch_pairs_ms"] = timeCalls(5, 1, func() { sk.SketchPairs(pairs) }) / 1e6

	ws, err := sk.NewWindowStore(4)
	if err == nil {
		for age := 0; age < 4; age++ {
			ws.AddSketch(0, global)
			if age < 3 {
				ws.Rotate()
			}
		}
		out["csoutlier.range_us"] = timeCalls(probeSamples, 16, func() { ws.RangeInto(0, 3, dst) }) / 1e3
	}

	var rep *csoutlier.Report
	out["csoutlier.detect_ms"] = timeCalls(7, 1, func() { rep, _ = sk.Detect(global, k) }) / 1e6
	if rep != nil {
		if norm := linalg.Vector(global.Y).Norm2(); norm > 0 {
			out["recovery.residual_rel"] = rep.Residual / norm
		}
	}
	batch := make([]csoutlier.BatchQuery, 8)
	for i := range batch {
		batch[i] = csoutlier.BatchQuery{Global: global, K: k}
	}
	out["csoutlier.detect_batch8_ms"] = timeCalls(5, 1, func() { sk.DetectBatch(batch) }) / 1e6

	if ps, err := sk.NewPointState(); err == nil {
		copy(ps.Sketch().Y, global.Y)
		out["csoutlier.point_commit_us"] = timeCalls(probeSamples, 4, func() { ps.Commit() }) / 1e3
		next = 0
		out["csoutlier.point_query_ns"] = timeCalls(probeSamples, 1024, func() {
			ps.Query(keys[next%len(keys)], 0)
			next++
		})
	}
}

// probeCodec returns the median encode and decode time of one sketch
// frame, in nanoseconds.
func probeCodec(sk *csoutlier.Sketcher, s csoutlier.Sketch) (encodeNS, decodeNS float64) {
	payload, _ := s.MarshalBinary()
	encodeNS = timeCalls(probeSamples, 16, func() { s.MarshalBinary() })
	decodeNS = timeCalls(probeSamples, 16, func() { sk.UnmarshalSketch(payload) })
	return encodeNS, decodeNS
}

// recoveryCarve reads, from an instrumented Sketcher's own histograms,
// the recovery time spent inside span queries.
func recoveryCarve(reg *obs.Registry, querySpan string) carveReading {
	return carveReading{querySpan, "recovery.solve", recoverySeconds(reg) * 1e9, reg.Counter("recovery_detects_total", "").Value()}
}

// pushCarves reads what an aggregator knows about time spent below a
// push round trip: the fold (its histogram's mean) and the frame codec
// (the codec probe), each times the frames applied.
func pushCarves(agg *stream.Aggregator, pushSpan string, encodeNS, decodeNS float64) []carveReading {
	applied := agg.Stats().Applied
	fold, _ := histMean(agg.MetricsRegistry(), "stream_fold_seconds")
	frames := float64(applied)
	return []carveReading{
		{pushSpan, "stream.fold", fold * 1e9 * frames, applied},
		{pushSpan, "csoutlier.encode", encodeNS * frames, applied},
		{pushSpan, "csoutlier.decode", decodeNS * frames, applied},
	}
}

// probeKernels times the layers under recovery on the run's own shape:
// the measurement matrix (built again from the same consensus, since the
// Sketcher keeps its own private), the incremental QR, the dense
// transpose product, the dictionary and a cold and a warm BOMP.
func probeKernels(sk *csoutlier.Sketcher, cfg csoutlier.Config, global csoutlier.Sketch, k int, out map[string]float64) error {
	spec := sensing.Spec{Params: sensing.Params{M: sk.M(), N: sk.N(), Seed: cfg.Seed}, Kind: sensing.KindGaussian}
	if cfg.Ensemble == csoutlier.CountSketch {
		spec.Kind, spec.D = sensing.KindCountSketch, cfg.Depth
	}
	mat, err := sensing.New(spec, 4e7)
	if err != nil {
		return fmt.Errorf("probe matrix: %w", err)
	}
	m, n := sk.M(), sk.N()
	y := linalg.Vector(global.Y)

	x := make(linalg.Vector, n)
	for i := range x {
		x[i] = float64(i%97) - 48
	}
	ym := make(linalg.Vector, m)
	out["sensing.measure_ms"] = timeCalls(5, 1, func() { mat.Measure(x, ym) }) / 1e6
	idx, vals := make([]int, 16), make([]float64, 16)
	for i := range idx {
		idx[i], vals[i] = (i*7919)%n, float64(i+1)
	}
	out["sensing.measure_sparse_us"] = timeCalls(probeSamples, 16, func() { mat.MeasureSparse(idx, vals, ym) }) / 1e3
	corr := make(linalg.Vector, n)
	out["sensing.correlate_ms"] = timeCalls(7, 1, func() { mat.Correlate(y, corr) }) / 1e6
	rs, dsts := make([]linalg.Vector, 8), make([]linalg.Vector, 8)
	for i := range rs {
		rs[i], dsts[i] = y, make(linalg.Vector, n)
	}
	out["sensing.correlate_block8_ms"] = timeCalls(5, 1, func() { sensing.CorrelateBlock(mat, rs, dsts) }) / 1e6
	col := make(linalg.Vector, m)
	next := 0
	out["sensing.column_ns"] = timeCalls(probeSamples, 256, func() {
		mat.Col(next%n, col)
		next++
	})

	budget := recovery.IterationBudget(k)
	if budget > m {
		budget = m
	}
	qr := linalg.NewIncrementalQR(m)
	out["linalg.qr_append_us"] = timeCalls(5, 1, func() {
		qr.Reset(m)
		qr.SetTarget(y)
		for j := 0; j < budget; j++ {
			qr.Append(mat.Col((j*7919)%n, col))
		}
	}) / 1e3 / float64(budget)
	dense := linalg.NewMatrix(m, 1024)
	for i := 0; i < m; i++ {
		row := dense.Row(i)
		for j := range row {
			row[j] = float64((i+j)%13) - 6
		}
	}
	dt := make(linalg.Vector, 1024)
	out["linalg.mulvect_us"] = timeCalls(probeSamples, 4, func() { dense.MulVecT(y, dt) }) / 1e3

	dict := keydict.FromSorted(sk.Keys())
	keys := sk.Keys()
	next = 0
	out["keydict.lookup_ns"] = timeCalls(probeSamples, 1024, func() {
		dict.Index(keys[(next*7919)%n])
		next++
	})

	opt := recovery.Options{MaxIterations: recovery.IterationBudget(k)}
	var sel []int
	out["recovery.bomp_cold_ms"] = timeCalls(5, 1, func() {
		if res, err := recovery.BOMP(mat, y, opt); err == nil {
			sel = res.Selection
		}
	}) / 1e6
	wsp := recovery.NewWorkspace()
	out["recovery.bomp_warm_ms"] = timeCalls(5, 1, func() { wsp.BOMPWarm(mat, y, sel, opt) }) / 1e6
	return nil
}

// probeService times what an aggregator does for its callers besides
// answering queries: the stop-and-wait exchange itself (all-zero deltas
// through a raw Client — they fold to nothing, so the windows stay
// exact) and snapshot capture, encode and restore. wire_ack is what is
// left of the round trip once the codec and the fold are taken out:
// syscalls, gob framing, loopback and the ack's way back.
func probeService(ctx context.Context, addr string, agg *stream.Aggregator, sk *csoutlier.Sketcher, out map[string]float64) error {
	if err := probePush(ctx, addr, sk, out); err != nil {
		return err
	}
	if err := probeSnapshot(agg, sk, out); err != nil {
		return err
	}
	v := out["stream.push_rtt_us"] - out["stream.fold_us"] - out["csoutlier.encode_us"] - out["csoutlier.decode_us"]
	out["stream.wire_ack_us"] = math.Max(v, 0)
	return nil
}

func probePush(ctx context.Context, addr string, sk *csoutlier.Sketcher, out map[string]float64) error {
	c, err := stream.DialClient(ctx, addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	ack, err := c.Hello("bench-probe", 1)
	if err != nil {
		return err
	}
	payload, err := sk.ZeroSketch().MarshalBinary()
	if err != nil {
		return err
	}
	const n = 400
	rtt := make([]int64, 0, n)
	for seq := uint64(1); seq <= n; seq++ {
		t0 := time.Now()
		a, err := c.PushDelta("bench-probe", 1, ack.Window, seq, 1, payload)
		rtt = append(rtt, int64(time.Since(t0)))
		if err != nil {
			return err
		}
		if !a.Applied {
			return fmt.Errorf("probe frame %d not applied: %+v", seq, a)
		}
	}
	sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })
	out["stream.push_rtt_us"] = quantile(rtt, 0.50) / 1e3
	out["stream.push_rtt_p99_us"] = quantile(rtt, 0.99) / 1e3
	return nil
}

// probeSnapshot times capture, encode and restore of the aggregator's
// fold state.
func probeSnapshot(agg *stream.Aggregator, sk *csoutlier.Sketcher, out map[string]float64) error {
	var snap *stream.Snapshot
	var err error
	out["stream.snapshot_ms"] = timeCalls(5, 1, func() { snap, err = agg.Snapshot() }) / 1e6
	if err != nil {
		return err
	}
	blob, err := snap.MarshalBinary()
	if err != nil {
		return err
	}
	out["stream.snapshot_bytes"] = float64(len(blob))
	ctx := context.Background()
	out["stream.restore_ms"] = timeCalls(3, 1, func() {
		var dec *stream.Snapshot
		if dec, err = stream.DecodeSnapshot(blob); err != nil {
			return
		}
		var restored *stream.Aggregator
		if restored, err = stream.RestoreAggregator(sk, stream.AggregatorOptions{}, dec); err == nil {
			restored.Close(ctx)
		}
	}) / 1e6
	return err
}

// histMean reads a histogram the program already keeps: mean seconds
// per observation and how many there were.
func histMean(reg *obs.Registry, name string) (mean float64, count int64) {
	h := reg.Histogram(name, "", nil)
	if count = h.Count(); count > 0 {
		mean = h.Sum() / float64(count)
	}
	return mean, count
}

// aggregatorCounters copies the stream and recovery counters the
// aggregator and its instrumented Sketcher keep in reg.
func aggregatorCounters(agg *stream.Aggregator, reg *obs.Registry, out map[string]float64) {
	st := agg.Stats()
	if mean, n := histMean(agg.MetricsRegistry(), "stream_fold_seconds"); n > 0 {
		out["stream.fold_us"] = mean * 1e6
	}
	out["stream.frames"] += float64(st.Frames)
	out["stream.applied"] += float64(st.Applied)
	out["stream.duplicates"] += float64(st.Duplicates)
	out["stream.shed_folds"] += float64(st.ShedFolds)
	out["stream.warm_starts"] += float64(st.WarmStarts)
	out["stream.batch_refreshes"] += float64(st.BatchRefreshes)
	if q := st.CacheHits + st.CacheMisses; q > 0 {
		out["stream.cache_hit_ratio"] = float64(st.CacheHits) / float64(q)
	}
	recoveryCounters(reg, out)
}

// recoveryCounters reads the selector's picks and the mean greedy
// iterations per query from an instrumented Sketcher's registry.
func recoveryCounters(reg *obs.Registry, out map[string]float64) {
	picks := reg.CounterVec("recovery_solver_picks_total", "", "solver")
	for _, s := range []string{"bomp", "aiht", "dantzig"} {
		out["recovery.picks."+s] += float64(picks.With(s).Value())
	}
	if mean, n := histMean(reg, "recovery_detect_iterations"); n > 0 {
		out["recovery.iterations"] = mean
	}
}

// recoverySeconds is the wall time the instrumented Sketcher says its
// recovery passes took: the cold Detect path plus the batched engine.
func recoverySeconds(reg *obs.Registry) float64 {
	return reg.Histogram("recovery_detect_seconds", "", nil).Sum() +
		reg.Histogram("recovery_batch_seconds", "", nil).Sum()
}
