package main

import "strings"

// Per-layer metrics: module name = layer. Each is a median per call
// (ns/us/ms), an exact count, or a ratio. A workload that never touches
// a layer reports 0 for it. Sources, in the README's words: "span" is
// the median of the benchmark's own spans around calls into the layer,
// "probe" a direct call into the layer's exported function on the
// workload's inputs, "counter" a Stats()/MetricsRegistry() reading.
var layerSpecs = append([]metricSpec{
	{Name: "csoutlier.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "csoutlier.drain_us", Unit: "us", Better: "lower"},
	{Name: "csoutlier.encode_us", Unit: "us", Better: "lower"},
	{Name: "csoutlier.decode_us", Unit: "us", Better: "lower"},
	{Name: "csoutlier.sketch_bytes", Unit: "B", Better: "lower"},
	{Name: "csoutlier.add_ns", Unit: "ns", Better: "lower"},
	{Name: "csoutlier.sketch_pairs_ms", Unit: "ms", Better: "lower"},
	{Name: "csoutlier.range_us", Unit: "us", Better: "lower"},
	{Name: "csoutlier.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "csoutlier.detect_batch8_ms", Unit: "ms", Better: "lower"},
	{Name: "csoutlier.point_commit_us", Unit: "us", Better: "lower"},
	{Name: "csoutlier.point_query_ns", Unit: "ns", Better: "lower"},
	{Name: "csoutlier.new_sketcher_ms", Unit: "ms", Better: "lower"},
	{Name: "csoutlier.detect_cluster_ms", Unit: "ms", Better: "lower"},

	{Name: "sensing.measure_ms", Unit: "ms", Better: "lower"},
	{Name: "sensing.measure_sparse_us", Unit: "us", Better: "lower"},
	{Name: "sensing.correlate_ms", Unit: "ms", Better: "lower"},
	{Name: "sensing.correlate_block8_ms", Unit: "ms", Better: "lower"},
	{Name: "sensing.column_ns", Unit: "ns", Better: "lower"},
	{Name: "linalg.qr_append_us", Unit: "us", Better: "lower"},
	{Name: "linalg.mulvect_us", Unit: "us", Better: "lower"},
	{Name: "keydict.lookup_ns", Unit: "ns", Better: "lower"},

	{Name: "recovery.bomp_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.bomp_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.iterations", Unit: "count", Better: "lower"},
	{Name: "recovery.residual_rel", Unit: "ratio", Better: "lower"},
	{Name: "recovery.picks.bomp", Unit: "count", Better: "higher"},
	{Name: "recovery.picks.aiht", Unit: "count", Better: "lower"},
	{Name: "recovery.picks.dantzig", Unit: "count", Better: "lower"},
	{Name: "recovery.large_k_recall", Unit: "ratio", Better: "higher"},

	{Name: "stream.node_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.flush_us", Unit: "us", Better: "lower"},
	{Name: "stream.push_rtt_us", Unit: "us", Better: "lower"},
	{Name: "stream.push_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "stream.fold_us", Unit: "us", Better: "lower"},
	{Name: "stream.wire_ack_us", Unit: "us", Better: "lower"},
	{Name: "stream.rotate_us", Unit: "us", Better: "lower"},
	{Name: "stream.sync_us", Unit: "us", Better: "lower"},
	{Name: "stream.outliers_hit_us", Unit: "us", Better: "lower"},
	{Name: "stream.outliers_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.pointq_multi_us", Unit: "us", Better: "lower"},
	{Name: "stream.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "stream.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.frames", Unit: "count", Better: "higher"},
	{Name: "stream.applied", Unit: "count", Better: "higher"},
	{Name: "stream.duplicates", Unit: "count", Better: "lower"},
	{Name: "stream.shed_folds", Unit: "count", Better: "lower"},
	{Name: "stream.redials", Unit: "count", Better: "lower"},
	{Name: "stream.warm_starts", Unit: "count", Better: "higher"},
	{Name: "stream.batch_refreshes", Unit: "count", Better: "higher"},
	{Name: "stream.cache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "tier.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "tier.relay_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "tier.fanin_ratio", Unit: "ratio", Better: "lower"},
	{Name: "tier.router_outliers_ms", Unit: "ms", Better: "lower"},
	{Name: "tier.router_pointq_us", Unit: "us", Better: "lower"},
	{Name: "tier.route_ns", Unit: "ns", Better: "lower"},
	{Name: "tier.sharded_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "tier.sharded_flush_us", Unit: "us", Better: "lower"},

	{Name: "cluster.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.node_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.attempts", Unit: "count", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},

	// What the traced pass says about the benchmark itself.
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.spans", Unit: "count", Better: "lower"},
	{Name: "bench.slowdown", Unit: "ratio", Better: "lower"},
	{Name: "bench.share_push_path_pct", Unit: "%", Better: "lower"},
	{Name: "bench.share_recovery_pct", Unit: "%", Better: "lower"},
}, timingSpecs...)

// spanMetrics maps a span name to the per-layer metric its median per
// call feeds, and the divisor from nanoseconds to the metric's unit.
var spanMetrics = map[string]struct {
	metric string
	div    float64
}{
	"stream.node_observe":      {"stream.node_observe_ns", 1},
	"stream.flush":             {"stream.flush_us", 1e3},
	"stream.push_delta":        {"stream.push_rtt_us", 1e3},
	"stream.rotate":            {"stream.rotate_us", 1e3},
	"stream.sync":              {"stream.sync_us", 1e3},
	"stream.outliers_hit":      {"stream.outliers_hit_us", 1e3},
	"stream.outliers_miss":     {"stream.outliers_miss_ms", 1e6},
	"tier.forward":             {"tier.forward_ms", 1e6},
	"tier.relay_sync":          {"tier.relay_sync_ms", 1e6},
	"tier.router_outliers":     {"tier.router_outliers_ms", 1e6},
	"tier.router_pointq":       {"tier.router_pointq_us", 1e3},
	"tier.sharded_observe":     {"tier.sharded_observe_ns", 1},
	"tier.sharded_flush":       {"tier.sharded_flush_us", 1e3},
	"csoutlier.detect_cluster": {"csoutlier.detect_cluster_ms", 1e6},
}

// spanMedians fills out with the median per-call duration of every span
// name that feeds a per-layer metric.
func spanMedians(spans []span, out map[string]float64) {
	per := make(map[string][]float64)
	for _, s := range spans {
		if _, ok := spanMetrics[s.Name]; ok && s.N > 0 {
			per[s.Name] = append(per[s.Name], float64(s.End-s.Start)/float64(s.N))
		}
	}
	for name, v := range per {
		sm := spanMetrics[name]
		out[sm.metric] = median(v) / sm.div
	}
}

// layerShares returns the share of traced self time spent in the push
// path (stream.* plus the codec and single-key update under it) and in
// recovery (recovery.*, sensing.*, linalg.*) — what each workload was
// chosen to stress, as a number the acceptance test can read.
func layerShares(layers map[string]*layerTime) (push, rec float64) {
	var total, pushNS, recNS int64
	for name, lt := range layers {
		total += lt.Self
		switch {
		case strings.HasPrefix(name, "stream."), name == "csoutlier.encode", name == "csoutlier.decode", name == "csoutlier.observe":
			pushNS += lt.Self
		case strings.HasPrefix(name, "recovery."), strings.HasPrefix(name, "sensing."), strings.HasPrefix(name, "linalg."):
			recNS += lt.Self
		}
	}
	return share(pushNS, total), share(recNS, total)
}
