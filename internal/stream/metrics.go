package stream

import (
	"sync"
	"time"

	"csoutlier/internal/obs"
)

// aggMetrics is the aggregator's registry-backed instrumentation — the
// single source of truth for every counter AggStats reports. The hot
// fold path touches only pre-resolved counters and one histogram, all
// lock-free; per-node liveness is exported as labeled gauges refreshed
// at scrape time (OnScrape) rather than maintained per frame.
type aggMetrics struct {
	reg *obs.Registry

	conns          *obs.Counter
	malformed      *obs.Counter
	hellos         *obs.Counter
	frames         *obs.Counter
	applied        *obs.Counter
	duplicates     *obs.Counter
	dropped        *obs.Counter
	rejected       *obs.Counter
	rotations      *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	warmStarts     *obs.Counter
	batchRefreshes *obs.Counter
	foldSeconds    *obs.Histogram

	pointQueries   *obs.Counter
	pointRefreshes *obs.Counter
	pointOutliers  *obs.Counter
	pointSeconds   *obs.Histogram

	pointRemoteQueries *obs.Counter
	pointRemoteKeys    *obs.Counter
	pointRemoteErrors  *obs.Counter
	pointRemoteSeconds *obs.Histogram

	snapshots       *obs.Counter
	snapshotErrors  *obs.Counter
	snapshotBytes   *obs.Gauge
	snapshotSeconds *obs.Histogram

	joins     *obs.Counter
	leaves    *obs.Counter
	evictions *obs.Counter

	shedFrames *obs.Counter
	shedFolds  *obs.Counter

	pairFrames   *obs.Counter
	sketchFrames *obs.Counter

	nodeLag      *obs.GaugeVec
	nodeLastSeen *obs.GaugeVec
	nodeEpoch    *obs.GaugeVec
	nodeRestarts *obs.GaugeVec
	nodeFrames   *obs.GaugeVec

	// exported tracks which node names currently have per-node series,
	// so the scrape refresh can retire series of nodes that left or were
	// evicted instead of leaking them forever.
	exportedMu sync.Mutex
	exported   map[string]struct{}
}

// newAggMetrics registers the streaming aggregator's metric families in
// reg and binds the scrape-time views of a's live state.
func newAggMetrics(reg *obs.Registry, a *Aggregator) *aggMetrics {
	outcomes := reg.CounterVec("stream_frame_outcomes_total",
		"delta frames by fold outcome", "outcome")
	cache := reg.CounterVec("stream_recovery_cache_total",
		"outlier queries by recovery-cache result", "result")
	membership := reg.CounterVec("stream_membership_events_total",
		"membership changes by kind (join covers first contact and rejoin)", "event")
	encodings := reg.CounterVec("stream_delta_frames_total",
		"applied delta frames by payload encoding: pairs are measured here, at the fold; sketches were measured by the sender", "encoding")
	m := &aggMetrics{
		reg:      reg,
		exported: make(map[string]struct{}),
		conns: reg.Counter("stream_connections_total",
			"node connections accepted"),
		malformed: reg.Counter("stream_malformed_frames_total",
			"connections closed on input that is not the push protocol: unknown version or kind, oversized, truncated or unparseable frame"),
		hellos: reg.Counter("stream_hellos_total",
			"hello frames answered"),
		frames: reg.Counter("stream_frames_total",
			"delta frames processed (all outcomes)"),
		applied:    outcomes.With("applied"),
		duplicates: outcomes.With("duplicate"),
		dropped:    outcomes.With("dropped"),
		rejected:   outcomes.With("rejected"),
		rotations: reg.Counter("stream_rotations_total",
			"window rotations"),
		cacheHits:   cache.With("hit"),
		cacheMisses: cache.With("miss"),
		warmStarts: reg.Counter("stream_warm_starts_total",
			"outlier recoveries warm-started from a previous generation's selection"),
		batchRefreshes: reg.Counter("stream_batch_refreshes_total",
			"stale standing queries refreshed by piggybacking on another query's recovery batch"),
		foldSeconds: reg.Histogram("stream_fold_seconds",
			"work per delta frame: decoding (and measuring a pairs payload) outside the ingest mutex plus the locked fold, not the wait for the mutex (sampled: first frame, then 1 in 16)", obs.LatencyBuckets()),
		// The pointq_* families are registered unconditionally — on a
		// non-count-sketch backend every PointQuery errors, but the
		// families still exist (at zero), so a scrape checker can
		// require them regardless of the configured ensemble.
		pointQueries: reg.Counter("pointq_queries_total",
			"recovery-free point queries answered (all outcomes)"),
		pointRefreshes: reg.Counter("pointq_refreshes_total",
			"point-state rebuilds: a query found its span's committed sketch stale and re-folded it from the ring"),
		pointOutliers: reg.Counter("pointq_outliers_total",
			"point queries whose key deviated from the span mode by at least the caller's threshold"),
		pointSeconds: reg.Histogram("pointq_seconds",
			"wall time answering one point query (sampled: first query, then 1 in 256)", obs.LatencyBuckets()),
		// pointq_remote_* counts the wire-RPC form of the same queries
		// (pushPointQuery frames). Also unconditional: the families must
		// exist at zero on an aggregator no client ever queries.
		pointRemoteQueries: reg.Counter("pointq_remote_queries_total",
			"point-query RPC frames answered on the push listener"),
		pointRemoteKeys: reg.Counter("pointq_remote_keys_total",
			"watch-list keys answered across all point-query RPC frames"),
		pointRemoteErrors: reg.Counter("pointq_remote_errors_total",
			"point-query RPC frames answered with a query-level error"),
		pointRemoteSeconds: reg.Histogram("pointq_remote_seconds",
			"wall time answering one point-query RPC frame (every frame; remote queries are rare)", obs.LatencyBuckets()),
		snapshots: reg.Counter("stream_snapshot_commits_total",
			"snapshots committed (nodes' stable watermarks advanced)"),
		snapshotErrors: reg.Counter("stream_snapshot_errors_total",
			"snapshot write attempts that failed"),
		snapshotBytes: reg.Gauge("stream_snapshot_bytes",
			"size of the last snapshot written to disk"),
		snapshotSeconds: reg.Histogram("stream_snapshot_seconds",
			"fold pause capturing one snapshot (the ingest.mu critical section plus encode)", obs.LatencyBuckets()),
		joins:     membership.With("join"),
		leaves:    membership.With("leave"),
		evictions: membership.With("evict"),
		shedFrames: reg.Counter("stream_shed_frames_total",
			"applied frames that were node-side merges of more than one local capture"),
		shedFolds: reg.Counter("stream_shed_folds_total",
			"extra local captures carried by shed frames (sum of folds-1); applied frames + shed folds = captures folded"),
		pairFrames:   encodings.With("pairs"),
		sketchFrames: encodings.With("sketch"),
		nodeLag: reg.GaugeVec("stream_node_lag_windows",
			"windows the node's latest applied delta trails the current window", "node"),
		nodeLastSeen: reg.GaugeVec("stream_node_last_seen_age_seconds",
			"seconds since the node's last frame", "node"),
		nodeEpoch: reg.GaugeVec("stream_node_epoch",
			"node's latest announced incarnation", "node"),
		nodeRestarts: reg.GaugeVec("stream_node_restarts",
			"epoch bumps observed for the node", "node"),
		nodeFrames: reg.GaugeVec("stream_node_frames",
			"node's delta frames by fold outcome", "node", "outcome"),
	}
	reg.GaugeFunc("stream_window",
		"current window ID",
		func() float64 { return float64(a.CurrentWindow()) })
	reg.GaugeFunc("stream_nodes",
		"live member nodes",
		func() float64 { return float64(a.LiveNodes()) })
	reg.GaugeFunc("stream_membership_version",
		"membership configuration version (bumped on join/leave/evict)",
		func() float64 { return float64(a.MembershipVersion()) })
	reg.GaugeFunc("stream_membership_tombstones",
		"retired (left/evicted) node states held for dedup",
		func() float64 {
			a.in.mu.Lock()
			defer a.in.mu.Unlock()
			return float64(len(a.in.members.tombs))
		})
	reg.GaugeFunc("stream_agg_epoch",
		"aggregator incarnation number (bumped on snapshot restore)",
		func() float64 { return float64(a.Epoch()) })
	reg.OnScrape(func() {
		now := time.Now()
		m.exportedMu.Lock()
		defer m.exportedMu.Unlock()
		live := make(map[string]struct{})
		for _, ns := range a.Nodes() {
			if ns.State != StateLive {
				continue // retired nodes keep their tombstone, not their series
			}
			live[ns.Node] = struct{}{}
			m.exported[ns.Node] = struct{}{}
			m.nodeLag.With(ns.Node).SetInt(int64(ns.Lag))
			m.nodeLastSeen.With(ns.Node).Set(now.Sub(ns.LastSeen).Seconds())
			m.nodeEpoch.With(ns.Node).SetInt(int64(ns.Epoch))
			m.nodeRestarts.With(ns.Node).SetInt(ns.Restarts)
			m.nodeFrames.With(ns.Node, "applied").SetInt(ns.Applied)
			m.nodeFrames.With(ns.Node, "duplicate").SetInt(ns.Duplicates)
			m.nodeFrames.With(ns.Node, "dropped").SetInt(ns.Dropped)
			m.nodeFrames.With(ns.Node, "rejected").SetInt(ns.Rejected)
		}
		for node := range m.exported {
			if _, ok := live[node]; ok {
				continue
			}
			delete(m.exported, node)
			m.nodeLag.Remove(node)
			m.nodeLastSeen.Remove(node)
			m.nodeEpoch.Remove(node)
			m.nodeRestarts.Remove(node)
			for _, outcome := range []string{"applied", "duplicate", "dropped", "rejected"} {
				m.nodeFrames.Remove(node, outcome)
			}
		}
	})
	return m
}

// RegisterMetrics exports the node's streaming counters (NodeStats) as
// gauges in reg, refreshed at scrape time — the client-side counterpart
// of the aggregator's stream_* families, used by csnode -push.
func (n *Node) RegisterMetrics(reg *obs.Registry) {
	window := reg.Gauge("stream_client_window", "node's current window view")
	pending := reg.Gauge("stream_client_pending_frames", "captured frames not yet acknowledged")
	captured := reg.Gauge("stream_client_captured_frames", "delta frames captured from the standing sketch")
	acked := reg.Gauge("stream_client_acked_frames", "frames acknowledged (any status)")
	applied := reg.Gauge("stream_client_applied_frames", "frames the aggregator folded")
	redials := reg.Gauge("stream_client_redials", "connections re-established")
	rotations := reg.Gauge("stream_client_rotations", "window advances adopted from acks")
	merged := reg.Gauge("stream_client_merged_captures", "captures folded into a pending frame under backpressure (shed mode)")
	retained := reg.Gauge("stream_client_retained_frames", "acked frames held for replay until the aggregator declares them durable")
	replayed := reg.Gauge("stream_client_replayed_frames", "retained frames requeued after an aggregator restore")
	retainDropped := reg.Gauge("stream_client_retain_dropped_frames", "retained frames discarded at the retention cap")
	reg.OnScrape(func() {
		s := n.Stats()
		window.SetInt(int64(s.Window))
		pending.SetInt(int64(s.Pending))
		captured.SetInt(s.Captured)
		acked.SetInt(s.Acked)
		applied.SetInt(s.Applied)
		redials.SetInt(s.Redials)
		rotations.SetInt(s.Rotations)
		merged.SetInt(s.Merged)
		retained.SetInt(int64(s.Retained))
		replayed.SetInt(s.Replayed)
		retainDropped.SetInt(s.RetainDropped)
	})
}
