package tier

import "csoutlier/internal/obs"

// relayMetrics exports the tier_* families: the relay's upward
// counters as scrape-time gauges over RelayStats (the leaf-facing
// stream_* families come from the embedded aggregator's own registry
// wiring), plus one live histogram for forward-cycle latency. All
// families are registered unconditionally at zero so a scrape checker
// can require them on any relay.
type relayMetrics struct {
	forwardSeconds *obs.Histogram
}

func newRelayMetrics(reg *obs.Registry, r *Relay) *relayMetrics {
	m := &relayMetrics{
		forwardSeconds: reg.Histogram("tier_forward_seconds",
			"wall time of one Forward cycle (snapshot commit + upstream drain)", obs.LatencyBuckets()),
	}
	forwards := reg.Gauge("tier_forwards_total", "completed forward cycles")
	forwardErrors := reg.Gauge("tier_forward_errors_total", "forward cycles that failed (snapshot or drain)")
	framesStaged := reg.Gauge("tier_frames_staged_total", "upward frames created (seq assigned at snapshot capture)")
	foldsStaged := reg.Gauge("tier_folds_staged_total", "leaf captures carried by staged upward frames")
	framesCommitted := reg.Gauge("tier_frames_committed_total", "staged frames released to the send queue by a snapshot commit")
	outcomes := reg.GaugeVec("tier_up_frames_total", "upward frames by parent fold outcome", "outcome")
	applied := outcomes.With("applied")
	duplicates := outcomes.With("duplicate")
	dropped := outcomes.With("dropped")
	rejected := outcomes.With("rejected")
	replayed := reg.Gauge("tier_replayed_frames_total", "retained upward frames requeued after a parent restore")
	retainDropped := reg.Gauge("tier_retain_dropped_frames_total", "retained upward frames discarded at the retention cap; a parent restore could lose each")
	redials := reg.Gauge("tier_redials_total", "upstream connections re-established")
	unstable := reg.Gauge("tier_unstable_windows", "windows with accumulated-but-unsnapshotted upward deltas")
	staged := reg.Gauge("tier_staged_frames", "upward frames waiting for a snapshot commit")
	queued := reg.Gauge("tier_queue_frames", "committed upward frames waiting to be pushed")
	retained := reg.Gauge("tier_retained_frames", "acked upward frames held for parent-restore replay")
	upSeq := reg.Gauge("tier_up_seq", "last assigned upward sequence number")
	upEpoch := reg.Gauge("tier_up_epoch", "relay's upward incarnation")
	rootEpoch := reg.Gauge("tier_root_epoch", "parent aggregator incarnation last seen")
	rootStable := reg.Gauge("tier_root_stable", "parent's durable sequence watermark for this relay")
	reg.OnScrape(func() {
		s := r.Stats()
		forwards.SetInt(s.Forwards)
		forwardErrors.SetInt(s.ForwardErrors)
		framesStaged.SetInt(s.FramesStaged)
		foldsStaged.SetInt(s.FoldsStaged)
		framesCommitted.SetInt(s.FramesCommitted)
		applied.SetInt(s.Applied)
		duplicates.SetInt(s.Duplicates)
		dropped.SetInt(s.Dropped)
		rejected.SetInt(s.Rejected)
		replayed.SetInt(s.Replayed)
		retainDropped.SetInt(s.RetainDropped)
		redials.SetInt(s.Redials)
		unstable.SetInt(int64(s.Unstable))
		staged.SetInt(int64(s.Staged))
		queued.SetInt(int64(s.Queued))
		retained.SetInt(int64(s.Retained))
		upSeq.SetInt(int64(s.UpSeq))
		upEpoch.SetInt(int64(s.UpEpoch))
		rootEpoch.SetInt(int64(s.RootEpoch))
		rootStable.SetInt(int64(s.RootStable))
	})
	return m
}

// RegisterShardMetrics exports the shard_* families describing one
// process's place in a ShardMap — static facts, but exported so a
// scrape can confirm which shard (and which partition version) a
// daemon is actually serving before trusting its stream_* numbers.
func RegisterShardMetrics(reg *obs.Registry, m *ShardMap, index int) {
	reg.Gauge("shard_index", "key-range shard this process serves").SetInt(int64(index))
	reg.Gauge("shard_count", "total shards in the partition").SetInt(int64(m.Shards()))
	reg.Gauge("shard_keys", "dictionary keys owned by this shard").SetInt(int64(len(m.Shard(index).Keys)))
	reg.Gauge("shard_map_version", "version stamp of the shard partition").SetInt(int64(m.Version()))
}
