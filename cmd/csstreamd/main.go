// Command csstreamd is the streaming aggregation daemon: the
// long-running counterpart of csagg for the continuous-ingest setting.
// Nodes (csnode -push, or anything speaking internal/stream's delta
// protocol) push window-tagged sketch deltas; csstreamd folds each
// exactly once into a ring of per-window global sketches, rotates
// windows on a wall clock, and periodically reports the k strongest
// outliers over a recent span together with per-node liveness.
//
// Usage:
//
//	csstreamd -listen :7100 -dict keys.txt -m 500 -k 10 \
//	          -window-every 10m -windows 8 -report-every 1m
//
// Every pushing node must use the same dictionary, M, seed and
// ensemble; a node with a mismatched consensus is rejected frame by
// frame before it can corrupt the aggregate.
//
// Two flags compose the flat daemon into a hierarchical, sharded
// deployment (see internal/tier):
//
//   - -shards N -shard-index I carves the dictionary into N contiguous
//     key-range shards and serves shard I: the sketcher is derived for
//     that shard's key slice with a per-shard seed, and the shard_*
//     metric families advertise the partition. The flat daemon is the
//     one shard of -shards 1, which keeps -seed. A csnode pusher with
//     N comma-separated -push addresses in shard order routes each key
//     to its owner.
//   - -relay-upstream ADDR turns the process into a regional relay:
//     leaf pushes fold into the embedded aggregator exactly as in the
//     flat daemon, and every -forward-every the folded window deltas
//     are forwarded upward as single frames — exact by linearity, and
//     exactly-once across the extra hop. A relay keeps no file, so
//     -snapshot is refused on it: each upward frame carries the cut of
//     the leaf frames it sums, the root keeps the cuts, and a restarted
//     relay is given them back, so its leaves replay exactly what the
//     root lacks.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"csoutlier"
	"csoutlier/internal/keydict"
	"csoutlier/internal/obs"
	"csoutlier/internal/sensing"
	"csoutlier/internal/stream"
	"csoutlier/internal/tier"
)

func main() {
	var (
		listen      = flag.String("listen", ":7100", "address to accept node pushes on")
		dictPath    = flag.String("dict", "", "global key dictionary file (one key per line, sorted)")
		m           = flag.Int("m", 0, "measurement count M (sketch length)")
		seed        = flag.Uint64("seed", 42, "consensus measurement seed")
		ensemble    = flag.String("ensemble", "gaussian", "measurement ensemble: gaussian or countsketch")
		depth       = flag.Int("depth", 0, "hash-row count for -ensemble countsketch, in [1,64] (0 = 5)")
		watch       = flag.String("watch", "", "comma-separated keys to point-query in every report (requires -ensemble countsketch)")
		watchThresh = flag.Float64("watch-threshold", 0, "flag a watched key as an outlier when it deviates from the span mode by at least this much (0 = just report values)")
		windows     = flag.Int("windows", 8, "window ring size: current window plus windows-1 sealed ones stay queryable")
		windowEvery = flag.Duration("window-every", 10*time.Minute, "wall-clock window rotation period (0 = never rotate; refused on a relay, which rotates when its upstream does)")
		k           = flag.Int("k", 10, "outliers per report")
		span        = flag.Int("span", 0, "report outliers over the last span windows (0 = all available)")
		reportEvery = flag.Duration("report-every", time.Minute, "how often to print the outlier/liveness report (0 = only on shutdown)")
		idleTO      = flag.Duration("idle-timeout", 5*time.Minute, "drop node connections silent for this long (0 = never)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof/ on this address (empty = off)")
		snapPath    = flag.String("snapshot", "", "durable snapshot file: written atomically on rotation, on shutdown and when a node's retained frames need it, restored on boot (empty = in-memory only; refused on a relay, which keeps no file)")
		evictAfter  = flag.Duration("evict-after", 0, "evict nodes not heard from for this long; their dedup state is tombstoned, not lost (0 = never)")

		shards     = flag.Int("shards", 1, "carve the dictionary into this many contiguous key-range shards")
		shardIndex = flag.Int("shard-index", 0, "which shard of -shards this process serves")
		shardVer   = flag.Uint64("shard-version", 1, "version stamp of the shard partition (advertised via shard_map_version)")

		relayUpstream = flag.String("relay-upstream", "", "parent aggregator's push address; non-empty makes this process a regional relay")
		relayID       = flag.String("relay-id", "", "relay identity in the parent's dedup books (required with -relay-upstream, refused without)")
		forwardEvery  = flag.Duration("forward-every", 30*time.Second, "how often a relay forwards its folded window deltas upward (> 0; refused without -relay-upstream)")
	)
	flag.Parse()
	if *dictPath == "" || *m <= 0 || *windows < 1 || *k < 1 || *span < 0 {
		fmt.Fprintln(os.Stderr, "csstreamd: -dict and -m are required, -windows and -k must be ≥ 1 and -span ≥ 0")
		os.Exit(2)
	}
	if *relayUpstream != "" && *relayID == "" {
		fmt.Fprintln(os.Stderr, "csstreamd: -relay-upstream requires -relay-id")
		os.Exit(2)
	}
	if *snapPath != "" && *relayUpstream != "" {
		fmt.Fprintln(os.Stderr, "csstreamd: -snapshot does not apply to a relay (-relay-upstream): it keeps no file, its root keeps what a restart needs")
		os.Exit(2)
	}
	if *windowEvery < 0 || *reportEvery < 0 || *idleTO < 0 || *evictAfter < 0 {
		fmt.Fprintln(os.Stderr, "csstreamd: -window-every, -report-every, -idle-timeout and -evict-after must be ≥ 0 (0 = never)")
		os.Exit(2)
	}
	if *relayUpstream != "" && *forwardEvery <= 0 {
		fmt.Fprintln(os.Stderr, "csstreamd: -forward-every must be > 0 on a relay: it would never forward or adopt the upstream's window")
		os.Exit(2)
	}
	flag.Visit(func(f *flag.Flag) {
		switch relay := *relayUpstream != ""; {
		case relay && f.Name == "window-every":
			fmt.Fprintln(os.Stderr, "csstreamd: -window-every does not apply to a relay (-relay-upstream): it rotates when the upstream does")
			os.Exit(2)
		case !relay && (f.Name == "forward-every" || f.Name == "relay-id"):
			fmt.Fprintf(os.Stderr, "csstreamd: -%s applies only to a relay (-relay-upstream)\n", f.Name)
			os.Exit(2)
		}
	})
	if *shards < 1 || *shardIndex < 0 || *shardIndex >= *shards {
		fmt.Fprintf(os.Stderr, "csstreamd: -shards %d -shard-index %d: want -shards ≥ 1 and the index in [0, -shards)\n", *shards, *shardIndex)
		os.Exit(2)
	}
	ens, err := sensing.ParseKind(*ensemble)
	if err != nil {
		log.Fatalf("csstreamd: %v", err)
	}

	f, err := os.Open(*dictPath)
	if err != nil {
		log.Fatalf("csstreamd: %v", err)
	}
	dict, err := keydict.Read(f)
	f.Close()
	if err != nil {
		log.Fatalf("csstreamd: %v", err)
	}

	shardMap, err := tier.NewShardMap(dict.Keys(), *shards, tier.Spec{
		M: *m, BaseSeed: *seed, Ensemble: ens, Depth: *depth,
	}, *shardVer)
	if err != nil {
		log.Fatalf("csstreamd: %v", err)
	}
	sk, err := shardMap.Sketcher(*shardIndex)
	if err != nil {
		log.Fatalf("csstreamd: %v", err)
	}
	reg := obs.NewRegistry()
	tier.RegisterShardMetrics(reg, shardMap, *shardIndex)
	own := shardMap.Shard(*shardIndex)
	log.Printf("csstreamd serving shard %d/%d (partition v%d): %d of %d keys [%s, %s]",
		*shardIndex, *shards, *shardVer, len(own.Keys), dict.N(), own.Keys[0], own.Keys[len(own.Keys)-1])
	watched := splitKeys(*watch)
	if len(watched) > 0 && !sk.SupportsPointQuery() {
		log.Fatalf("csstreamd: -watch needs -ensemble countsketch (got %s)", *ensemble)
	}

	sk.Instrument(reg)
	opts := stream.AggregatorOptions{
		Windows:      *windows,
		WindowEvery:  *windowEvery,
		IdleTimeout:  *idleTO,
		Metrics:      reg,
		SnapshotPath: *snapPath,
		EvictAfter:   *evictAfter,
	}
	var agg *stream.Aggregator
	var relay *tier.Relay
	if *relayUpstream != "" {
		opts.WindowEvery = 0 // the flag's default: a relay rotates when its upstream does
		relay = startRelay(sk, tier.RelayOptions{
			ID:       *relayID,
			Shard:    *shardIndex,
			Upstream: *relayUpstream,
			Agg:      opts,
		})
		agg = relay.Aggregator()
	} else {
		if *snapPath != "" {
			if snap, serr := stream.LoadSnapshot(*snapPath); serr == nil {
				agg, err = stream.RestoreAggregator(sk, opts, snap)
				if err != nil {
					log.Fatalf("csstreamd: restore %s: %v", *snapPath, err)
				}
				log.Printf("csstreamd restored snapshot %s: window %d, epoch %d, %d nodes",
					*snapPath, agg.Stats().Window, agg.Epoch(), len(agg.Nodes()))
			} else if !os.IsNotExist(serr) {
				log.Fatalf("csstreamd: snapshot %s: %v", *snapPath, serr)
			}
		}
		if agg == nil {
			agg, err = stream.NewAggregator(sk, opts)
			if err != nil {
				log.Fatalf("csstreamd: %v", err)
			}
		}
	}
	if *metricsAddr != "" {
		mln, err := obs.Serve(*metricsAddr, reg, agg.Ready)
		if err != nil {
			log.Fatalf("csstreamd: metrics: %v", err)
		}
		defer mln.Close()
		log.Printf("csstreamd metrics on http://%s/metrics", mln.Addr())
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("csstreamd: listen: %v", err)
	}
	clock := fmt.Sprintf("every %v", *windowEvery)
	if relay != nil {
		clock = "on the upstream's clock"
	}
	log.Printf("csstreamd serving %d keys (M=%d, %s) on %s; windows=%d %s",
		len(sk.Keys()), *m, *ensemble, ln.Addr(), *windows, clock)
	go func() {
		if err := agg.Serve(ln); err != nil {
			log.Fatalf("csstreamd: serve: %v", err)
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *reportEvery > 0 {
		t := time.NewTicker(*reportEvery)
		defer t.Stop()
		tick = t.C
	}
	var fwd <-chan time.Time
	if relay != nil {
		t := time.NewTicker(*forwardEvery)
		defer t.Stop()
		fwd = t.C
	}
	for {
		select {
		case <-fwd:
			// Forward drains the folded deltas upward; Sync then adopts
			// the root's window clock even when there was nothing to push.
			// Failures are transient (the root may be restarting) — the
			// next tick retries and the staged frames survive.
			ctx, cancel := context.WithTimeout(context.Background(), *forwardEvery)
			if err := relay.Forward(ctx); err != nil {
				log.Printf("csstreamd: forward: %v", err)
			} else if err := relay.Sync(ctx); err != nil {
				log.Printf("csstreamd: relay sync: %v", err)
			}
			cancel()
		case <-tick:
			report(agg, relay, *k, *span, watched, *watchThresh)
		case sig := <-sigc:
			log.Printf("csstreamd: %v: draining", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if relay != nil {
				err = relay.Close(ctx) // final forward, then the embedded aggregator
			} else {
				err = agg.Close(ctx)
			}
			cancel()
			if err != nil {
				log.Printf("csstreamd: %v", err)
			}
			report(agg, relay, *k, *span, watched, *watchThresh) // final state, after the drain
			return
		}
	}
}

// startRelay builds the regional relay, seeded from the cut its root
// gives back; its registry is the aggregator options' own.
func startRelay(sk *csoutlier.Sketcher, ropts tier.RelayOptions) *tier.Relay {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	relay, err := tier.NewRelay(ctx, sk, ropts)
	if err != nil {
		log.Fatalf("csstreamd: relay: %v", err)
	}
	log.Printf("csstreamd relaying to %s as %s: up-epoch %d, %d leaves seeded from the root's cut",
		ropts.Upstream, relay.Name(), relay.Stats().UpEpoch, len(relay.Aggregator().Nodes()))
	return relay
}

// splitKeys parses a comma-separated -watch list, dropping empties.
func splitKeys(s string) []string {
	if s == "" {
		return nil
	}
	var keys []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}
	return keys
}

// report prints the standing outlier query, the point-query watchlist
// and the node/ingest state (plus the upward-forwarding state when the
// process is a relay).
func report(agg *stream.Aggregator, relay *tier.Relay, k, span int, watched []string, watchThresh float64) {
	avail := agg.AvailableWindows()
	if span <= 0 || span > avail {
		span = avail
	}
	s := agg.Stats()
	log.Printf("window %d: %d deltas applied (%d dup, %d dropped, %d rejected), %d rotations, cache %d/%d hit, %d warm starts, %d batch refreshes",
		s.Window, s.Applied, s.Duplicates, s.Dropped, s.Rejected, s.Rotations, s.CacheHits, s.CacheHits+s.CacheMisses,
		s.WarmStarts, s.BatchRefreshes)
	if s.PointQueries > 0 {
		log.Printf("  point queries: %d answered, %d span refreshes, %d outliers",
			s.PointQueries, s.PointRefreshes, s.PointOutliers)
	}
	log.Printf("  epoch %d membership v%d: %d joins, %d leaves, %d evictions, %d tombstones; %d shed frames (%d extra folds); %d snapshots (%d errors, last %dB)",
		s.AggEpoch, s.Membership, s.Joins, s.Leaves, s.Evictions, s.Tombstones,
		s.ShedFrames, s.ShedFolds, s.Snapshots, s.SnapshotErrors, s.SnapshotBytes)
	if relay != nil {
		rs := relay.Stats()
		log.Printf("  relay %s → root epoch %d: %d forwards (%d errors), %d frames staged (%d applied, %d dup, %d replayed), %d queued, %d retained",
			relay.Name(), rs.RootEpoch, rs.Forwards, rs.ForwardErrors, rs.FramesStaged,
			rs.Applied, rs.Duplicates, rs.Replayed, rs.Queued, rs.Retained)
	}
	for _, ns := range agg.Nodes() {
		log.Printf("  node %-12s %-7s epoch=%d lag=%d applied=%d dup=%d dropped=%d rejected=%d restarts=%d shed=%d/%d last-seen=%s",
			ns.Node, ns.State, ns.Epoch, ns.Lag, ns.Applied, ns.Duplicates, ns.Dropped, ns.Rejected, ns.Restarts,
			ns.ShedFrames, ns.ShedFolds, time.Since(ns.LastSeen).Round(time.Millisecond))
	}
	if s.Applied == 0 {
		return
	}
	// The whole watchlist answers from the recovery-free point path in
	// one call — a single lock/generation check amortized over every
	// key, O(depth) each once the span's state is warm.
	if len(watched) > 0 {
		answers, err := agg.PointQueryMulti(0, span-1, watched, watchThresh)
		if err != nil {
			log.Printf("  watch error: %v", err)
		} else {
			for i, key := range watched {
				ans := answers[i]
				mark := ""
				if ans.Outlier {
					mark = "  OUTLIER"
				}
				log.Printf("  watch %-40s value %.6g (divergence %+.6g)%s", key, ans.Value, ans.Deviation(), mark)
			}
		}
	}
	rep, err := agg.Outliers(0, span-1, k)
	if err != nil {
		log.Printf("csstreamd: outlier query: %v", err)
		return
	}
	log.Printf("  top-%d outliers over last %d window(s) (mode %.6g, %d recovery iterations):",
		k, span, rep.Mode, rep.Iterations)
	for i, o := range rep.Outliers {
		log.Printf("  %2d. %-40s value %.6g (divergence %+.6g)", i+1, o.Key, o.Value, o.Value-rep.Mode)
	}
}
