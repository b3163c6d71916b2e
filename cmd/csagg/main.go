// Command csagg is the aggregator of the distributed outlier-detection
// deployment: it dials a set of csnode servers, collects their
// compressive-sensing sketches in one round, recovers the global mode
// and the k strongest outliers with BOMP, and prints them with the
// communication cost relative to shipping everything.
//
// Usage:
//
//	csagg -nodes host1:7001,host2:7001 -dict keys.txt -m 500 -k 10 -seed 42
//
// Every node must have been started with the same dictionary file; the
// measurement seed is the consensus that makes all sketches compatible.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"csoutlier/internal/baseline"
	"csoutlier/internal/cluster"
	"csoutlier/internal/keydict"
	"csoutlier/internal/obs"
	"csoutlier/internal/queries"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
)

func main() {
	var (
		nodesFlag = flag.String("nodes", "", "comma-separated csnode addresses")
		dictPath  = flag.String("dict", "", "global key dictionary file")
		m         = flag.Int("m", 0, "measurement count M (sketch length)")
		k         = flag.Int("k", 10, "outliers to report")
		seed      = flag.Uint64("seed", 42, "consensus measurement seed")
		iters     = flag.Int("iters", 0, "BOMP iteration budget R (0 = paper default f(k) in [2k,5k]; raise toward the data's sparsity for sharper values)")
		stats     = flag.Bool("stats", false, "also print recovered aggregate statistics (sum, mean, percentiles)")
		exact     = flag.Bool("exact", false, "also run the transmit-ALL baseline for comparison")
		timeout   = flag.Duration("timeout", 0, "sketch-collection deadline; with -min-nodes, stragglers past it are dropped")
		minNodes  = flag.Int("min-nodes", 0, "tolerate node failures: proceed once this many sketches arrived (0 = require all; sketch linearity makes the partial aggregate exact over the responders)")
		nodeTO    = flag.Duration("node-timeout", 10*time.Second, "per-request deadline on each node RPC (0 = unbounded)")
		attempts  = flag.Int("attempts", 2, "sketch attempts per node before it is declared failed")
		retries   = flag.Int("retries", 2, "transport-level retries per RPC on a broken connection (re-dial with backoff)")
		health    = flag.Bool("health", false, "print per-node transport health (attempts, retries, timeouts, RTT, bytes)")
		ensemble  = flag.String("ensemble", "gaussian", "measurement ensemble: gaussian or countsketch")
		depth     = flag.Int("depth", 0, "hash-row count for -ensemble countsketch, in [1,64] (0 = 5)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof/ on this address for the run's duration (empty = off)")
	)
	flag.Parse()
	if *nodesFlag == "" || *dictPath == "" || *m <= 0 {
		fmt.Fprintln(os.Stderr, "csagg: -nodes, -dict and -m are required")
		os.Exit(2)
	}

	f, err := os.Open(*dictPath)
	if err != nil {
		log.Fatalf("csagg: %v", err)
	}
	dict, err := keydict.Read(f)
	f.Close()
	if err != nil {
		log.Fatalf("csagg: %v", err)
	}

	dialOpts := cluster.DialOptions{
		RequestTimeout: *nodeTO,
		MaxRetries:     *retries,
	}
	if *nodeTO == 0 {
		dialOpts.RequestTimeout = -1 // unbounded
	}
	if *retries == 0 {
		dialOpts.MaxRetries = -1 // "-retries 0" means none, not the default
	}
	addrs := strings.Split(*nodesFlag, ",")
	var nodes []cluster.NodeAPI
	var remotes []*cluster.RemoteNode
	for _, addr := range addrs {
		rn, err := cluster.DialContext(context.Background(), strings.TrimSpace(addr), dialOpts)
		if err != nil {
			// With a quorum, an unreachable node is a tolerated failure,
			// the same as one that dies mid-collection.
			if *minNodes > 0 {
				log.Printf("csagg: node %s excluded: %v", addr, err)
				continue
			}
			log.Fatalf("csagg: %v", err)
		}
		defer rn.Close()
		nodes = append(nodes, rn)
		remotes = append(remotes, rn)
		log.Printf("connected to node %q at %s", rn.ID(), addr)
	}
	if *minNodes > 0 && len(nodes) < *minNodes {
		log.Fatalf("csagg: only %d/%d nodes reachable (need %d)", len(nodes), len(addrs), *minNodes)
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		cluster.RegisterHealthMetrics(reg, remotes...)
		mln, err := obs.Serve(*metricsAddr, reg, nil)
		if err != nil {
			log.Fatalf("csagg: metrics: %v", err)
		}
		defer mln.Close()
		log.Printf("csagg metrics on http://%s/metrics", mln.Addr())
	}

	kind, err := sensing.ParseKind(*ensemble)
	if err != nil {
		log.Fatalf("csagg: %v", err)
	}
	spec := sensing.Spec{
		Params: sensing.Params{M: *m, N: dict.N(), Seed: *seed},
		Kind:   kind,
		D:      *depth,
	}
	start := time.Now()
	var res *cluster.DetectResult
	if *minNodes > 0 || *timeout > 0 {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		part, err := cluster.CollectSketchesCtx(ctx, nodes, spec, cluster.CollectOptions{
			MinNodes:    *minNodes,
			MaxAttempts: *attempts,
			NodeTimeout: *nodeTO,
			Metrics:     reg,
		})
		// A collection that missed its quorum still reports what each
		// node did; print that before giving up.
		if part != nil {
			for id, ferr := range part.Failed {
				log.Printf("csagg: node %s excluded: %v", id, ferr)
			}
			if *health {
				for id, ns := range part.Nodes {
					log.Printf("csagg: node %-12s ok=%-5v attempts=%d retries=%d timeouts=%d rtt=%v",
						id, ns.OK, ns.Attempts, ns.Retries, ns.Timeouts, ns.RTT.Round(time.Microsecond))
				}
			}
		}
		if err != nil {
			log.Fatalf("csagg: collect: %v", err)
		}
		log.Printf("csagg: aggregate over %d/%d nodes: %v", len(part.Included), len(nodes), part.Included)
		res, err = cluster.DetectSketch(part.Sketch, spec, *k, recovery.Options{MaxIterations: *iters})
		if err != nil {
			log.Fatalf("csagg: detect: %v", err)
		}
		res.Stats = part.Stats
	} else {
		y, stats, err := cluster.CollectSketches(nodes, spec)
		if err != nil {
			log.Fatalf("csagg: collect: %v", err)
		}
		res, err = cluster.DetectSketch(y, spec, *k, recovery.Options{MaxIterations: *iters})
		if err != nil {
			log.Fatalf("csagg: detect: %v", err)
		}
		res.Stats = stats
	}
	elapsed := time.Since(start)

	allBytes := baseline.AllCostBytes(len(nodes), dict.N())
	fmt.Printf("recovered mode b = %.6g  (%d recovery iterations, %v)\n",
		res.Mode, res.Recovery.Iterations, elapsed.Round(time.Millisecond))
	fmt.Printf("communication: %d bytes in %d round (%.2f%% of transmit-ALL's %d bytes)\n",
		res.Stats.Bytes, res.Stats.Rounds, 100*float64(res.Stats.Bytes)/float64(allBytes), allBytes)
	if res.Stats.Attempts > 0 {
		fmt.Printf("transport: %d attempts, %d retries, %d timeouts\n",
			res.Stats.Attempts, res.Stats.Retries, res.Stats.Timeouts)
	}
	if *health {
		for _, rn := range remotes {
			h := rn.Health()
			log.Printf("csagg: transport %-12s attempts=%d retries=%d timeouts=%d redials=%d failures=%d rtt(last/avg)=%v/%v wire(r/w)=%dB/%dB",
				rn.ID(), h.Attempts, h.Retries, h.Timeouts, h.Redials, h.Failures,
				h.LastRTT.Round(time.Microsecond), h.AvgRTT.Round(time.Microsecond), h.BytesRead, h.BytesWritten)
		}
	}
	fmt.Printf("top-%d outliers (furthest from mode first):\n", *k)
	for i, o := range res.Outliers {
		fmt.Printf("  %2d. %-40s  value %.6g  (divergence %+.6g)\n",
			i+1, dict.Key(o.Index), o.Value, o.Value-res.Mode)
	}

	if *stats {
		rec := &queries.Recovered{
			N:       dict.N(),
			Mode:    res.Mode,
			Support: res.Recovery.Support,
		}
		for _, j := range res.Recovery.Support {
			rec.Values = append(rec.Values, res.Recovery.X[j])
		}
		fmt.Printf("\nrecovered aggregate statistics (from the same sketch):\n")
		fmt.Printf("  sum  %14.6g\n  mean %14.6g\n", queries.Sum(rec), queries.Mean(rec))
		for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
			v, err := queries.Percentile(rec, q)
			if err != nil {
				log.Fatalf("csagg: %v", err)
			}
			fmt.Printf("  p%-4.3g %13.6g\n", q*100, v)
		}
	}

	if *exact {
		ex, err := baseline.All(context.Background(), nodes, *k)
		if err != nil {
			log.Fatalf("csagg: exact baseline: %v", err)
		}
		fmt.Printf("\ntransmit-ALL ground truth (%d bytes):\n", ex.Stats.Bytes)
		for i, o := range ex.Outliers {
			fmt.Printf("  %2d. %-40s  value %.6g\n", i+1, dict.Key(o.Index), o.Value)
		}
	}
}
