// Command csagg is the aggregator of the distributed outlier-detection
// deployment: it dials a set of csnode servers, collects their
// compressive-sensing sketches in one round, recovers the global mode
// and the k strongest outliers with BOMP, and prints them with the
// communication cost relative to shipping everything. The round is one
// Sketcher.DetectCluster call: the flags are its Config and
// ClusterOptions, and -timeout is its context's deadline.
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

	"csoutlier"
	"csoutlier/internal/keydict"
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
		timeout   = flag.Duration("timeout", 0, "sketch-collection deadline; with -min-nodes, stragglers past it are dropped")
		minNodes  = flag.Int("min-nodes", 0, "tolerate node failures: proceed once this many sketches arrived (0 = require all; sketch linearity makes the partial aggregate exact over the responders)")
		nodeTO    = flag.Duration("node-timeout", 10*time.Second, "per-request deadline on each node RPC (0 = unbounded)")
		attempts  = flag.Int("attempts", 2, "sketch attempts per node before it is declared failed (each one exchange; a retry after a broken connection re-dials)")
		health    = flag.Bool("health", false, "print per-node health (attempts, retries, timeouts, redials, RTT, bytes)")
		ensemble  = flag.String("ensemble", "gaussian", "measurement ensemble: gaussian or countsketch")
		depth     = flag.Int("depth", 0, "hash-row count for -ensemble countsketch, in [1,64] (0 = 5)")
	)
	flag.Parse()
	if *nodesFlag == "" || *dictPath == "" || *m <= 0 || *attempts < 1 || *minNodes < 0 {
		fmt.Fprintln(os.Stderr, "csagg: -nodes, -dict and -m are required, -attempts must be ≥ 1 and -min-nodes ≥ 0")
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
	kind, err := sensing.ParseKind(*ensemble)
	if err != nil {
		log.Fatalf("csagg: %v", err)
	}
	sk, err := csoutlier.NewSketcher(dict.Keys(), csoutlier.Config{
		M: *m, Seed: *seed, MaxIterations: *iters, Ensemble: kind, Depth: *depth,
	})
	if err != nil {
		log.Fatalf("csagg: %v", err)
	}

	// ClusterOptions reads a zero NodeTimeout as "default" and a negative
	// one as "none"; the flag reads 0 as "none".
	opts := csoutlier.ClusterOptions{
		MinNodes:    *minNodes,
		NodeTimeout: *nodeTO,
		MaxAttempts: *attempts,
	}
	if *nodeTO == 0 {
		opts.NodeTimeout = -1
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	addrs := strings.Split(*nodesFlag, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	start := time.Now()
	rep, err := sk.DetectCluster(ctx, addrs, *k, opts)
	elapsed := time.Since(start)
	// A round that missed its quorum still reports what each node did;
	// print that before giving up.
	if rep != nil {
		for _, nr := range rep.Failed {
			log.Printf("csagg: node %s excluded: %s", nr.Addr, nr.Err)
		}
		if *health {
			for _, nr := range rep.Nodes {
				log.Printf("csagg: node %-21s id=%-12q ok=%-5v attempts=%d retries=%d timeouts=%d redials=%d rtt=%v wire=%dB",
					nr.Addr, nr.ID, nr.Included, nr.Attempts, nr.Retries, nr.Timeouts, nr.Redials,
					nr.RTT.Round(time.Microsecond), nr.Bytes)
			}
		}
	}
	if err != nil {
		log.Fatalf("csagg: %v", err)
	}
	log.Printf("csagg: aggregate over %d/%d nodes: %v", len(rep.Included), len(addrs), rep.Included)

	allBytes := int64(len(rep.Included)) * int64(dict.N()) * 8 // transmit-ALL: L·N values at 64 bits
	fmt.Printf("recovered mode b = %.6g  (%d recovery iterations, %v)\n",
		rep.Mode, rep.Iterations, elapsed.Round(time.Millisecond))
	fmt.Printf("communication: %d bytes in %d round (%.2f%% of transmit-ALL's %d bytes)\n",
		rep.Stats.Bytes, rep.Stats.Rounds, 100*float64(rep.Stats.Bytes)/float64(allBytes), allBytes)
	fmt.Printf("transport: %d attempts, %d retries, %d timeouts\n",
		rep.Stats.Attempts, rep.Stats.Retries, rep.Stats.Timeouts)
	fmt.Printf("top-%d outliers (furthest from mode first):\n", *k)
	for i, o := range rep.Outliers {
		fmt.Printf("  %2d. %-40s  value %.6g  (divergence %+.6g)\n",
			i+1, o.Key, o.Value, o.Value-rep.Mode)
	}

	if *stats {
		// BOMP stopped at rep.Iterations either way, so this run repeats
		// the round's recovery bit for bit and keeps its whole support.
		agg, err := sk.Aggregate(rep.Global, rep.Iterations)
		if err != nil {
			log.Fatalf("csagg: %v", err)
		}
		fmt.Printf("\nrecovered aggregate statistics (from the same sketch):\n")
		fmt.Printf("  sum  %14.6g\n  mean %14.6g\n", agg.Sum(), agg.Mean())
		for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
			v, err := agg.Percentile(q)
			if err != nil {
				log.Fatalf("csagg: %v", err)
			}
			fmt.Printf("  p%-4.3g %13.6g\n", q*100, v)
		}
	}
}
