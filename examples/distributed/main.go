// Distributed: the real networked deployment, in one process.
//
// This example starts four data-node servers on loopback TCP — each the
// same server that cmd/csnode runs — then plays the aggregator
// (cmd/csagg's role): it dials the nodes, collects sketches in a single
// round, and recovers the global outliers and mode with BOMP. It also
// runs the transmit-ALL and K+δ baselines over the same connections and
// prints the communication-cost comparison from the paper's §6.1.2.
//
// Run: go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"csoutlier/internal/baseline"
	"csoutlier/internal/cluster"
	"csoutlier/internal/outlier"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
)

func main() {
	const (
		n     = 4000
		s     = 40
		nodes = 4
		k     = 8
		mode  = 1800.0
	)
	global, _ := workload.MajorityDominated(n, s, mode, 300, 9000, 11)
	slices := workload.SplitZeroSumNoise(global, nodes, 3*mode, 12)

	// Start one TCP server per data node (csnode's role).
	remotes := make([]cluster.NodeAPI, nodes)
	for i, sl := range slices {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		node := cluster.NewLocalNode(fmt.Sprintf("dc-%d", i), sl)
		go cluster.Serve(ln, node)
		rn, err := cluster.Dial(ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		defer rn.Close()
		remotes[i] = rn
		fmt.Printf("node %q serving at %s\n", rn.ID(), ln.Addr())
	}

	// Aggregator: one-round CS detection over the wire.
	p := sensing.Params{M: 240, N: n, Seed: 2015}
	res, err := cluster.Detect(remotes, p, k, recovery.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCS (BOMP):   mode %.1f, %d bytes, %d round\n",
		res.Mode, res.Stats.Bytes, res.Stats.Rounds)

	// Failure as the normal case: the same collection with a dead data
	// center in the mix. The retrying quorum collector drops it, the
	// partial sum is exactly the aggregate over the survivors, and the
	// per-node stats say who cost what.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	withDead := append(append([]cluster.NodeAPI{}, remotes...), cluster.NewFaultyNode("dc-dead"))
	part, err := cluster.CollectSketchesCtx(ctx, withDead, sensing.GaussianSpec(p), cluster.CollectOptions{
		MinNodes:    nodes,
		MaxAttempts: 2,
		NodeTimeout: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfault-tolerant collection: %d/%d nodes in the aggregate (%d attempts, %d retries, %d timeouts)\n",
		len(part.Included), len(withDead), part.Stats.Attempts, part.Stats.Retries, part.Stats.Timeouts)
	for id, ferr := range part.Failed {
		fmt.Printf("  excluded %-8s %v\n", id, ferr)
	}
	for _, id := range part.Included {
		ns := part.Nodes[id]
		fmt.Printf("  included %-8s rtt %8v  attempts %d\n", id, ns.RTT.Round(time.Microsecond), ns.Attempts)
	}
	pres, err := cluster.DetectSketch(part.Sketch, sensing.GaussianSpec(p), k, recovery.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  quorum aggregate recovers the same mode: %.1f\n", pres.Mode)

	// Baselines over the same connections.
	all, err := baseline.All(ctx, remotes, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nALL:         mode %.1f, %d bytes, %d round (exact)\n",
		all.Mode, all.Stats.Bytes, all.Stats.Rounds)

	kd, err := baseline.KDelta(ctx, remotes, baseline.KDeltaForBudget(res.Stats.Bytes, nodes, k, n, 5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("K+delta:     mode %.1f, %d bytes, %d rounds\n",
		kd.Mode, kd.Stats.Bytes, kd.Stats.Rounds)

	truth := all.Outliers
	fmt.Printf("\naccuracy vs exact (k=%d):\n", k)
	fmt.Printf("  CS (BOMP):  EK=%.2f EV=%.3f at %.1f%% of ALL's cost\n",
		outlier.ErrorOnKey(truth, res.Outliers), outlier.ErrorOnValue(truth, res.Outliers),
		100*float64(res.Stats.Bytes)/float64(all.Stats.Bytes))
	fmt.Printf("  K+delta:    EK=%.2f EV=%.3f at %.1f%% of ALL's cost\n",
		outlier.ErrorOnKey(truth, kd.Outliers), outlier.ErrorOnValue(truth, kd.Outliers),
		100*float64(kd.Stats.Bytes)/float64(all.Stats.Bytes))

	fmt.Println("\ntop outliers via CS:")
	for i, o := range res.Outliers {
		fmt.Printf("  %d. key#%04d  value %9.1f (divergence %+9.1f)\n",
			i+1, o.Index, o.Value, o.Value-res.Mode)
	}
}
