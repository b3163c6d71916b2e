// Distributed: the real networked deployment, in one process.
//
// This example starts four data-node servers on loopback TCP — each the
// same server that cmd/csnode runs — then plays the aggregator the way
// cmd/csagg does: one Sketcher.DetectCluster call dials the nodes,
// collects their sketches in a single round, and recovers the global
// outliers and mode with BOMP. A second round adds an address nothing
// listens on; the quorum round leaves it out and answers exactly over the
// rest. The transmit-ALL and K+δ baselines of the paper's §6.1.2 run in
// process over the same slices for the communication-cost comparison:
// the pull wire carries the sketch round and nothing else.
//
// Run: go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"csoutlier"
	"csoutlier/internal/baseline"
	"csoutlier/internal/cluster"
	"csoutlier/internal/outlier"
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

	keys := make([]string, n)
	index := make(map[string]int, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key#%04d", i)
		index[keys[i]] = i
	}
	sk, err := csoutlier.NewSketcher(keys, csoutlier.Config{M: 240, Seed: 2015})
	if err != nil {
		log.Fatal(err)
	}

	// Start one TCP server per data node (csnode's role).
	locals := make([]*cluster.LocalNode, nodes)
	addrs := make([]string, nodes)
	for i, sl := range slices {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		locals[i] = cluster.NewLocalNode(fmt.Sprintf("dc-%d", i), sl)
		go cluster.Serve(ln, locals[i])
		addrs[i] = ln.Addr().String()
		fmt.Printf("node %q serving at %s\n", locals[i].ID(), addrs[i])
	}

	// Aggregator: one-round CS detection over the wire (csagg's role).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := sk.DetectCluster(ctx, addrs, k, csoutlier.ClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCS (BOMP):   mode %.1f, %d bytes, %d round\n",
		rep.Mode, rep.Stats.Bytes, rep.Stats.Rounds)

	// Failure as the normal case: the same round with a dead data center
	// in the mix. The quorum round leaves it out, the partial sum is
	// exactly the aggregate over the survivors, and the per-node report
	// says who cost what.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	dead.Close()
	withDead := append(append([]string(nil), addrs...), dead.Addr().String())
	qrep, err := sk.DetectCluster(ctx, withDead, k, csoutlier.ClusterOptions{
		MinNodes:    nodes,
		NodeTimeout: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfault-tolerant collection: %d/%d nodes in the aggregate (%d attempts, %d retries, %d timeouts)\n",
		len(qrep.Included), len(withDead), qrep.Stats.Attempts, qrep.Stats.Retries, qrep.Stats.Timeouts)
	for _, nr := range qrep.Nodes {
		if nr.Included {
			fmt.Printf("  included %-8s rtt %8v  attempts %d\n", nr.ID, nr.RTT.Round(time.Microsecond), nr.Attempts)
		} else {
			fmt.Printf("  excluded %-8s %s\n", nr.Addr, nr.Err)
		}
	}
	fmt.Printf("  quorum aggregate recovers the same mode: %.1f\n", qrep.Mode)

	// Baselines, in process over the same slices.
	all, err := baseline.All(slices, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nALL:         mode %.1f, %d bytes, %d round (exact)\n",
		all.Mode, all.Stats.Bytes, all.Stats.Rounds)

	kd, err := baseline.KDelta(slices, k, rep.Stats.Bytes, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("K+delta:     mode %.1f, %d bytes, %d rounds\n",
		kd.Mode, kd.Stats.Bytes, kd.Stats.Rounds)

	cs := make([]outlier.KV, len(rep.Outliers))
	for i, o := range rep.Outliers {
		cs[i] = outlier.KV{Index: index[o.Key], Value: o.Value}
	}
	truth := all.Outliers
	fmt.Printf("\naccuracy vs exact (k=%d):\n", k)
	fmt.Printf("  CS (BOMP):  EK=%.2f EV=%.3f at %.1f%% of ALL's cost\n",
		outlier.ErrorOnKey(truth, cs), outlier.ErrorOnValue(truth, cs),
		100*float64(rep.Stats.Bytes)/float64(all.Stats.Bytes))
	fmt.Printf("  K+delta:    EK=%.2f EV=%.3f at %.1f%% of ALL's cost\n",
		outlier.ErrorOnKey(truth, kd.Outliers), outlier.ErrorOnValue(truth, kd.Outliers),
		100*float64(kd.Stats.Bytes)/float64(all.Stats.Bytes))

	fmt.Println("\ntop outliers via CS:")
	for i, o := range rep.Outliers {
		fmt.Printf("  %d. %s  value %9.1f (divergence %+9.1f)\n",
			i+1, o.Key, o.Value, o.Value-rep.Mode)
	}
}
