package csoutlier

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"csoutlier/internal/cluster"
	"csoutlier/internal/workload"
)

// startTestNodes serves count LocalNodes over real TCP, splitting global
// across them, and returns their addresses.
func startTestNodes(t *testing.T, global []float64, count int) []string {
	t.Helper()
	slices := workload.SplitZeroSumNoise(global, count, 100, 7)
	addrs := make([]string, count)
	for i, sl := range slices {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go cluster.Serve(ln, cluster.NewLocalNode(fmt.Sprintf("node-%d", i), sl))
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// deadAddr returns an address nothing is listening on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDetectClusterEndToEnd runs the distributed query under every
// ensemble: the nodes build Φ from the spec the request carries, so a
// spec that names another family than the Sketcher's own matrix (as the
// count-sketch one once did) shows up as a mode and outlier mismatch.
func TestDetectClusterEndToEnd(t *testing.T) {
	for _, cfg := range []Config{
		{M: 90, Seed: 99},
		{M: 210, Seed: 99, Ensemble: CountSketch, Depth: 7},
	} {
		t.Run(cfg.Ensemble.String(), func(t *testing.T) { detectClusterEndToEnd(t, cfg) })
	}
}

func detectClusterEndToEnd(t *testing.T, cfg Config) {
	const n, k, mode = 300, 4, 750.0
	keys := testKeys(n)
	sk, err := NewSketcher(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	global, _ := workload.MajorityDominated(n, k, mode, 120, 4000, 31)
	addrs := startTestNodes(t, global, 3)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := sk.DetectCluster(ctx, addrs, k, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Included) != 3 || len(rep.Failed) != 0 {
		t.Fatalf("included %v failed %v", rep.Included, rep.Failed)
	}

	// The distributed answer must match detection on the local aggregate.
	y, err := sk.SketchVector(global)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sk.Detect(y, k)
	if err != nil {
		t.Fatal(err)
	}
	if diff := rep.Mode - local.Mode; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("cluster mode %v, local mode %v", rep.Mode, local.Mode)
	}
	if len(rep.Outliers) != len(local.Outliers) {
		t.Fatalf("outlier count %d vs %d", len(rep.Outliers), len(local.Outliers))
	}
	got := make(map[string]bool)
	for _, o := range rep.Outliers {
		got[o.Key] = true
	}
	for _, o := range local.Outliers {
		if !got[o.Key] {
			t.Fatalf("local outlier %q missing from cluster report", o.Key)
		}
	}
	// Cost accounting: one round, three sketch messages, M floats each.
	if rep.Stats.Rounds != 1 || rep.Stats.Messages != 3 {
		t.Fatalf("stats %+v", rep.Stats)
	}
	if rep.Stats.Bytes != int64(3*8*sk.M()) {
		t.Fatalf("bytes %d, want %d", rep.Stats.Bytes, 3*8*sk.M())
	}
	for _, nr := range rep.Nodes {
		if !nr.Included || nr.Attempts != 1 || nr.ID == "" || nr.Bytes == 0 {
			t.Fatalf("node report %+v", nr)
		}
	}
}

func TestDetectClusterQuorumSurvivesDeadNode(t *testing.T) {
	const n, k = 200, 3
	keys := testKeys(n)
	sk, err := NewSketcher(keys, Config{M: 60, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	global, _ := workload.MajorityDominated(n, k, 500, 80, 3000, 13)
	addrs := startTestNodes(t, global, 3)
	addrs = append(addrs, deadAddr(t))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := sk.DetectCluster(ctx, addrs, k, ClusterOptions{MinNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Included) != 3 {
		t.Fatalf("included %v", rep.Included)
	}
	if len(rep.Failed) != 1 || rep.Failed[0].Addr != addrs[3] || rep.Failed[0].Err == "" {
		t.Fatalf("failed %+v", rep.Failed)
	}
	// The three live nodes hold the entire aggregate, so the answer is
	// still exact.
	y, _ := sk.SketchVector(global)
	local, _ := sk.Detect(y, k)
	if diff := rep.Mode - local.Mode; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("cluster mode %v, local mode %v", rep.Mode, local.Mode)
	}
}

func TestDetectClusterFailsBelowQuorum(t *testing.T) {
	keys := testKeys(50)
	sk, err := NewSketcher(keys, Config{M: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{deadAddr(t), deadAddr(t)}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := sk.DetectCluster(ctx, addrs, 3, ClusterOptions{MinNodes: 1})
	if err == nil {
		t.Fatal("detection over only dead nodes succeeded")
	}
	if rep == nil || len(rep.Failed) != 2 {
		t.Fatalf("partial report %+v", rep)
	}
}

// TestDetectClusterFailedQuorumKeepsEvidence: below MinNodes the report
// still says what every node did — a hung node's timeouts, a crashed
// node's attempts and error, the healthy node's RTT and bytes.
func TestDetectClusterFailedQuorumKeepsEvidence(t *testing.T) {
	const n = 60
	sk, err := NewSketcher(testKeys(n), Config{M: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"healthy", "hung", "crashed"}
	addrs := make([]string, len(names))
	for i, name := range names {
		srv, err := cluster.StartChaos(cluster.NewLocalNode(name, make([]float64, n)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		addrs[i] = srv.Addr()
		switch name {
		case "hung":
			srv.SetBehavior(cluster.BehaveHang)
		case "crashed":
			srv.SetBehavior(cluster.BehaveCrash)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := sk.DetectCluster(ctx, addrs, 3, ClusterOptions{
		MinNodes: 2, NodeTimeout: 200 * time.Millisecond, MaxAttempts: 2, DialRetries: -1,
	})
	if err == nil {
		t.Fatal("one node of a quorum of two answered and the query succeeded")
	}
	if rep == nil || len(rep.Nodes) != 3 || len(rep.Included) != 1 || rep.Included[0] != "healthy" {
		t.Fatalf("report %+v", rep)
	}
	if len(rep.Failed) != 2 || rep.Failed[0].ID != "hung" || rep.Failed[1].ID != "crashed" {
		t.Fatalf("failed %+v", rep.Failed)
	}
	healthy, hung, crashed := rep.Nodes[0], rep.Nodes[1], rep.Nodes[2]
	if !healthy.Included || healthy.Attempts != 1 || healthy.RTT <= 0 || healthy.Bytes == 0 {
		t.Fatalf("healthy node report %+v", healthy)
	}
	if hung.Included || hung.Attempts != 2 || hung.Retries != 1 || hung.Timeouts != 2 || hung.Err == "" {
		t.Fatalf("hung node report %+v", hung)
	}
	if crashed.Included || crashed.Attempts != 2 || crashed.Retries != 1 || crashed.Err == "" {
		t.Fatalf("crashed node report %+v", crashed)
	}
	if rep.Stats.Attempts != 5 || rep.Stats.Retries != 2 || rep.Stats.Timeouts != 2 || rep.Stats.Messages != 1 {
		t.Fatalf("stats %+v", rep.Stats)
	}
	if len(rep.Outliers) != 0 {
		t.Fatalf("a failed collection reported outliers: %+v", rep.Outliers)
	}
}

func TestDetectClusterValidatesArgs(t *testing.T) {
	keys := testKeys(50)
	sk, _ := NewSketcher(keys, Config{M: 20, Seed: 5})
	if _, err := sk.DetectCluster(context.Background(), nil, 3, ClusterOptions{}); err == nil {
		t.Fatal("empty addrs accepted")
	}
	if _, err := sk.DetectCluster(context.Background(), []string{"127.0.0.1:1"}, 0, ClusterOptions{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}
