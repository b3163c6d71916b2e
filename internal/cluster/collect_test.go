package cluster

import (
	"context"
	"testing"
	"time"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
)

func TestCollectCtxAllHealthy(t *testing.T) {
	nodes, global, _ := makeCluster(t, 120, 4, 4, 900, 21)
	p := sensing.Params{M: 40, N: 120, Seed: 22}
	res, err := CollectSketchesCtx(context.Background(), nodes, sensing.GaussianSpec(p), CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Included) != 4 || len(res.Failed) != 0 {
		t.Fatalf("included %v failed %v", res.Included, res.Failed)
	}
	d, _ := sensing.NewDense(p)
	if !res.Sketch.Equal(d.Measure(global, nil), 1e-8) {
		t.Fatal("ctx collection does not match global measurement")
	}
}

func TestCollectCtxToleratesFailuresWithQuorum(t *testing.T) {
	nodes, _, _ := makeCluster(t, 100, 3, 3, 500, 23)
	nodes = append(nodes, NewFaultyNode("dead-dc"))
	p := sensing.Params{M: 30, N: 100, Seed: 24}
	res, err := CollectSketchesCtx(context.Background(), nodes, sensing.GaussianSpec(p), CollectOptions{MinNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Included) != 3 {
		t.Fatalf("included %v", res.Included)
	}
	if _, ok := res.Failed["dead-dc"]; !ok {
		t.Fatalf("failure not reported: %v", res.Failed)
	}
	// The partial sum equals the aggregate over the healthy subset.
	healthy, _, err := CollectSketches(nodes[:3], sensing.GaussianSpec(p))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sketch.Equal(healthy, 1e-9) {
		t.Fatal("partial sketch != healthy-subset aggregate")
	}
}

func TestCollectCtxFailsBelowQuorum(t *testing.T) {
	nodes := []NodeAPI{
		NewLocalNode("ok", make(linalg.Vector, 10)),
		NewFaultyNode("dead1"),
		NewFaultyNode("dead2"),
	}
	p := sensing.Params{M: 4, N: 10, Seed: 25}
	res, err := CollectSketchesCtx(context.Background(), nodes, sensing.GaussianSpec(p), CollectOptions{MinNodes: 2, RetryBackoff: time.Millisecond})
	if err == nil {
		t.Fatal("quorum failure not reported")
	}
	// The evidence comes back with the error: who answered, who did not,
	// after how many attempts — and no sketch to mistake for an aggregate.
	if res == nil || res.Sketch != nil {
		t.Fatalf("below quorum: result %+v", res)
	}
	if len(res.Included) != 1 || res.Included[0] != "ok" || len(res.Failed) != 2 {
		t.Fatalf("included %v failed %v", res.Included, res.Failed)
	}
	for _, id := range []string{"dead1", "dead2"} {
		if ns := res.Nodes[id]; ns.OK || ns.Attempts != 2 || ns.Retries != 1 || ns.Err == "" {
			t.Fatalf("%s stats %+v", id, ns)
		}
	}
	if res.Stats.Attempts != 5 || res.Stats.Messages != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

// slowNode delays each sketch until released (honoring ctx, per the
// NodeAPI contract).
type slowNode struct {
	*LocalNode
	release chan struct{}
}

func (s *slowNode) Sketch(ctx context.Context, spec sensing.Spec) (linalg.Vector, error) {
	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.LocalNode.Sketch(ctx, spec)
}

func TestCollectCtxStragglerTimeout(t *testing.T) {
	global, _ := workload.MajorityDominated(80, 3, 700, 100, 300, 26)
	slices := workload.SplitZeroSumNoise(global, 3, 200, 27)
	release := make(chan struct{})
	nodes := []NodeAPI{
		NewLocalNode("a", slices[0]),
		NewLocalNode("b", slices[1]),
		&slowNode{LocalNode: NewLocalNode("laggard", slices[2]), release: release},
	}
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	p := sensing.Params{M: 20, N: 80, Seed: 28}
	res, err := CollectSketchesCtx(ctx, nodes, sensing.GaussianSpec(p), CollectOptions{MinNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Included) != 2 {
		t.Fatalf("included %v", res.Included)
	}
	for _, id := range res.Included {
		if id == "laggard" {
			t.Fatal("straggler included despite timeout")
		}
	}
}

func TestCollectCtxTimeoutBelowQuorum(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	nodes := []NodeAPI{
		&slowNode{LocalNode: NewLocalNode("s1", make(linalg.Vector, 10)), release: release},
		&slowNode{LocalNode: NewLocalNode("s2", make(linalg.Vector, 10)), release: release},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	p := sensing.Params{M: 4, N: 10, Seed: 29}
	if _, err := CollectSketchesCtx(ctx, nodes, sensing.GaussianSpec(p), CollectOptions{MinNodes: 1}); err == nil {
		t.Fatal("all-straggler collection succeeded")
	}
}

func TestCollectCtxNoNodes(t *testing.T) {
	if _, err := CollectSketchesCtx(context.Background(), nil, sensing.GaussianSpec(sensing.Params{M: 1, N: 1}), CollectOptions{}); err == nil {
		t.Fatal("no nodes accepted")
	}
}
