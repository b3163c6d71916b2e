package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
)

func TestCollectCtxAllHealthy(t *testing.T) {
	nodes, global, _ := makeCluster(t, 120, 4, 4, 900, 21)
	p := sensing.Params{M: 40, N: 120, Seed: 22}
	res, err := CollectSketches(context.Background(), nodes, sensing.GaussianSpec(p), CollectOptions{})
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
	nodes = append(nodes, newFaultyNode("dead-dc"))
	p := sensing.Params{M: 30, N: 100, Seed: 24}
	res, err := CollectSketches(context.Background(), nodes, sensing.GaussianSpec(p), CollectOptions{MinNodes: 3})
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
	healthy, err := CollectSketches(context.Background(), nodes[:3], sensing.GaussianSpec(p), CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sketch.Equal(healthy.Sketch, 1e-9) {
		t.Fatal("partial sketch != healthy-subset aggregate")
	}
}

func TestCollectCtxFailsBelowQuorum(t *testing.T) {
	nodes := []NodeAPI{
		NewLocalNode("ok", make(linalg.Vector, 10)),
		newFaultyNode("dead1"),
		newFaultyNode("dead2"),
	}
	p := sensing.Params{M: 4, N: 10, Seed: 25}
	res, err := CollectSketches(context.Background(), nodes, sensing.GaussianSpec(p), CollectOptions{MinNodes: 2})
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

// faultyNode fails every request — a stand-in for a crashed or
// partitioned data center.
type faultyNode struct{ name string }

func newFaultyNode(name string) NodeAPI { return &faultyNode{name: name} }

func (f *faultyNode) ID() string { return f.name }
func (f *faultyNode) Sketch(context.Context, sensing.Spec) (linalg.Vector, error) {
	return nil, fmt.Errorf("cluster: node %s unavailable", f.name)
}

// fixedNode answers every sketch request with y after delay.
type fixedNode struct {
	name  string
	y     linalg.Vector
	delay time.Duration
}

func (f *fixedNode) ID() string { return f.name }
func (f *fixedNode) Sketch(ctx context.Context, _ sensing.Spec) (linalg.Vector, error) {
	select {
	case <-time.After(f.delay):
		return f.y.Clone(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestCollectSumsInNodeOrder: the nodes answer last-to-first, and the
// aggregate is still (y₀ + y₁) + y₂ — floating-point addition does not
// associate, so only a fixed order gives one membership one set of bits.
func TestCollectSumsInNodeOrder(t *testing.T) {
	ys := []linalg.Vector{{1e16}, {-1e16}, {1}} // in node order 1; last-to-first 0
	nodes := make([]NodeAPI, len(ys))
	for i, y := range ys {
		nodes[i] = &fixedNode{name: fmt.Sprint("n", i), y: y, delay: time.Duration(len(ys)-i) * 20 * time.Millisecond}
	}
	res, err := CollectSketches(context.Background(), nodes, sensing.GaussianSpec(sensing.Params{M: 1, N: 1}), CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sketch[0] != 1 {
		t.Fatalf("aggregate %v, want 1 = (1e16 + -1e16) + 1 in node order", res.Sketch[0])
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
	res, err := CollectSketches(ctx, nodes, sensing.GaussianSpec(p), CollectOptions{MinNodes: 2})
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
	if _, err := CollectSketches(ctx, nodes, sensing.GaussianSpec(p), CollectOptions{MinNodes: 1}); err == nil {
		t.Fatal("all-straggler collection succeeded")
	}
}

func TestCollectCtxNoNodes(t *testing.T) {
	if _, err := CollectSketches(context.Background(), []NodeAPI(nil), sensing.GaussianSpec(sensing.Params{M: 1, N: 1}), CollectOptions{}); err == nil {
		t.Fatal("no nodes accepted")
	}
}
