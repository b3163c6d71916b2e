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
	sum, res, err := collectNodes(context.Background(), nodes, sensing.GaussianSpec(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Included) != 4 {
		t.Fatalf("included %v nodes %+v", res.Included, res.Nodes)
	}
	d, _ := sensing.NewDense(p)
	if !sum.Equal(d.Measure(global, nil), 1e-8) {
		t.Fatal("ctx collection does not match global measurement")
	}
}

func TestCollectCtxToleratesFailuresWithQuorum(t *testing.T) {
	nodes, _, _ := makeCluster(t, 100, 3, 3, 500, 23)
	nodes = append(nodes, newFaultyNode("dead-dc"))
	p := sensing.Params{M: 30, N: 100, Seed: 24}
	sum, res, err := collectNodes(context.Background(), nodes, sensing.GaussianSpec(p), Options{MinNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Included) != 3 {
		t.Fatalf("included %v", res.Included)
	}
	if dead := res.Nodes[3]; dead.ID != "dead-dc" || dead.Included || dead.Err == "" {
		t.Fatalf("failure not reported: %+v", dead)
	}
	// The partial sum equals the aggregate over the healthy subset.
	healthy, _, err := collectNodes(context.Background(), nodes[:3], sensing.GaussianSpec(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(healthy, 1e-9) {
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
	sum, res, err := collectNodes(context.Background(), nodes, sensing.GaussianSpec(p), Options{MinNodes: 2})
	if err == nil {
		t.Fatal("quorum failure not reported")
	}
	// The evidence comes back with the error: who answered, who did not,
	// after how many attempts — and no sketch to mistake for an aggregate.
	if sum != nil {
		t.Fatalf("below quorum: sum %v", sum)
	}
	if len(res.Included) != 1 || res.Included[0] != "ok" {
		t.Fatalf("included %v", res.Included)
	}
	for _, nr := range res.Nodes[1:] {
		if nr.Included || nr.Attempts != 2 || nr.Retries != 1 || nr.Err == "" {
			t.Fatalf("%s report %+v", nr.ID, nr)
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
	sum, _, err := collectNodes(context.Background(), nodes, sensing.GaussianSpec(sensing.Params{M: 1, N: 1}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum[0] != 1 {
		t.Fatalf("aggregate %v, want 1 = (1e16 + -1e16) + 1 in node order", sum[0])
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
	_, res, err := collectNodes(ctx, nodes, sensing.GaussianSpec(p), Options{MinNodes: 2})
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
	if _, _, err := collectNodes(ctx, nodes, sensing.GaussianSpec(p), Options{MinNodes: 1}); err == nil {
		t.Fatal("all-straggler collection succeeded")
	}
}

func TestCollectCtxNoNodes(t *testing.T) {
	if _, r, err := Collect(context.Background(), []string{}, sensing.GaussianSpec(sensing.Params{M: 1, N: 1}), Options{}); err == nil || r != nil {
		t.Fatalf("no addresses: report %+v, error %v", r, err)
	}
}
