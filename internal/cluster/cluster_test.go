package cluster

import (
	"context"
	"math"
	"net"
	"sort"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
)

func makeCluster(t *testing.T, n, s, nodes int, mode float64, seed uint64) ([]NodeAPI, linalg.Vector, []int) {
	t.Helper()
	global, support := workload.MajorityDominated(n, s, mode, 200, 900, seed)
	slices := workload.SplitZeroSumNoise(global, nodes, mode/5, seed+1)
	apis := make([]NodeAPI, nodes)
	for i, sl := range slices {
		apis[i] = NewLocalNode("dc"+string(rune('0'+i)), sl)
	}
	return apis, global, support
}

func TestCollectSketchesEqualsGlobalMeasurement(t *testing.T) {
	nodes, global, _ := makeCluster(t, 150, 6, 5, 1800, 1)
	p := sensing.Params{M: 60, N: 150, Seed: 9}
	y, stats, err := CollectSketches(nodes, sensing.GaussianSpec(p))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := sensing.NewDense(p)
	want := d.Measure(global, nil)
	if !y.Equal(want, 1e-8) {
		t.Fatal("sum of node sketches != sketch of global aggregate")
	}
	if stats.Bytes != int64(5*60*8) {
		t.Fatalf("Bytes = %d, want %d", stats.Bytes, 5*60*8)
	}
	if stats.Rounds != 1 || stats.Messages != 5 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCollectSketchesNoNodes(t *testing.T) {
	if _, _, err := CollectSketches(nil, sensing.GaussianSpec(sensing.Params{M: 2, N: 2})); err == nil {
		t.Fatal("no nodes accepted")
	}
}

func TestCollectSketchesDimensionError(t *testing.T) {
	nodes := []NodeAPI{NewLocalNode("a", make(linalg.Vector, 10))}
	if _, _, err := CollectSketches(nodes, sensing.GaussianSpec(sensing.Params{M: 4, N: 11, Seed: 1})); err == nil {
		t.Fatal("mismatched N accepted")
	}
}

func TestDetectEndToEnd(t *testing.T) {
	const n, s, k = 300, 8, 5
	const mode = 1800.0
	nodes, global, _ := makeCluster(t, n, s, 4, mode, 2)
	p := sensing.Params{M: 120, N: n, Seed: 10}
	res, err := Detect(nodes, p, k, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mode-mode) > 1 {
		t.Fatalf("mode = %v, want %v", res.Mode, mode)
	}
	truth := outlier.TrueOutliers(global, mode, k)
	if ek := outlier.ErrorOnKey(truth, res.Outliers); ek != 0 {
		t.Fatalf("EK = %v with M=%d", ek, p.M)
	}
	if ev := outlier.ErrorOnValue(truth, res.Outliers); ev > 0.01 {
		t.Fatalf("EV = %v", ev)
	}
}

func TestLocalNodeSampleValues(t *testing.T) {
	n := NewLocalNode("x", linalg.Vector{10, 20, 30})
	vs, err := n.SampleValues(context.Background(), []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if vs[0] != 30 || vs[1] != 10 {
		t.Fatalf("SampleValues = %v", vs)
	}
	if _, err := n.SampleValues(context.Background(), []int{3}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestLocalNodeLocalOutliers(t *testing.T) {
	n := NewLocalNode("x", linalg.Vector{5, 5, 100, 5, -60})
	kvs, err := n.LocalOutliers(context.Background(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 1 || kvs[0].Index != 2 {
		t.Fatalf("LocalOutliers = %v", kvs)
	}
}

func TestLocalNodeUpdateChangesSketch(t *testing.T) {
	// Incremental data arrival (paper §1 challenge 2): after Update, the
	// node's sketch equals the sketch of the updated slice, and the old
	// global sketch can be patched by adding the delta's sketch.
	p := sensing.Params{M: 30, N: 50, Seed: 3}
	x, _ := workload.MajorityDominated(50, 3, 100, 10, 40, 4)
	n := NewLocalNode("x", x.Clone())
	before, err := n.Sketch(context.Background(), sensing.GaussianSpec(p))
	if err != nil {
		t.Fatal(err)
	}
	delta := make(linalg.Vector, 50)
	delta[7] = 500
	if err := n.Update(delta); err != nil {
		t.Fatal(err)
	}
	after, err := n.Sketch(context.Background(), sensing.GaussianSpec(p))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := sensing.NewDense(p)
	patched := before.Clone()
	sensing.AddSketch(patched, d.Measure(delta, nil))
	if !patched.Equal(after, 1e-9) {
		t.Fatal("patched sketch != re-measured sketch")
	}
	if err := n.Update(make(linalg.Vector, 49)); err == nil {
		t.Fatal("wrong-length update accepted")
	}
}

func TestNodeRemovalBySketchSubtraction(t *testing.T) {
	// Paper §1 challenge 3: removing a data center = subtracting its
	// sketch. Detection on the remaining nodes must equal detection on a
	// cluster that never contained it.
	nodes, _, _ := makeCluster(t, 200, 5, 4, 1000, 5)
	p := sensing.Params{M: 80, N: 200, Seed: 11}
	all, _, err := CollectSketches(nodes, sensing.GaussianSpec(p))
	if err != nil {
		t.Fatal(err)
	}
	leaving, err := nodes[3].Sketch(context.Background(), sensing.GaussianSpec(p))
	if err != nil {
		t.Fatal(err)
	}
	sensing.SubSketch(all, leaving)
	remaining, _, err := CollectSketches(nodes[:3], sensing.GaussianSpec(p))
	if err != nil {
		t.Fatal(err)
	}
	if !all.Equal(remaining, 1e-8) {
		t.Fatal("subtracted sketch != sketch of remaining nodes")
	}
}

func startServer(t *testing.T, node NodeAPI) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(ln, node)
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func TestTCPTransportAllMethods(t *testing.T) {
	x := linalg.Vector{5, 5, 100, 5, -60}
	addr := startServer(t, NewLocalNode("dc-tokyo", x))
	rn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	if rn.ID() != "dc-tokyo" {
		t.Fatalf("ID = %q", rn.ID())
	}
	p := sensing.Params{M: 3, N: 5, Seed: 12}
	y, err := rn.Sketch(context.Background(), sensing.GaussianSpec(p))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := sensing.NewDense(p)
	if !y.Equal(d.Measure(x, nil), 1e-9) {
		t.Fatal("remote sketch mismatch")
	}
	full, err := rn.FullVector(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !full.Equal(x, 0) {
		t.Fatal("remote full vector mismatch")
	}
	vs, err := rn.SampleValues(context.Background(), []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if vs[0] != -60 || vs[1] != 100 {
		t.Fatalf("remote SampleValues = %v", vs)
	}
	kvs, err := rn.LocalOutliers(context.Background(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Index != 2 || kvs[1].Index != 4 {
		t.Fatalf("remote LocalOutliers = %v", kvs)
	}
	// Errors must propagate as errors, not crashes.
	if _, err := rn.Sketch(context.Background(), sensing.GaussianSpec(sensing.Params{M: 3, N: 99, Seed: 1})); err == nil {
		t.Fatal("remote dimension error not propagated")
	}
	// The connection must survive an error response.
	if _, err := rn.FullVector(context.Background()); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestTCPDetectEndToEnd(t *testing.T) {
	// Full paper pipeline over real sockets.
	const n, s, k = 200, 6, 4
	nodes, global, _ := makeCluster(t, n, s, 3, 1800, 6)
	remotes := make([]NodeAPI, len(nodes))
	for i, nd := range nodes {
		addr := startServer(t, nd)
		rn, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer rn.Close()
		remotes[i] = rn
	}
	p := sensing.Params{M: 100, N: n, Seed: 13}
	res, err := Detect(remotes, p, k, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := outlier.TrueOutliers(global, 1800, k)
	if ek := outlier.ErrorOnKey(truth, res.Outliers); ek != 0 {
		t.Fatalf("EK over TCP = %v", ek)
	}
}

func TestDialRefused(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestCommStatsAdd(t *testing.T) {
	a := CommStats{Bytes: 10, Messages: 1, Rounds: 1}
	a.Add(CommStats{Bytes: 5, Messages: 2, Rounds: 3})
	if a.Bytes != 15 || a.Messages != 3 || a.Rounds != 3 {
		t.Fatalf("Add = %+v", a)
	}
}

func TestDetectOrderedByDivergence(t *testing.T) {
	nodes, _, _ := makeCluster(t, 250, 7, 3, 500, 7)
	p := sensing.Params{M: 110, N: 250, Seed: 14}
	res, err := Detect(nodes, p, 7, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	divs := make([]float64, len(res.Outliers))
	for i, kv := range res.Outliers {
		divs[i] = math.Abs(kv.Value - res.Mode)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(divs))) {
		t.Fatalf("outliers not sorted by divergence: %v", divs)
	}
}
