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

// collectNodes runs the collector over nodes as Collect does over the
// ones it dialed: opts resolved, every node's ID in its record.
func collectNodes(ctx context.Context, nodes []NodeAPI, spec sensing.Spec, opts Options) (linalg.Vector, *Round, error) {
	r := &Round{Nodes: make([]NodeReport, len(nodes))}
	for i, n := range nodes {
		r.Nodes[i].ID = n.ID()
	}
	sum, err := collect(ctx, nodes, spec, opts.resolve(len(nodes)), r)
	return sum, r, err
}

func TestCollectSketchesEqualsGlobalMeasurement(t *testing.T) {
	nodes, global, _ := makeCluster(t, 150, 6, 5, 1800, 1)
	p := sensing.Params{M: 60, N: 150, Seed: 9}
	sum, res, err := collectNodes(context.Background(), nodes, sensing.GaussianSpec(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Stats
	d, _ := sensing.NewDense(p)
	want := d.Measure(global, nil)
	if !sum.Equal(want, 1e-8) {
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
	if _, r, err := Collect(context.Background(), nil, sensing.GaussianSpec(sensing.Params{M: 2, N: 2}), Options{}); err == nil || r != nil {
		t.Fatalf("no addresses: report %+v, error %v", r, err)
	}
}

func TestCollectSketchesDimensionError(t *testing.T) {
	nodes := []NodeAPI{NewLocalNode("a", make(linalg.Vector, 10))}
	spec := sensing.GaussianSpec(sensing.Params{M: 4, N: 11, Seed: 1})
	if _, _, err := collectNodes(context.Background(), nodes, spec, Options{}); err == nil {
		t.Fatal("mismatched N accepted")
	}
}

// detect runs the paper's round over the pull protocol: collect every
// node's sketch, recover with BOMP at the R = f(k) budget, and keep the
// k entries furthest from the recovered mode.
func detect(t *testing.T, nodes []NodeAPI, spec sensing.Spec, k int) ([]outlier.KV, float64, Stats) {
	t.Helper()
	sum, r, err := collectNodes(context.Background(), nodes, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sensing.New(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := recovery.NewWorkspace().BOMP(m, sum, recovery.Options{MaxIterations: recovery.IterationBudget(k)})
	if err != nil {
		t.Fatalf("%v: %v", spec.Kind, err)
	}
	return res.Outliers(k), res.Mode, r.Stats
}

func TestDetectEndToEnd(t *testing.T) {
	const n, s, k = 300, 8, 5
	const mode = 1800.0
	nodes, global, _ := makeCluster(t, n, s, 4, mode, 2)
	p := sensing.Params{M: 120, N: n, Seed: 10}
	got, gotMode, _ := detect(t, nodes, sensing.GaussianSpec(p), k)
	if math.Abs(gotMode-mode) > 1 {
		t.Fatalf("mode = %v, want %v", gotMode, mode)
	}
	truth := outlier.TopK(global, mode, k)
	if ek := outlier.ErrorOnKey(truth, got); ek != 0 {
		t.Fatalf("EK = %v with M=%d", ek, p.M)
	}
	if ev := outlier.ErrorOnValue(truth, got); ev > 0.01 {
		t.Fatalf("EV = %v", ev)
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
	ctx := context.Background()
	all, _, err := collectNodes(ctx, nodes, sensing.GaussianSpec(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	leaving, err := nodes[3].Sketch(ctx, sensing.GaussianSpec(p))
	if err != nil {
		t.Fatal(err)
	}
	all.AddScaled(-1, leaving)
	remaining, _, err := collectNodes(ctx, nodes[:3], sensing.GaussianSpec(p), Options{})
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

// TestTCPTransportAllMethods drives both requests the pull wire carries,
// ID (at Dial) and Sketch, under both ensembles, plus an error reply.
func TestTCPTransportAllMethods(t *testing.T) {
	x := linalg.Vector{5, 5, 100, 5, -60}
	addr := startServer(t, NewLocalNode("dc-tokyo", x))
	rn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	if rn.ID() != "dc-tokyo" {
		t.Fatalf("ID = %q", rn.ID())
	}
	ctx := context.Background()
	for _, spec := range []sensing.Spec{
		sensing.GaussianSpec(sensing.Params{M: 3, N: 5, Seed: 12}),
		{Params: sensing.Params{M: 4, N: 5, Seed: 12}, Kind: sensing.KindCountSketch, D: 2},
	} {
		y, err := rn.Sketch(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := sensing.New(spec, 0)
		if !bitsEqual(y, m.Measure(x, nil)) {
			t.Fatalf("%v: remote sketch mismatch", spec.Kind)
		}
	}
	// Errors must propagate as errors, not crashes.
	if _, err := rn.Sketch(ctx, sensing.GaussianSpec(sensing.Params{M: 3, N: 99, Seed: 1})); err == nil {
		t.Fatal("remote dimension error not propagated")
	}
	// The connection must survive an error response.
	if _, err := rn.Sketch(ctx, sensing.GaussianSpec(sensing.Params{M: 3, N: 5, Seed: 12})); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
	if n := rn.redials.Load(); n != 0 {
		t.Fatalf("%d redials, want every exchange on one connection", n)
	}
}

func TestTCPDetectEndToEnd(t *testing.T) {
	// Full paper pipeline over real sockets.
	const n, s, k = 200, 6, 4
	nodes, global, _ := makeCluster(t, n, s, 3, 1800, 6)
	remotes := make([]NodeAPI, len(nodes))
	for i, nd := range nodes {
		addr := startServer(t, nd)
		rn, err := dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer rn.Close()
		remotes[i] = rn
	}
	p := sensing.Params{M: 100, N: n, Seed: 13}
	got, _, _ := detect(t, remotes, sensing.GaussianSpec(p), k)
	truth := outlier.TopK(global, 1800, k)
	if ek := outlier.ErrorOnKey(truth, got); ek != 0 {
		t.Fatalf("EK over TCP = %v", ek)
	}
}

func TestDialRefused(t *testing.T) {
	if _, err := dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestDetectOrderedByDivergence(t *testing.T) {
	nodes, _, _ := makeCluster(t, 250, 7, 3, 500, 7)
	p := sensing.Params{M: 110, N: 250, Seed: 14}
	got, mode, _ := detect(t, nodes, sensing.GaussianSpec(p), 7)
	divs := make([]float64, len(got))
	for i, kv := range got {
		divs[i] = math.Abs(kv.Value - mode)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(divs))) {
		t.Fatalf("outliers not sorted by divergence: %v", divs)
	}
}
