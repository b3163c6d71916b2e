package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
)

// startChaos wraps StartChaos with test lifecycle management.
func startChaos(t *testing.T, node NodeAPI) *ChaosServer {
	t.Helper()
	s, err := StartChaos(node)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// assertNoGoroutineLeak waits for the goroutine count to settle back to
// the baseline captured before the test body ran.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline {
		t.Fatalf("goroutine leak: %d running, baseline was %d", n, baseline)
	}
}

var testSpec = sensing.GaussianSpec(sensing.Params{M: 8, N: 20, Seed: 3})

func testVector() linalg.Vector {
	x := make(linalg.Vector, 20)
	for i := range x {
		x[i] = float64(i)
	}
	return x
}

func TestSketchDeadlineOnHungNode(t *testing.T) {
	s := startChaos(t, NewLocalNode("wedged", testVector()))
	s.SetBehavior(BehaveHang)
	rn, err := DialContext(context.Background(), s.Addr(), DialOptions{
		RequestTimeout: 150 * time.Millisecond,
		MaxRetries:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	start := time.Now()
	_, err = rn.Sketch(context.Background(), testSpec)
	if err == nil {
		t.Fatal("sketch against a hung node succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not fire: call took %v", elapsed)
	}
	h := rn.Health()
	if h.Timeouts != 1 || h.Failures != 1 {
		t.Fatalf("health %+v, want 1 timeout and 1 failure", h)
	}
}

func TestCancelUnblocksHungExchange(t *testing.T) {
	// With per-request deadlines disabled, only the watchdog can unpark a
	// read that is stuck on a wedged node.
	s := startChaos(t, NewLocalNode("wedged", testVector()))
	s.SetBehavior(BehaveHang)
	rn, err := DialContext(context.Background(), s.Addr(), DialOptions{
		RequestTimeout: -1,
		MaxRetries:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := rn.Sketch(ctx, testSpec); err == nil {
		t.Fatal("cancelled sketch succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation did not unblock the read: call took %v", elapsed)
	}
}

func TestTransparentRedialAfterMidStreamDisconnect(t *testing.T) {
	node := NewLocalNode("flaky", testVector())
	s := startChaos(t, node)
	s.FailFirst(1)
	rn, err := DialContext(context.Background(), s.Addr(), DialOptions{BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	got, err := rn.Sketch(context.Background(), testSpec)
	if err != nil {
		t.Fatalf("sketch did not survive a mid-stream disconnect: %v", err)
	}
	want, _ := node.Sketch(context.Background(), testSpec)
	if !got.Equal(want, 0) {
		t.Fatal("retried sketch differs from direct computation")
	}
	h := rn.Health()
	if h.Retries != 1 || h.Redials != 1 {
		t.Fatalf("health %+v, want exactly 1 retry and 1 redial", h)
	}
}

func TestGarbageResponsePoisonsConnection(t *testing.T) {
	node := NewLocalNode("byzantine", testVector())
	s := startChaos(t, node)
	s.SetBehavior(BehaveGarbage)
	rn, err := DialContext(context.Background(), s.Addr(), DialOptions{
		MaxRetries:  1,
		BaseBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	if _, err := rn.Sketch(context.Background(), testSpec); err == nil {
		t.Fatal("garbage response accepted as a sketch")
	}
	// 3 attempts: the dial handshake plus both poisoned sketch exchanges.
	h := rn.Health()
	if h.Attempts != 3 || h.Failures != 1 {
		t.Fatalf("health %+v, want 3 attempts and 1 failure", h)
	}
	// The stream desynced, but the node recovers: once it behaves, the
	// poisoned connection is replaced and requests succeed again.
	s.SetBehavior(BehaveOK)
	if _, err := rn.Sketch(context.Background(), testSpec); err != nil {
		t.Fatalf("sketch after garbage recovery: %v", err)
	}
}

func TestRedialAfterNodeRestart(t *testing.T) {
	node := NewLocalNode("rebooted", testVector())
	s := startChaos(t, node)
	rn, err := DialContext(context.Background(), s.Addr(), DialOptions{BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	if _, err := rn.Sketch(context.Background(), testSpec); err != nil {
		t.Fatal(err)
	}

	s.Stop()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}

	got, err := rn.Sketch(context.Background(), testSpec)
	if err != nil {
		t.Fatalf("sketch did not survive a node restart: %v", err)
	}
	want, _ := node.Sketch(context.Background(), testSpec)
	if !got.Equal(want, 0) {
		t.Fatal("post-restart sketch differs from direct computation")
	}
	if h := rn.Health(); h.Redials < 1 {
		t.Fatalf("health %+v, want at least 1 redial", h)
	}
}

func TestCollectorLeaksNoGoroutines(t *testing.T) {
	// Regression: the pre-hardening collector leaked one goroutine per
	// straggler (the abandoned worker blocked forever on node.Sketch).
	baseline := runtime.NumGoroutine()

	release := make(chan struct{})
	global, _ := workload.MajorityDominated(60, 3, 400, 80, 900, 51)
	slices := workload.SplitZeroSumNoise(global, 6, 100, 52)
	nodes := make([]NodeAPI, 6)
	for i, sl := range slices {
		if i < 3 {
			nodes[i] = NewLocalNode("ok"+string(rune('0'+i)), sl)
		} else {
			nodes[i] = &slowNode{LocalNode: NewLocalNode("slow"+string(rune('0'+i)), sl), release: release}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p := sensing.Params{M: 16, N: 60, Seed: 53}
	res, err := CollectSketchesCtx(ctx, nodes, sensing.GaussianSpec(p), CollectOptions{
		MinNodes:    3,
		QuorumGrace: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Included) != 3 {
		t.Fatalf("included %v", res.Included)
	}
	// The stragglers were never released: if their workers survived the
	// collection, the count below stays elevated.
	assertNoGoroutineLeak(t, baseline)
	close(release)
}

// TestQuorumCollectionWithHungAndCrashedNodes is the acceptance scenario:
// two healthy TCP nodes, one that hangs mid-collection and one whose
// process dies mid-collection. The collection must return the quorum
// aggregate well within the deadline, leak nothing, and account for
// every retry and timeout per node.
func TestQuorumCollectionWithHungAndCrashedNodes(t *testing.T) {
	baseline := runtime.NumGoroutine()

	global, _ := workload.MajorityDominated(60, 3, 900, 100, 2000, 61)
	slices := workload.SplitZeroSumNoise(global, 4, 150, 62)
	locals := make([]*LocalNode, 4)
	servers := make([]*ChaosServer, 4)
	names := []string{"healthy-a", "healthy-b", "hung", "crashed"}
	for i := range servers {
		locals[i] = NewLocalNode(names[i], slices[i])
		servers[i] = startChaos(t, locals[i])
	}
	servers[2].SetBehavior(BehaveHang)
	servers[3].SetBehavior(BehaveCrash)

	dialOpts := DialOptions{
		RequestTimeout: 250 * time.Millisecond,
		MaxRetries:     -1, // retries belong to the collector in this test
		BaseBackoff:    time.Millisecond,
	}
	var nodes []NodeAPI
	var remotes []*RemoteNode
	for _, s := range servers {
		rn, err := DialContext(context.Background(), s.Addr(), dialOpts)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, rn)
		remotes = append(remotes, rn)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p := sensing.Params{M: 20, N: 60, Seed: 63}
	start := time.Now()
	res, err := CollectSketchesCtx(ctx, nodes, sensing.GaussianSpec(p), CollectOptions{
		MinNodes:     2,
		MaxAttempts:  2,
		NodeTimeout:  250 * time.Millisecond,
		RetryBackoff: 10 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed >= 5*time.Second {
		t.Fatalf("collection missed the deadline: %v", elapsed)
	}
	if len(res.Included) != 2 || res.Included[0] != "healthy-a" || res.Included[1] != "healthy-b" {
		t.Fatalf("included %v", res.Included)
	}
	for _, id := range []string{"hung", "crashed"} {
		if _, ok := res.Failed[id]; !ok {
			t.Fatalf("%s not reported failed: %v", id, res.Failed)
		}
	}

	// The quorum aggregate is exactly the healthy nodes' sum.
	want, _ := locals[0].Sketch(context.Background(), sensing.GaussianSpec(p))
	wb, _ := locals[1].Sketch(context.Background(), sensing.GaussianSpec(p))
	sensing.AddSketch(want, wb)
	if !res.Sketch.Equal(want, 1e-12) {
		t.Fatal("quorum aggregate != healthy-subset sum")
	}

	// Per-node accounting: the hung node burned both attempts on
	// deadlines; the crashed node burned both without timing out (EOF,
	// then connection refused); healthy nodes needed one attempt.
	hung := res.Nodes["hung"]
	if hung.Attempts != 2 || hung.Retries != 1 || hung.Timeouts != 2 {
		t.Fatalf("hung node stats %+v", hung)
	}
	crashed := res.Nodes["crashed"]
	if crashed.Attempts != 2 || crashed.Retries != 1 {
		t.Fatalf("crashed node stats %+v", crashed)
	}
	for _, id := range []string{"healthy-a", "healthy-b"} {
		if ns := res.Nodes[id]; !ns.OK || ns.Attempts != 1 {
			t.Fatalf("%s stats %+v", id, ns)
		}
	}
	if res.Stats.Attempts != 6 || res.Stats.Retries != 2 || res.Stats.Timeouts < 2 {
		t.Fatalf("aggregate stats %+v", res.Stats)
	}

	// Zero leaked goroutines once the connections are released.
	for _, rn := range remotes {
		rn.Close()
	}
	for _, s := range servers {
		s.Stop()
	}
	assertNoGoroutineLeak(t, baseline)
}
