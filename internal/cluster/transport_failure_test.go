package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
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
	rn, err := dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = rn.Sketch(ctx, testSpec)
	if err == nil {
		t.Fatal("sketch against a hung node succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not fire: call took %v", elapsed)
	}
	if !isTimeout(err) {
		t.Fatalf("error %v is not a timeout", err)
	}
}

func TestCancelUnblocksHungExchange(t *testing.T) {
	// A cancel without a deadline sets none on the connection: only the
	// cancel's callback can unpark a read that is stuck on a wedged node.
	s := startChaos(t, NewLocalNode("wedged", testVector()))
	s.SetBehavior(BehaveHang)
	rn, err := dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	if _, err := rn.Sketch(ctx, testSpec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sketch returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation did not unblock the read: call took %v", elapsed)
	}
}

// TestTransparentRedialAfterMidStreamDisconnect: a node that hangs up
// mid-exchange costs its caller nothing but a retry. The RemoteNode
// makes one exchange and poisons the broken connection; the collector's
// second attempt re-dials and gets the sketch.
func TestTransparentRedialAfterMidStreamDisconnect(t *testing.T) {
	node := NewLocalNode("flaky", testVector())
	s := startChaos(t, node)
	s.FailFirst(1)
	rn, err := dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	sum, res, err := collectNodes(context.Background(), []NodeAPI{rn}, testSpec, Options{})
	if err != nil {
		t.Fatalf("collection did not survive a mid-stream disconnect: %v", err)
	}
	want, _ := node.Sketch(context.Background(), testSpec)
	if !sum.Equal(want, 0) {
		t.Fatal("retried sketch differs from direct computation")
	}
	if nr := res.Nodes[0]; nr.Attempts != 2 || nr.Retries != 1 {
		t.Fatalf("node report %+v, want exactly 2 attempts and 1 retry", nr)
	}
	if n := rn.redials.Load(); n != 1 {
		t.Fatalf("%d redials, want exactly 1", n)
	}
}

// TestGarbageResponsePoisonsConnection: a reply that is not a frame
// fails its one exchange, and the poisoned connection is replaced on
// the next call once the node behaves.
func TestGarbageResponsePoisonsConnection(t *testing.T) {
	node := NewLocalNode("byzantine", testVector())
	s := startChaos(t, node)
	s.SetBehavior(BehaveGarbage)
	rn, err := dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	req, _ := SketchRequestFrame(testSpec)
	before := rn.bytesWritten.Load()
	if _, err := rn.Sketch(context.Background(), testSpec); err == nil {
		t.Fatal("garbage response accepted as a sketch")
	}
	if sent := rn.bytesWritten.Load() - before; sent != int64(len(req)) {
		t.Fatalf("sent %d bytes, want one %d-byte request: a RemoteNode does not retry", sent, len(req))
	}
	s.SetBehavior(behaveOK)
	if _, err := rn.Sketch(context.Background(), testSpec); err != nil {
		t.Fatalf("sketch after garbage recovery: %v", err)
	}
	if n := rn.redials.Load(); n != 1 {
		t.Fatalf("%d redials, want the poisoned connection replaced once", n)
	}
}

// TestRedialAfterNodeRestart: the connection to a node that restarted is
// dead; the exchange on it fails, and the collector's retry dials the
// new process.
func TestRedialAfterNodeRestart(t *testing.T) {
	node := NewLocalNode("rebooted", testVector())
	s := startChaos(t, node)
	rn, err := dial(s.Addr())
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

	sum, res, err := collectNodes(context.Background(), []NodeAPI{rn}, testSpec, Options{})
	if err != nil {
		t.Fatalf("collection did not survive a node restart: %v", err)
	}
	want, _ := node.Sketch(context.Background(), testSpec)
	if !sum.Equal(want, 0) {
		t.Fatal("post-restart sketch differs from direct computation")
	}
	if nr := res.Nodes[0]; nr.Attempts != 2 {
		t.Fatalf("node report %+v, want the stale connection's attempt and one more", nr)
	}
	if n := rn.redials.Load(); n != 1 {
		t.Fatalf("%d redials, want exactly 1", n)
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
	// The round's deadline is what drops the stragglers once the quorum
	// is in, as csagg -timeout does.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	p := sensing.Params{M: 16, N: 60, Seed: 53}
	_, res, err := collectNodes(ctx, nodes, sensing.GaussianSpec(p), Options{MinNodes: 3})
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

	var nodes []NodeAPI
	var remotes []*RemoteNode
	for _, s := range servers {
		rn, err := dial(s.Addr())
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
	sum, res, err := collectNodes(ctx, nodes, sensing.GaussianSpec(p), Options{
		MinNodes:    2,
		MaxAttempts: 2,
		NodeTimeout: 250 * time.Millisecond,
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

	// The quorum aggregate is exactly the healthy nodes' sum.
	want, _ := locals[0].Sketch(context.Background(), sensing.GaussianSpec(p))
	wb, _ := locals[1].Sketch(context.Background(), sensing.GaussianSpec(p))
	sensing.AddSketch(want, wb)
	if !sum.Equal(want, 1e-12) {
		t.Fatal("quorum aggregate != healthy-subset sum")
	}

	// Per-node accounting: the hung node burned both attempts on
	// deadlines; the crashed node burned both without timing out (EOF,
	// then connection refused); healthy nodes needed one attempt.
	hung := res.Nodes[2]
	if hung.Included || hung.Err == "" || hung.Attempts != 2 || hung.Retries != 1 || hung.Timeouts != 2 {
		t.Fatalf("hung node report %+v", hung)
	}
	crashed := res.Nodes[3]
	if crashed.Included || crashed.Err == "" || crashed.Attempts != 2 || crashed.Retries != 1 {
		t.Fatalf("crashed node report %+v", crashed)
	}
	for _, nr := range res.Nodes[:2] {
		if !nr.Included || nr.Attempts != 1 {
			t.Fatalf("%s report %+v", nr.ID, nr)
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

// behaveOK is the zero Behavior: a chaos node that answers normally.
const behaveOK Behavior = 0

// Restart re-listens on s's address after Stop, as a rebooted node would.
func (s *ChaosServer) Restart() error {
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return fmt.Errorf("cluster: chaos restart: %w", err)
	}
	s.run(ln)
	return nil
}

// dial connects to a node at addr, giving up after five seconds.
func dial(addr string) (*RemoteNode, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return Dial(ctx, addr)
}
