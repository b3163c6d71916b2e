package tier

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"csoutlier"
	"csoutlier/internal/obs"
	"csoutlier/internal/stream"
	"csoutlier/internal/xrand"
)

func tierSketcher(t testing.TB, n, m int, seed uint64) *csoutlier.Sketcher {
	t.Helper()
	sk, err := csoutlier.NewSketcher(testKeys(n), csoutlier.Config{M: m, Seed: seed})
	if err != nil {
		t.Fatalf("NewSketcher: %v", err)
	}
	return sk
}

// serveRoot starts a plain aggregator on a loopback listener.
func serveRoot(t *testing.T, sk *csoutlier.Sketcher, opts stream.AggregatorOptions) (*stream.Aggregator, string) {
	t.Helper()
	return serveRootAt(t, sk, opts, "127.0.0.1:0")
}

// serveRootAt is serveRoot on a given address: a restart on the address
// its relays already dial.
func serveRootAt(t *testing.T, sk *csoutlier.Sketcher, opts stream.AggregatorOptions, addr string) (*stream.Aggregator, string) {
	t.Helper()
	agg, err := stream.NewAggregator(sk, opts)
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	go agg.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		agg.Close(ctx)
	})
	return agg, ln.Addr().String()
}

// serveRelay starts a relay's leaf listener.
func serveRelay(t *testing.T, r *Relay) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go r.Serve(ln)
	return ln.Addr().String()
}

func sameBits(t *testing.T, what string, got, want csoutlier.Sketch) {
	t.Helper()
	if len(got.Y) != len(want.Y) {
		t.Fatalf("%s: sketch length %d, want %d", what, len(got.Y), len(want.Y))
	}
	for i := range got.Y {
		if math.Float64bits(got.Y[i]) != math.Float64bits(want.Y[i]) {
			t.Fatalf("%s: Y[%d] = %v, want %v (bit-exact)", what, i, got.Y[i], want.Y[i])
		}
	}
}

// testProxy is a retargetable TCP forwarder, so a leaf node's fixed
// dial address can survive a relay kill/restore that changes the real
// listener. (The simtest soak uses its chaos proxy for the same job;
// this one never corrupts or drops.)
type testProxy struct {
	ln     net.Listener
	mu     sync.Mutex
	target string
}

func startTestProxy(t *testing.T, target string) *testProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &testProxy{ln: ln, target: target}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go p.pipe(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *testProxy) Addr() string { return p.ln.Addr().String() }

func (p *testProxy) Retarget(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
}

func (p *testProxy) pipe(client net.Conn) {
	p.mu.Lock()
	target := p.target
	p.mu.Unlock()
	backend, err := net.Dial("tcp", target)
	if err != nil {
		client.Close()
		return
	}
	go func() {
		io.Copy(backend, client)
		backend.Close()
		client.Close()
	}()
	io.Copy(client, backend)
	backend.Close()
	client.Close()
}

// TestRelayForwardExact drives two leaves through a relay over real TCP
// and checks that the root's windows are bit-identical to the shadow
// accumulation of the same deltas in the same order — the linearity
// argument made concrete: one upward frame per window carries exactly
// the fold of every leaf delta below it.
func TestRelayForwardExact(t *testing.T) {
	sk := tierSketcher(t, 128, 64, 7)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 4})
	relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	relayAddr := serveRelay(t, relay)
	t.Cleanup(func() { relay.Close(ctx) })

	const L = 2
	leaves := make([]*stream.Node, L)
	shadow := make([]*csoutlier.Updater, L)
	for l := range leaves {
		n, err := stream.Dial(ctx, relayAddr, sk, fmt.Sprintf("node%02d", l), stream.NodeOptions{})
		if err != nil {
			t.Fatalf("Dial leaf %d: %v", l, err)
		}
		leaves[l] = n
		shadow[l] = sk.NewUpdater()
	}
	observe := func(l int, key string, v float64) {
		t.Helper()
		if err := leaves[l].Observe(key, v); err != nil {
			t.Fatalf("leaf %d observe: %v", l, err)
		}
		if err := shadow[l].Observe(key, v); err != nil {
			t.Fatalf("shadow %d observe: %v", l, err)
		}
	}
	scratch := sk.ZeroSketch()
	flush := func(l int, acc csoutlier.Sketch) {
		t.Helper()
		if err := leaves[l].Flush(ctx); err != nil {
			t.Fatalf("leaf %d flush: %v", l, err)
		}
		if _, err := shadow[l].DrainInto(scratch); err != nil {
			t.Fatalf("shadow %d drain: %v", l, err)
		}
		if err := acc.Add(scratch); err != nil {
			t.Fatalf("acc add: %v", err)
		}
	}

	// Window 1: background weight everywhere plus two planted outliers.
	for i := 0; i < 128; i++ {
		observe(0, fmt.Sprintf("key%03d", i), 12)
		observe(1, fmt.Sprintf("key%03d", i), 8)
	}
	observe(0, "key005", 500)
	observe(1, "key100", -400)
	acc1 := sk.ZeroSketch()
	flush(0, acc1)
	flush(1, acc1)
	if err := relay.Forward(ctx); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	got, err := root.WindowSketch(0)
	if err != nil {
		t.Fatalf("root window: %v", err)
	}
	sameBits(t, "root window 1", got, acc1)
	// The relay's own regional window holds the same fold.
	rgot, err := relay.Aggregator().WindowSketch(0)
	if err != nil {
		t.Fatalf("relay window: %v", err)
	}
	sameBits(t, "relay window 1", rgot, acc1)

	// An idle Forward stages nothing and pushes nothing.
	before := root.Stats()
	if err := relay.Forward(ctx); err != nil {
		t.Fatalf("idle Forward: %v", err)
	}
	if after := root.Stats(); after.Frames != before.Frames {
		t.Fatalf("idle Forward pushed %d frames upstream", after.Frames-before.Frames)
	}

	// Rotate at the root; the relay and then the leaves adopt the new
	// window through their syncs.
	root.Rotate()
	if err := relay.Sync(ctx); err != nil {
		t.Fatalf("relay sync: %v", err)
	}
	if got := relay.Aggregator().CurrentWindow(); got != 2 {
		t.Fatalf("relay window = %d after root rotation, want 2", got)
	}
	for l := range leaves {
		if err := leaves[l].Sync(ctx); err != nil {
			t.Fatalf("leaf %d sync: %v", l, err)
		}
	}

	// Window 2, two flush rounds per leaf.
	acc2 := sk.ZeroSketch()
	for round := 0; round < 2; round++ {
		for l := 0; l < L; l++ {
			for i := l; i < 128; i += 2 {
				observe(l, fmt.Sprintf("key%03d", i), float64(3+round))
			}
			flush(l, acc2)
		}
	}
	if err := relay.Forward(ctx); err != nil {
		t.Fatalf("Forward window 2: %v", err)
	}
	got2, err := root.WindowSketch(0)
	if err != nil {
		t.Fatalf("root window 2: %v", err)
	}
	sameBits(t, "root window 2", got2, acc2)
	got1, err := root.WindowSketch(1)
	if err != nil {
		t.Fatalf("root window 1 (age 1): %v", err)
	}
	sameBits(t, "root window 1 after rotation", got1, acc1)

	// Conservation through the hop: every leaf capture is folded at the
	// root exactly once (as an upward frame fold or an accounted shed).
	rs := root.Stats()
	var captured int64
	for _, n := range leaves {
		captured += n.Stats().Captured
	}
	if rs.Applied+rs.ShedFolds != captured {
		t.Fatalf("conservation: root applied %d + shed folds %d != leaf captures %d",
			rs.Applied, rs.ShedFolds, captured)
	}
	if rs.Rejected != 0 {
		t.Fatalf("root rejected %d upward frames", rs.Rejected)
	}
}

// TestRelayUpwardDedup redelivers an already-forwarded upward frame and
// checks the root's dedup books refuse it — the (shard, tier)-tagged
// identity rides the ordinary exactly-once scheme.
func TestRelayUpwardDedup(t *testing.T) {
	sk := tierSketcher(t, 64, 32, 11)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 4})
	relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Shard: 2, Upstream: rootAddr})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	relayAddr := serveRelay(t, relay)
	t.Cleanup(func() { relay.Close(ctx) })
	if relay.Name() != "s02.t1.r0" {
		t.Fatalf("relay name = %q", relay.Name())
	}

	leaf, err := stream.Dial(ctx, relayAddr, sk, "node00", stream.NodeOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := leaf.Observe("key001", 42); err != nil {
		t.Fatalf("observe: %v", err)
	}
	if err := leaf.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := relay.Forward(ctx); err != nil {
		t.Fatalf("Forward: %v", err)
	}

	// Replay upward frame (the relay's epoch, seq 1) by hand. The payload
	// doesn't need to match: the dedup check fires on (identity, epoch,
	// seq) before the payload is even decoded.
	epoch := relay.Stats().UpEpoch
	u := sk.NewUpdater()
	u.Observe("key002", 1)
	delta := sk.ZeroSketch()
	u.DrainInto(delta)
	payload, err := delta.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	c, err := stream.DialClient(ctx, rootAddr, 5*time.Second)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer c.Close()
	if _, err := c.Hello(relay.Name(), epoch); err != nil {
		t.Fatalf("hello: %v", err)
	}
	ack, err := c.PushDelta(relay.Name(), epoch, 1, 1, 1, payload)
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	if ack.Status != stream.StatusDuplicate {
		t.Fatalf("redelivered upward frame: status %q, want %q", ack.Status, stream.StatusDuplicate)
	}
	if rs := root.Stats(); rs.Duplicates != 1 {
		t.Fatalf("root duplicates = %d, want 1", rs.Duplicates)
	}
}

// TestVolatileRelayRestart restarts a relay that keeps no snapshot under
// the same ID. The new incarnation announces a higher upward epoch, so
// the root folds its frames as new data instead of acking them as
// duplicates of the first incarnation's seqs, and the root window holds
// every frame both incarnations forwarded.
func TestVolatileRelayRestart(t *testing.T) {
	sk := tierSketcher(t, 64, 32, 13)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 4})
	want, delta := sk.ZeroSketch(), sk.ZeroSketch()
	var epochs [2]uint64
	for life := range epochs {
		relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr})
		if err != nil {
			t.Fatalf("life %d: NewRelay: %v", life, err)
		}
		leaf, err := stream.Dial(ctx, serveRelay(t, relay), sk, "node00", stream.NodeOptions{})
		if err != nil {
			t.Fatalf("life %d: Dial: %v", life, err)
		}
		shadow := sk.NewUpdater()
		for f := 0; f < 3; f++ {
			key := fmt.Sprintf("key%03d", 10*life+f)
			if err := leaf.Observe(key, float64(f+1)); err != nil {
				t.Fatal(err)
			}
			if err := shadow.Observe(key, float64(f+1)); err != nil {
				t.Fatal(err)
			}
			if err := leaf.Flush(ctx); err != nil {
				t.Fatalf("life %d: flush: %v", life, err)
			}
			if err := relay.Forward(ctx); err != nil {
				t.Fatalf("life %d: Forward: %v", life, err)
			}
			if _, err := shadow.DrainInto(delta); err != nil {
				t.Fatal(err)
			}
			if err := want.Add(delta); err != nil {
				t.Fatal(err)
			}
		}
		epochs[life] = relay.Stats().UpEpoch
		if err := leaf.Close(ctx); err != nil {
			t.Fatalf("life %d: leaf close: %v", life, err)
		}
		if err := relay.Close(ctx); err != nil {
			t.Fatalf("life %d: relay close: %v", life, err)
		}
	}
	if epochs[1] <= epochs[0] {
		t.Fatalf("restarted relay announced upward epoch %d after %d", epochs[1], epochs[0])
	}
	if rs := root.Stats(); rs.Applied != 6 || rs.Duplicates != 0 {
		t.Fatalf("root applied %d, duplicates %d; want all 6 upward frames applied", rs.Applied, rs.Duplicates)
	}
	got, err := root.WindowSketch(0)
	if err != nil {
		t.Fatalf("root window: %v", err)
	}
	sameBits(t, "root window after a volatile relay restart", got, want)
}

// TestRelayAfterRootRestart: a non-durable root restarts on the same
// address and counts windows from 1 again, while its relay, which never
// rotates back, keeps tagging upward frames with the window it last
// adopted. The root folds them into its open window, so every Forward
// after the restart lands and the root's window holds the leaf's bits.
func TestRelayAfterRootRestart(t *testing.T) {
	sk := tierSketcher(t, 64, 32, 13)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	first, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 4})
	fast := stream.NodeOptions{PushTimeout: 400 * time.Millisecond} // backoff 1ms to 40ms
	relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr, Up: fast})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	defer relay.Close(ctx)
	leaf, err := stream.Dial(ctx, serveRelay(t, relay), sk, "node00", fast)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer leaf.Close(ctx)
	for i := 0; i < 5; i++ {
		first.Rotate()
	}
	if err := relay.Sync(ctx); err != nil {
		t.Fatalf("relay Sync: %v", err)
	}
	if err := leaf.Sync(ctx); err != nil || leaf.Stats().Window != 6 {
		t.Fatalf("leaf Sync: %v, window %d, want 6", err, leaf.Stats().Window)
	}
	first.Close(ctx)
	second, _ := serveRootAt(t, sk, stream.AggregatorOptions{Windows: 4}, rootAddr)
	want, delta := sk.ZeroSketch(), sk.ZeroSketch()
	shadow := sk.NewUpdater()
	for f := 0; f < 3; f++ {
		key := fmt.Sprintf("key%03d", f)
		if err := leaf.Observe(key, float64(f+1)); err != nil {
			t.Fatal(err)
		}
		if err := shadow.Observe(key, float64(f+1)); err != nil {
			t.Fatal(err)
		}
		if err := leaf.Flush(ctx); err != nil {
			t.Fatalf("leaf flush %d: %v", f, err)
		}
		if err := relay.Forward(ctx); err != nil {
			t.Fatalf("Forward %d after the root restart: %v", f, err)
		}
		if _, err := shadow.DrainInto(delta); err != nil {
			t.Fatal(err)
		}
		if err := want.Add(delta); err != nil {
			t.Fatal(err)
		}
	}
	if rs := second.Stats(); rs.Applied != 3 || rs.Rejected != 0 {
		t.Fatalf("restarted root applied %d, rejected %d; want 3 applied", rs.Applied, rs.Rejected)
	}
	got, err := second.WindowSketch(0)
	if err != nil {
		t.Fatalf("root window: %v", err)
	}
	sameBits(t, "restarted root's open window", got, want)
}

// TestRelayRefusesOverflow carries the window overflow refusal across a
// hop. A leaf delta that would take the relay's window to +Inf is
// refused there, so the upward frame the relay builds stays finite and
// the root folds it to the relay's bits. An upward frame that would take
// the root's window to −Inf is refused at the root, counted on both
// sides, and the root's window is left as it was. And an upward
// accumulator that would overflow where the relay's window does not is
// shipped before the delta that would overflow it, so nothing is lost.
func TestRelayRefusesOverflow(t *testing.T) {
	sk := tierSketcher(t, 64, 32, 13)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	huge := func(v float64) []byte {
		s := sk.ZeroSketch()
		for i := range s.Y {
			s.Y[i] = v
		}
		payload, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	pusher := func(addr, node string) func(v float64) stream.Ack {
		c, err := stream.DialClient(ctx, addr, 5*time.Second)
		if err != nil {
			t.Fatalf("DialClient: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		seq := uint64(0)
		return func(v float64) stream.Ack {
			t.Helper()
			seq++
			ack, err := c.PushDelta(node, 1, 1, seq, 1, huge(v))
			if err != nil {
				t.Fatalf("%s push: %v", node, err)
			}
			return ack
		}
	}
	// tree builds a root, a relay under it, a leaf pushing into the relay
	// and a node pushing straight into the root.
	tree := func() (root *stream.Aggregator, relay *Relay, leaf, direct func(v float64) stream.Ack) {
		root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 4})
		relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr})
		if err != nil {
			t.Fatalf("NewRelay: %v", err)
		}
		relayAddr := serveRelay(t, relay)
		t.Cleanup(func() { relay.Close(ctx) })
		return root, relay, pusher(relayAddr, "leaf"), pusher(rootAddr, "direct")
	}
	window := func(agg *stream.Aggregator) csoutlier.Sketch {
		t.Helper()
		w, err := agg.WindowSketch(0)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	root, relay, leaf, direct := tree()
	if ack := leaf(math.MaxFloat64); !ack.Applied {
		t.Fatalf("first +Max at the relay: %+v", ack)
	}
	if ack := leaf(math.MaxFloat64); ack.Applied || ack.Err == "" {
		t.Fatalf("second +Max at the relay: %+v, want it refused", ack)
	}
	if err := relay.Forward(ctx); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	sameBits(t, "root window after the relay refused", window(root), window(relay.Aggregator()))
	if rs, ls := root.Stats(), relay.Aggregator().Stats(); rs.Rejected != 0 || rs.Applied != 1 || ls.Rejected != 1 {
		t.Fatalf("root applied %d rejected %d, relay rejected %d; want 1, 0, 1", rs.Applied, rs.Rejected, ls.Rejected)
	}

	// The root now also holds what a direct node pushed, so the relay's
	// next upward frame is the one that would overflow.
	for i := 0; i < 2; i++ {
		if ack := direct(-math.MaxFloat64); !ack.Applied {
			t.Fatalf("direct −Max %d at the root: %+v", i, ack)
		}
	}
	before := window(root)
	if ack := leaf(-math.MaxFloat64); !ack.Applied {
		t.Fatalf("−Max at the relay: %+v", ack)
	}
	if err := relay.Forward(ctx); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("Forward of the frame the root refuses: %v, want the refusal", err)
	}
	sameBits(t, "root window after it refused the upward frame", window(root), before)
	if rs, up := root.Stats(), relay.Stats(); rs.Rejected != 1 || up.Rejected != 1 {
		t.Fatalf("root rejected %d, relay saw %d upward frames rejected; want 1 and 1", rs.Rejected, up.Rejected)
	}

	// −Max goes up in one cycle; in the next the relay's window goes
	// −Max → 0 → +Max, while an accumulator of both +Max deltas would hold
	// +Inf. The first +Max leaves as a frame of its own.
	root, relay, leaf, _ = tree()
	if ack := leaf(-math.MaxFloat64); !ack.Applied {
		t.Fatalf("−Max at the relay: %+v", ack)
	}
	if err := relay.Forward(ctx); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	for i := 0; i < 2; i++ {
		if ack := leaf(math.MaxFloat64); !ack.Applied {
			t.Fatalf("+Max %d at the relay: %+v", i, ack)
		}
	}
	if err := relay.Forward(ctx); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	sameBits(t, "root window after the accumulator would have overflowed", window(root), window(relay.Aggregator()))
	rs, ls, up := root.Stats(), relay.Aggregator().Stats(), relay.Stats()
	if rs.Rejected != 0 || ls.Rejected != 0 || up.Rejected != 0 || rs.Applied != 3 || up.FramesStaged != 3 {
		t.Fatalf("root applied %d rejected %d, relay rejected %d and %d upward, staged %d; want 3, 0, 0, 0, 3",
			rs.Applied, rs.Rejected, ls.Rejected, up.Rejected, up.FramesStaged)
	}
}

// tierRun is one complete drive of a 1-shard, 1-relay, 2-leaf tree.
type tierRun struct {
	windows  []csoutlier.Sketch // root ring, oldest first
	root     stream.AggStats
	captured int64
	replayed int64
}

// driveTierRun executes a deterministic observation plan (derived from
// seed) through a relay, optionally killing it mid-window-2 and building
// a new one with NewRelay, and returns the root's final state. The
// drive is leaf-major inside each window, so a post-restart replay (all
// of leaf 0's frames, then leaf 1's) re-folds in exactly the original
// order.
func driveTierRun(t *testing.T, seed uint64, kill bool) tierRun {
	t.Helper()
	const (
		L = 2 // leaves
		C = 3 // flushes per leaf per window
		W = 3 // windows
		N = 96
		M = 48
	)
	sk := tierSketcher(t, N, M, seed)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 4})
	ropts := RelayOptions{ID: "r0", Upstream: rootAddr}
	relay, err := NewRelay(ctx, sk, ropts)
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	proxy := startTestProxy(t, serveRelay(t, relay))

	leaves := make([]*stream.Node, L)
	for l := range leaves {
		n, err := stream.Dial(ctx, proxy.Addr(), sk, fmt.Sprintf("node%02d", l), stream.NodeOptions{})
		if err != nil {
			t.Fatalf("Dial leaf %d: %v", l, err)
		}
		leaves[l] = n
	}

	// The observation plan is a pure function of seed — identical for
	// the interrupted and uninterrupted runs.
	type obs struct {
		key string
		v   float64
	}
	rng := xrand.New(seed)
	plan := make([][][][]obs, W) // [window][leaf][flush]
	for w := range plan {
		plan[w] = make([][][]obs, L)
		for l := range plan[w] {
			plan[w][l] = make([][]obs, C)
			for f := range plan[w][l] {
				for k := 0; k < 8; k++ {
					plan[w][l][f] = append(plan[w][l][f], obs{
						key: fmt.Sprintf("key%03d", rng.Intn(N)),
						v:   math.Floor(200*rng.Float64()) - 100,
					})
				}
			}
		}
	}

	var run tierRun
	doKill := func() {
		if err := relay.Kill(ctx); err != nil {
			t.Fatalf("Kill: %v", err)
		}
		// The new relay adopts the root's window and seeds its books from
		// the root's cut before it serves; the leaves hear its fresh
		// AggEpoch and replay what they retain.
		var err error
		if relay, err = NewRelay(ctx, sk, ropts); err != nil {
			t.Fatalf("NewRelay after the kill: %v", err)
		}
		proxy.Retarget(serveRelay(t, relay))
		for l := range leaves {
			if err := leaves[l].Sync(ctx); err != nil {
				t.Fatalf("leaf %d post-restart sync: %v", l, err)
			}
		}
	}

	for w := 0; w < W; w++ {
		for l := 0; l < L; l++ {
			for f := 0; f < C; f++ {
				for _, o := range plan[w][l][f] {
					if o.v == 0 {
						continue
					}
					if err := leaves[l].Observe(o.key, o.v); err != nil {
						t.Fatalf("leaf %d observe: %v", l, err)
					}
				}
				if err := leaves[l].Flush(ctx); err != nil {
					t.Fatalf("leaf %d flush: %v", l, err)
				}
			}
			if kill && w == 1 && l == 0 {
				// Mid-window crash: window 1 was forwarded and the root holds
				// it; leaf 0's window-2 frames die with the relay's unstable
				// accumulators and must come back via leaf replay.
				doKill()
			}
		}
		if err := relay.Forward(ctx); err != nil {
			t.Fatalf("Forward window %d: %v", w+1, err)
		}
		if w < W-1 {
			root.Rotate()
			if err := relay.Sync(ctx); err != nil {
				t.Fatalf("relay sync: %v", err)
			}
			for l := range leaves {
				if err := leaves[l].Sync(ctx); err != nil {
					t.Fatalf("leaf %d sync: %v", l, err)
				}
			}
		}
	}
	for age := W - 1; age >= 0; age-- {
		s, err := root.WindowSketch(age)
		if err != nil {
			t.Fatalf("root window age %d: %v", age, err)
		}
		run.windows = append(run.windows, s)
	}
	run.root = root.Stats()
	for _, n := range leaves {
		s := n.Stats()
		run.captured += s.Captured
		run.replayed += s.Replayed
	}
	ctxClose, cancelClose := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelClose()
	relay.Close(ctxClose)
	return run
}

// TestRelayRestartReplayBitIdentical is the dedup-book property test
// for the extra hop: a run with a mid-window relay kill and restart
// must leave the root's windows bit-identical to an uninterrupted run
// of the same plan, with every leaf capture folded exactly once.
func TestRelayRestartReplayBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run TCP soak")
	}
	for _, seed := range []uint64{1, 23, 456} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			clean := driveTierRun(t, seed, false)
			crashed := driveTierRun(t, seed, true)
			if len(clean.windows) != len(crashed.windows) {
				t.Fatalf("window counts differ: %d vs %d", len(clean.windows), len(crashed.windows))
			}
			for i := range clean.windows {
				sameBits(t, fmt.Sprintf("window %d", i+1), crashed.windows[i], clean.windows[i])
			}
			for name, run := range map[string]tierRun{"clean": clean, "crashed": crashed} {
				if run.root.Applied+run.root.ShedFolds != run.captured {
					t.Fatalf("%s run conservation: root applied %d + shed folds %d != leaf captures %d",
						name, run.root.Applied, run.root.ShedFolds, run.captured)
				}
				if run.root.Rejected != 0 {
					t.Fatalf("%s run: root rejected %d upward frames", name, run.root.Rejected)
				}
			}
			if crashed.replayed == 0 {
				t.Fatal("crash run replayed no leaf frames — the kill point lost nothing, test is vacuous")
			}
		})
	}
}

// rootRun is one drive of a durable root above one relay and two leaves.
type rootRun struct {
	windows  []csoutlier.Sketch // root ring, oldest first
	up       stream.NodeStatus  // the root's books for the relay
	relay    RelayStats
	captured int64
}

// driveRootRun pushes a fixed plan through relay → root, optionally
// killing the root after it acked upward frames its last snapshot does
// not cover and restoring it, from that snapshot, on a new listener. The
// relay's upstream address is a proxy, so it survives the move.
func driveRootRun(t *testing.T, kill bool) rootRun {
	t.Helper()
	sk := tierSketcher(t, 96, 48, 9)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 4, Durable: true})
	proxy := startTestProxy(t, rootAddr)
	relay, err := NewRelay(ctx, sk, RelayOptions{
		ID: "r0", Upstream: proxy.Addr(),
		Up: stream.NodeOptions{PushTimeout: 400 * time.Millisecond}, // backoff 1ms to 40ms
	})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	relayAddr := serveRelay(t, relay)
	defer relay.Close(ctx)
	leaves := make([]*stream.Node, 2)
	for l := range leaves {
		if leaves[l], err = stream.Dial(ctx, relayAddr, sk, fmt.Sprintf("node%02d", l), stream.NodeOptions{}); err != nil {
			t.Fatalf("Dial leaf %d: %v", l, err)
		}
	}
	// step is one leaf flush and one Forward: one upward frame.
	step := func(l, round int) {
		t.Helper()
		for i := l; i < 96; i += 7 {
			if err := leaves[l].Observe(fmt.Sprintf("key%03d", i), float64(1+round*3+i%5)); err != nil {
				t.Fatalf("observe: %v", err)
			}
		}
		if err := leaves[l].Flush(ctx); err != nil {
			t.Fatalf("leaf %d flush: %v", l, err)
		}
		if err := relay.Forward(ctx); err != nil {
			t.Fatalf("Forward: %v", err)
		}
	}

	step(0, 0) // upward seq 1
	snapPath := filepath.Join(t.TempDir(), "root.snap")
	if err := root.WriteSnapshot(snapPath); err != nil { // seq 1 is durable; 2 and 3 will be acked past it
		t.Fatalf("root snapshot: %v", err)
	}
	step(1, 1)
	step(0, 2)
	if st := relay.Stats(); st.Retained != 2 || st.RootStable != 1 || st.Applied != 3 {
		t.Fatalf("before the kill: %+v, want seq 2 and 3 retained above Stable 1", st)
	}
	if kill {
		root.Close(ctx)
		snap, err := stream.LoadSnapshot(snapPath)
		if err != nil {
			t.Fatalf("LoadSnapshot: %v", err)
		}
		restored, err := stream.RestoreAggregator(sk, stream.AggregatorOptions{}, snap)
		if err != nil {
			t.Fatalf("RestoreAggregator: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go restored.Serve(ln)
		defer restored.Close(ctx)
		proxy.Retarget(ln.Addr().String())
		root = restored
		// The hello to the new incarnation requeues what the relay
		// retained; the same Sync drains it.
		if err := relay.Sync(ctx); err != nil {
			t.Fatalf("relay sync after the root restore: %v", err)
		}
		if st := relay.Stats(); st.Replayed != 2 || st.Queued != 0 || st.RootEpoch != 2 || st.Redials == 0 {
			t.Fatalf("after the root restore: %+v, want 2 frames replayed to incarnation 2 over a redial", st)
		}
	}
	root.Rotate()
	if err := relay.Sync(ctx); err != nil {
		t.Fatalf("relay sync: %v", err)
	}
	for l := range leaves {
		if err := leaves[l].Sync(ctx); err != nil {
			t.Fatalf("leaf %d sync: %v", l, err)
		}
	}
	step(1, 3)
	step(0, 4)

	var run rootRun
	for age := 1; age >= 0; age-- {
		s, err := root.WindowSketch(age)
		if err != nil {
			t.Fatalf("root window age %d: %v", age, err)
		}
		run.windows = append(run.windows, s)
	}
	for _, ns := range root.Nodes() {
		if ns.Node == relay.Name() {
			run.up = ns
		}
	}
	run.relay = relay.Stats()
	for _, n := range leaves {
		run.captured += n.Stats().Captured
	}
	return run
}

// TestRelayReplaysAfterRootRestore is the leaf's replay rule one level
// up: a root that dies after acking upward frames past its last
// snapshot, and comes back from that snapshot, gets them again from the
// relay's retention buffer — and ends up with windows bit-identical to
// a root that never died, every leaf capture counted once.
func TestRelayReplaysAfterRootRestore(t *testing.T) {
	clean := driveRootRun(t, false)
	crashed := driveRootRun(t, true)
	if clean.relay.Replayed != 0 || crashed.relay.Replayed < 1 {
		t.Fatalf("replayed %d (clean) and %d (crashed), want 0 and at least 1", clean.relay.Replayed, crashed.relay.Replayed)
	}
	for i := range clean.windows {
		sameBits(t, fmt.Sprintf("root window %d", i+1), crashed.windows[i], clean.windows[i])
	}
	for name, run := range map[string]rootRun{"clean": clean, "crashed": crashed} {
		if run.up.Applied+run.up.ShedFolds != run.captured || run.up.Rejected != 0 || run.up.Duplicates != 0 {
			t.Fatalf("%s run: root books for the relay %+v, want applied + shed folds = %d leaf captures, nothing rejected or doubled",
				name, run.up, run.captured)
		}
		if run.relay.RetainDropped != 0 {
			t.Fatalf("%s run: relay dropped %d retained frames", name, run.relay.RetainDropped)
		}
	}
}

// TestRelayRetainCapCounted: upward frames dropped from retention at
// the cap (1,024 frames) are counted, as a leaf's are — each is a frame
// a parent restore could lose.
func TestRelayRetainCapCounted(t *testing.T) {
	sk := tierSketcher(t, 64, 32, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 2, Durable: true}) // never commits: every ack leaves its frame retained
	relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	defer relay.Close(ctx)
	leaf, err := stream.Dial(ctx, serveRelay(t, relay), sk, "node00", stream.NodeOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	const retainCap = 1024
	for i := 0; i < retainCap+2; i++ {
		if err := leaf.Observe("key001", 1); err != nil {
			t.Fatal(err)
		}
		if err := leaf.Flush(ctx); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if err := relay.Forward(ctx); err != nil {
			t.Fatalf("Forward: %v", err)
		}
	}
	if st := relay.Stats(); st.Applied != retainCap+2 || st.Retained != retainCap || st.RetainDropped != 2 {
		t.Fatalf("%+v, want %d applied, %d retained, 2 dropped at the cap", st, retainCap+2, retainCap)
	}
}

// TestLeafBelowRelayKeepsRetainedFrames: a durable root that never
// rotates commits once the relay's frames carry commitEvery (512, half
// the 1,024 retention cap) leaf captures since its last commit, and
// acks the frame that made the commit due with the Stable it wrote. So
// a leaf flushing 1,500 times below a relay that forwards every P
// flushes drops nothing at the cap while P ≤ 1,023: it retains at most
// the forward periods that reach commitEvery, plus one frame.
func TestLeafBelowRelayKeepsRetainedFrames(t *testing.T) {
	const commitEvery = 512
	for _, forwardEvery := range []int{50, 1000} {
		t.Run(fmt.Sprintf("forward-every-%d", forwardEvery), func(t *testing.T) {
			sk := tierSketcher(t, 64, 32, 5)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 2, SnapshotPath: filepath.Join(t.TempDir(), "root.snap")})
			relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr})
			if err != nil {
				t.Fatalf("NewRelay: %v", err)
			}
			defer relay.Close(ctx)
			leaf, err := stream.Dial(ctx, serveRelay(t, relay), sk, "node00", stream.NodeOptions{})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer leaf.Close(ctx)
			peak := 0
			for i := 1; i <= 1500; i++ {
				if err := leaf.Observe(fmt.Sprintf("key%03d", i%64), 1); err != nil {
					t.Fatal(err)
				}
				if err := leaf.Flush(ctx); err != nil {
					t.Fatalf("flush %d: %v", i, err)
				}
				peak = max(peak, leaf.Stats().Retained)
				if i%forwardEvery == 0 {
					if err := relay.Forward(ctx); err != nil {
						t.Fatalf("Forward: %v", err)
					}
				}
			}
			bound := (commitEvery+forwardEvery-1)/forwardEvery*forwardEvery + 1
			if st := leaf.Stats(); st.RetainDropped != 0 || peak > bound {
				t.Fatalf("leaf after 1,500 flushes: %+v, peak Retained %d; want nothing dropped and a peak of at most %d", st, peak, bound)
			}
			if st := relay.Stats(); st.RetainDropped != 0 {
				t.Fatalf("relay: %+v, want nothing dropped", st)
			}
			t.Logf("leaf peak Retained %d, %d root snapshots written", peak, root.Stats().Snapshots)
		})
	}
}

// TestRelayConfiguredThroughAgg: a relay takes its metrics registry
// from Agg alone, the tier_* families next to the stream_* ones, and
// refuses a snapshot file by name before it says hello upstream: it
// keeps no file, its root keeps what a restart needs.
func TestRelayConfiguredThroughAgg(t *testing.T) {
	sk := tierSketcher(t, 64, 32, 17)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 4})
	path := filepath.Join(t.TempDir(), "relay.snap")
	if _, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr, Agg: stream.AggregatorOptions{SnapshotPath: path}}); err == nil ||
		!strings.Contains(err.Error(), "SnapshotPath") || !strings.Contains(err.Error(), path) {
		t.Fatalf("NewRelay with a snapshot file: %v, want a refusal naming SnapshotPath and the file", err)
	}
	if st := root.Stats(); st.Hellos != 0 {
		t.Fatalf("the refused relay said %d hellos upstream", st.Hellos)
	}
	reg := obs.NewRegistry()
	relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr, Agg: stream.AggregatorOptions{Windows: 4, Metrics: reg}})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	defer relay.Close(ctx)
	leaf, err := stream.Dial(ctx, serveRelay(t, relay), sk, "node00", stream.NodeOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := leaf.Observe("key001", 1); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := relay.Forward(ctx); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"tier_forwards_total 1", "tier_up_seq 1", "stream_window 1"} {
		if !strings.Contains(text.String(), "\n"+line+"\n") {
			t.Errorf("Agg.Metrics has no %q line", line)
		}
	}
}

// TestRelayRestoreTwiceAnnouncesHigherIncarnation: a relay restores
// from its root's cut, through NewRelay, and every one of one ID
// announces a higher upward epoch and a higher leaf-facing AggEpoch
// than the one before, so the root folds its frames as new data and its
// leaves replay what they retain, however often it restarts before a
// Forward.
func TestRelayRestoreTwiceAnnouncesHigherIncarnation(t *testing.T) {
	sk := tierSketcher(t, 64, 32, 17)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 4})
	var up, agg []uint64
	for life := 0; life < 3; life++ {
		relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr})
		if err != nil {
			t.Fatalf("life %d: NewRelay: %v", life, err)
		}
		up, agg = append(up, relay.Stats().UpEpoch), append(agg, relay.Aggregator().Epoch())
		if err := relay.Kill(ctx); err != nil {
			t.Fatalf("life %d: Kill: %v", life, err)
		}
	}
	for i := 1; i < len(up); i++ {
		if up[i] <= up[i-1] || agg[i] <= agg[i-1] {
			t.Fatalf("three relays announced upward epochs %v and leaf-facing AggEpochs %v, want each higher than the last", up, agg)
		}
	}
}

// TestPathlessForwardCommit: a relay keeps no file and captures
// nothing. A leaf's Stable follows the root: it stays below a frame the
// relay applied until the Forward whose upward frame carries it is
// acked, and rises then. The bytes a steady-state Forward allocates do
// not grow with the window ring (a capture copied and encoded every
// filled window, so 64 windows cost more than ten times what 4 did), no
// capture is recorded in stream_snapshot_seconds, and every Forward's
// ack counts as a commit.
func TestPathlessForwardCommit(t *testing.T) {
	sk := tierSketcher(t, 1024, 512, 23)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const forwards = 16
	perForward := func(windows int) float64 {
		t.Helper()
		root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: windows})
		reg := obs.NewRegistry()
		relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr, Agg: stream.AggregatorOptions{
			Windows: windows, Metrics: reg,
		}})
		if err != nil {
			t.Fatalf("NewRelay: %v", err)
		}
		defer relay.Close(ctx)
		leaf, err := stream.Dial(ctx, serveRelay(t, relay), sk, "node00", stream.NodeOptions{})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer leaf.Close(ctx)
		// Fill the ring: a capture copied every window that was ever open.
		for root.AvailableWindows() < windows {
			root.Rotate()
		}
		if err := relay.Sync(ctx); err != nil {
			t.Fatalf("relay sync: %v", err)
		}
		if err := leaf.Sync(ctx); err != nil {
			t.Fatalf("leaf sync: %v", err)
		}
		stable := func() uint64 {
			for _, ns := range relay.Aggregator().Nodes() {
				if ns.Node == "node00" {
					return ns.Stable
				}
			}
			t.Fatal("relay has no row for node00")
			return 0
		}
		var seq uint64
		cycle := func(check bool) {
			if err := leaf.Observe(fmt.Sprintf("key%03d", seq%256), 1); err != nil {
				t.Fatal(err)
			}
			if err := leaf.Flush(ctx); err != nil {
				t.Fatalf("flush: %v", err)
			}
			seq++
			if got := stable(); check && got != seq-1 {
				t.Fatalf("leaf Stable %d after the relay applied seq %d, want %d: held until the root acks it", got, seq, seq-1)
			}
			if err := relay.Forward(ctx); err != nil {
				t.Fatalf("Forward: %v", err)
			}
			if got := stable(); check && got != seq {
				t.Fatalf("leaf Stable %d after Forward, want %d", got, seq)
			}
		}
		for i := 0; i < 4; i++ { // warm the sender's and the relay's buffers
			cycle(true)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < forwards; i++ {
			cycle(false)
		}
		runtime.ReadMemStats(&after)
		var text strings.Builder
		if err := reg.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			"stream_snapshot_seconds_count 0",
			fmt.Sprintf("stream_snapshot_commits_total %d", forwards+4),
		} {
			if !strings.Contains(text.String(), "\n"+line+"\n") {
				t.Errorf("windows=%d: no %q line", windows, line)
			}
		}
		if st := relay.Stats(); st.Applied != int64(seq) || st.Queued != 0 || st.Unstable != 0 {
			t.Fatalf("windows=%d: %+v, want %d frames applied upstream and none left behind", windows, st, seq)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / forwards
	}
	small, large := perForward(4), perForward(64)
	t.Logf("bytes allocated per leaf flush + Forward: %.0f at 4 windows, %.0f at 64", small, large)
	// A captured window cost a 4 KiB M-float copy plus its 4 KiB
	// encoding: 4 KiB of slack per Forward is half of one.
	if large > small+4096 {
		t.Fatalf("a Forward at 64 windows allocates %.0f B, %.1f× the %.0f B at 4: the Forward copies the ring", large, large/small, small)
	}
}

// TestRelayFoldZeroAlloc pins a relay's ingest between Forwards: a leaf
// delta folded into its window and mirrored into the window's upward
// accumulator, which the first delta created, allocates nothing. The
// frame is TestPushPathAllocs' loopback push with the relay's mirror
// added; AllocsPerRun counts the client and the relay together.
func TestRelayFoldZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	sk := tierSketcher(t, 1024, 256, 9)
	_, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close(ctx)
	c, err := stream.DialClient(ctx, serveRelay(t, relay), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("leaf", 1); err != nil {
		t.Fatal(err)
	}
	payload := benchDelta(t, sk)
	var seq uint64
	push := func() {
		seq++
		if ack, err := c.PushDelta("leaf", 1, 1, seq, 1, payload); err != nil || !ack.Applied {
			t.Fatalf("PushDelta %d: %+v, %v", seq, ack, err)
		}
	}
	push() // the window's accumulator is created here
	if n := testing.AllocsPerRun(500, push); n != 0 {
		t.Errorf("leaf delta folded at a relay: %v allocs per frame across client and relay, want 0", n)
	}
	if st := relay.Stats(); st.Unstable != 1 || st.FramesStaged != 0 {
		t.Fatalf("relay holds %d unstable windows and staged %d frames, want 1 and 0", st.Unstable, st.FramesStaged)
	}
}

// TestRelayOfAnotherConsensusRefused: a relay's upward hello names its
// Sketcher's consensus, so a root of another seed refuses it at
// NewRelay, naming both identities, and the relay never joins.
func TestRelayOfAnotherConsensusRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	root, rootAddr := serveRoot(t, tierSketcher(t, 64, 32, 13), stream.AggregatorOptions{})
	relay, err := NewRelay(ctx, tierSketcher(t, 64, 32, 14), RelayOptions{ID: "r0", Upstream: rootAddr})
	if err == nil {
		relay.Close(ctx)
		t.Fatal("NewRelay joined a root of another seed")
	}
	if !strings.Contains(err.Error(), "seed=13 ") || !strings.Contains(err.Error(), "seed=14 ") {
		t.Fatalf("NewRelay error %q does not name both seeds", err)
	}
	if sts := root.Nodes(); len(sts) != 0 {
		t.Fatalf("root Nodes() = %+v, want none", sts)
	}
}

// TestRelayRefusesItsOwnWindowClock: a relay rotates when its upstream
// does, so a window period set on its embedded aggregator is refused by
// name, not silently dropped, and the relay never says hello upstream.
func TestRelayRefusesItsOwnWindowClock(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sk := tierSketcher(t, 64, 32, 13)
	root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{})
	opts := RelayOptions{ID: "r0", Upstream: rootAddr, Agg: stream.AggregatorOptions{WindowEvery: time.Minute}}
	relay, err := NewRelay(ctx, sk, opts)
	if err == nil {
		relay.Close(ctx)
		t.Fatal("NewRelay took a window period of its own")
	}
	if !strings.Contains(err.Error(), "WindowEvery") || !strings.Contains(err.Error(), "1m0s") {
		t.Fatalf("NewRelay error %q does not name WindowEvery and its value", err)
	}
	if st := root.Stats(); st.Hellos != 0 {
		t.Fatalf("the refused relay said %d hellos upstream", st.Hellos)
	}
}
