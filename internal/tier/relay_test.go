package tier

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"csoutlier"
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
	agg, err := stream.NewAggregator(sk, opts)
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
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

	// Replay upward frame (epoch 1, seq 1) by hand. The payload doesn't
	// need to match: the dedup check fires on (identity, epoch, seq)
	// before the payload is even decoded.
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
	if _, err := c.Hello(relay.Name(), 1); err != nil {
		t.Fatalf("hello: %v", err)
	}
	ack, err := c.PushDelta(relay.Name(), 1, 1, 1, 1, payload)
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

// TestRelayRefusesOverflow carries the window overflow refusal across a
// hop. A leaf delta that would take the relay's window to +Inf is
// refused there, so the upward frame the relay builds stays finite and
// the root folds it to the relay's bits. An upward frame that would take
// the root's window to −Inf is refused at the root, counted on both
// sides, and the root's window is left as it was.
func TestRelayRefusesOverflow(t *testing.T) {
	sk := tierSketcher(t, 64, 32, 13)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 4})
	relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	relayAddr := serveRelay(t, relay)
	t.Cleanup(func() { relay.Close(ctx) })
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
	leaf, direct := pusher(relayAddr, "leaf"), pusher(rootAddr, "direct")
	window := func(agg *stream.Aggregator) csoutlier.Sketch {
		t.Helper()
		w, err := agg.WindowSketch(0)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

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
	if err := relay.Forward(ctx); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	sameBits(t, "root window after it refused the upward frame", window(root), before)
	if rs, up := root.Stats(), relay.Stats(); rs.Rejected != 1 || up.Rejected != 1 {
		t.Fatalf("root rejected %d, relay saw %d upward frames rejected; want 1 and 1", rs.Rejected, up.Rejected)
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
// seed) through a durable relay, optionally killing and restoring it
// mid-window-2, and returns the root's final state. The drive is
// leaf-major inside each window, so a post-restore replay (all of leaf
// 0's frames, then leaf 1's) re-folds in exactly the original order.
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
	snapPath := filepath.Join(t.TempDir(), "relay.snap")
	ropts := RelayOptions{ID: "r0", Upstream: rootAddr, SnapshotPath: snapPath, BackoffSeed: seed ^ 0xbac0ff}
	relay, err := NewRelay(ctx, sk, ropts)
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	proxy := startTestProxy(t, serveRelay(t, relay))

	leaves := make([]*stream.Node, L)
	for l := range leaves {
		n, err := stream.Dial(ctx, proxy.Addr(), sk, fmt.Sprintf("node%02d", l), stream.NodeOptions{
			BackoffSeed: seed ^ uint64(l+1)<<8,
		})
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
		snap, err := stream.LoadSnapshot(snapPath)
		if err != nil {
			t.Fatalf("LoadSnapshot: %v", err)
		}
		restored, err := RestoreRelay(ctx, sk, ropts, snap)
		if err != nil {
			t.Fatalf("RestoreRelay: %v", err)
		}
		proxy.Retarget(serveRelay(t, restored))
		// The restored relay syncs FIRST: its snapshot predates the
		// window adoptions after it, so its clock must catch up with the
		// root before any leaf frame arrives (a leaf frame tagged with a
		// window the relay hasn't adopted yet would be rejected as
		// "ahead").
		if err := restored.Sync(ctx); err != nil {
			t.Fatalf("restored relay sync: %v", err)
		}
		relay = restored
		for l := range leaves {
			if err := leaves[l].Sync(ctx); err != nil {
				t.Fatalf("leaf %d post-restore sync: %v", l, err)
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
				// Mid-window crash: window 1 was forwarded (and therefore
				// snapshotted), leaf 0's window-2 frames die with the relay's
				// unstable accumulators and must come back via leaf replay.
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
// for the extra hop: a run with a mid-window relay kill/restore must
// leave the root's windows bit-identical to an uninterrupted run of
// the same plan, with every leaf capture folded exactly once.
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
			if crashed.root.Duplicates == 0 {
				t.Fatal("crash run produced no upward duplicates — the restored relay replayed nothing")
			}
		})
	}
}

// TestRelayExtraCodec pins the Snapshot.Extra inner codec: round-trip
// identity and rejection of malformed blobs.
func TestRelayExtraCodec(t *testing.T) {
	frames := []*stream.Frame{
		{Window: 1, Seq: 1, Folds: 2, Payload: []byte{1, 2, 3}},
		{Window: 1, Seq: 2, Folds: 1, Payload: nil},
		{Window: 3, Seq: 5, Folds: 7, Payload: []byte{0xff}},
	}
	b, err := encodeRelayExtra(3, 1, "relayA", 4, 9, frames[:1], frames[1:])
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// CSTR version 1, as the commit before the shared sender wrote it: a
	// relay snapshot taken by an older build restores under this one.
	const golden = "4353545201000300000001000000060072656c6179410400000000000000090000000000000003000000" +
		"010000000000000001000000000000000200000003000000010203" +
		"0100000000000000020000000000000001000000" + "00000000" +
		"030000000000000005000000000000000700000001000000ff"
	if got := hex.EncodeToString(b); got != golden {
		t.Fatalf("CSTR v1 bytes changed:\n got %s\nwant %s", got, golden)
	}
	st, err := decodeRelayExtra(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.Shard != 3 || st.Level != 1 || st.ID != "relayA" || st.UpEpoch != 4 || st.UpSeq != 9 {
		t.Fatalf("decoded header %+v", st)
	}
	if len(st.Frames) != 3 {
		t.Fatalf("decoded %d frames, want 3", len(st.Frames))
	}
	for i, f := range st.Frames {
		want := frames[i]
		if f.Window != want.Window || f.Seq != want.Seq || f.Folds != want.Folds || string(f.Payload) != string(want.Payload) {
			t.Fatalf("frame %d: %+v, want %+v", i, f, want)
		}
	}

	if _, err := decodeRelayExtra(b[:len(b)-1]); err == nil {
		t.Fatal("accepted truncated blob")
	}
	if _, err := decodeRelayExtra(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
	bad := append([]byte(nil), b...)
	bad[0] ^= 0x40
	if _, err := decodeRelayExtra(bad); err == nil {
		t.Fatal("accepted bad magic")
	}
	if _, err := encodeRelayExtra(0, 1, "x", 1, 1, []*stream.Frame{{Seq: 2}, {Seq: 1}}); err == nil {
		t.Fatal("encoded out-of-order seqs")
	}
	// A frame seq above the snapshotted counter can never have been
	// assigned — reject rather than replay a forged frame.
	forged, err := encodeRelayExtra(0, 1, "x", 1, 9, []*stream.Frame{{Seq: 3}})
	if err != nil {
		t.Fatalf("encode forged base: %v", err)
	}
	// Patch upSeq (bytes right before the count) down to 2 < 3.
	// Layout: magic(4) ver(2) shard(4) level(4) idLen(2) id(1) upEpoch(8) upSeq(8) ...
	off := 4 + 2 + 4 + 4 + 2 + 1 + 8
	for i := 0; i < 8; i++ {
		forged[off+i] = 0
	}
	forged[off] = 2
	if _, err := decodeRelayExtra(forged); err == nil {
		t.Fatal("accepted frame seq above the snapshotted upSeq")
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
		BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, BackoffSeed: 77,
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
	snap, err := root.Snapshot()
	if err != nil {
		t.Fatalf("root snapshot: %v", err)
	}
	root.CommitSnapshot(snap) // seq 1 is durable; 2 and 3 will be acked past it
	step(1, 1)
	step(0, 2)
	if st := relay.Stats(); st.Retained != 2 || st.RootStable != 1 || st.Applied != 3 {
		t.Fatalf("before the kill: %+v, want seq 2 and 3 retained above Stable 1", st)
	}
	if kill {
		root.Close(ctx)
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
// the cap are counted, as a leaf's are — each is a frame a parent
// restore could lose.
func TestRelayRetainCapCounted(t *testing.T) {
	sk := tierSketcher(t, 64, 32, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 2, Durable: true}) // never commits: every ack leaves its frame retained
	relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr, Retain: 1})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	defer relay.Close(ctx)
	leaf, err := stream.Dial(ctx, serveRelay(t, relay), sk, "node00", stream.NodeOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for i := 0; i < 3; i++ {
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
	if st := relay.Stats(); st.Applied != 3 || st.Retained != 1 || st.RetainDropped != 2 {
		t.Fatalf("%+v, want 3 applied, 1 retained, 2 dropped at the cap", st)
	}
}
