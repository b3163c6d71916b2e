package stream

import (
	"context"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csoutlier"
)

// TestShedMergeExact pins the linearity contract of admission control:
// a capture merged into a queued frame is bit-for-bit the delta one
// larger capture would have produced. A shedding node (ShedAt=2) takes
// three captures — the third merges into the second — while a shadow
// node simply captures the same observations in two drains. Both
// aggregators must hold bit-identical windows.
func TestShedMergeExact(t *testing.T) {
	sk := testSketcher(t, 256, 64, 31)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 4})
	shadowAgg, shadowAddr := serveAgg(t, sk, AggregatorOptions{Windows: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	n, err := Dial(ctx, addr, sk, "node00", NodeOptions{ShedAt: 2, MaxPending: 8})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer n.Abort()
	shadow, err := Dial(ctx, shadowAddr, sk, "node00", NodeOptions{})
	if err != nil {
		t.Fatalf("Dial shadow: %v", err)
	}
	defer shadow.Abort()

	obs := []struct {
		key string
		v   float64
	}{{"key010", 1.5}, {"key020", -2.25}, {"key030", 4.125}}

	// Shedding node: three local captures, no transmission in between.
	// Captures 1 and 2 queue frames; capture 3 finds pending == ShedAt
	// and folds into the (unsent) second frame.
	for i, o := range obs {
		if err := n.Observe(o.key, o.v); err != nil {
			t.Fatalf("Observe %d: %v", i, err)
		}
		if err := n.capture(false); err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
	}
	// One observation a capture: both frames were queued as pairs, and the
	// merge target became a sketch to take the third capture's sum.
	st := n.Stats()
	if st.Captured != 3 || st.Merged != 1 || st.Pending != 2 || st.PairFrames != 1 {
		t.Fatalf("after shed capture: %+v, want Captured=3 Merged=1 Pending=2 PairFrames=1", st)
	}
	if head, tail := n.snd.pending[0].Payload, n.snd.pending[1].Payload; !csoutlier.PairsEncoded(head) || csoutlier.PairsEncoded(tail) || len(tail) != csoutlier.EncodedSketchLen(sk.M()) {
		t.Fatalf("pending payloads are %d and %d bytes, want pairs then a merged sketch", len(head), len(tail))
	}
	if err := n.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// Shadow node: the same observations in two captures — the second
	// drain covers observations 2 and 3, exactly what the merge built.
	if err := shadow.Observe(obs[0].key, obs[0].v); err != nil {
		t.Fatalf("shadow Observe: %v", err)
	}
	if err := shadow.Flush(ctx); err != nil {
		t.Fatalf("shadow Flush: %v", err)
	}
	for _, o := range obs[1:] {
		if err := shadow.Observe(o.key, o.v); err != nil {
			t.Fatalf("shadow Observe: %v", err)
		}
	}
	if err := shadow.Flush(ctx); err != nil {
		t.Fatalf("shadow Flush: %v", err)
	}

	got, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	want, err := shadowAgg.WindowSketch(0)
	if err != nil {
		t.Fatalf("shadow WindowSketch: %v", err)
	}
	sameBits(t, "shed window vs shadow", got, want)

	// Conservation: every capture is folded exactly once — applied
	// frames plus shed folds equals captures.
	as := agg.Stats()
	if as.ShedFrames != 1 || as.ShedFolds != 1 {
		t.Fatalf("agg shed stats: frames=%d folds=%d, want 1/1", as.ShedFrames, as.ShedFolds)
	}
	ns := agg.Nodes()[0]
	if ns.Applied+as.ShedFolds != st.Captured {
		t.Fatalf("conservation: applied %d + shed folds %d != captured %d", ns.Applied, as.ShedFolds, st.Captured)
	}
	if ns.ShedFrames != 1 || ns.ShedFolds != 1 {
		t.Fatalf("node shed status: %+v, want ShedFrames=1 ShedFolds=1", ns)
	}
}

// TestShedMergeInPlace: once the merge target holds a sketch, every
// further shed capture is summed into those same bytes — no decode, no
// re-encode, no second buffer.
func TestShedMergeInPlace(t *testing.T) {
	sk := testSketcher(t, 256, 64, 31)
	_, addr := serveAgg(t, sk, AggregatorOptions{Windows: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n, err := Dial(ctx, addr, sk, "node00", NodeOptions{ShedAt: 1, MaxPending: 8})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer n.Abort()
	capture := func(v float64) {
		t.Helper()
		if err := n.Observe("key010", v); err != nil {
			t.Fatal(err)
		}
		if err := n.capture(false); err != nil {
			t.Fatal(err)
		}
	}
	capture(1) // queued, as pairs
	capture(2) // merged: the tail becomes a sketch
	tail := n.snd.pending[0]
	bytesAt := &tail.Payload[0]
	for i := 0; i < 20; i++ {
		capture(float64(3 + i))
	}
	if len(n.snd.pending) != 1 || &n.snd.pending[0].Payload[0] != bytesAt || len(tail.Payload) != csoutlier.EncodedSketchLen(sk.M()) {
		t.Fatalf("20 merges moved or resized the tail's payload (%d pending, %d bytes)", len(n.snd.pending), len(tail.Payload))
	}
	want := sk.NewUpdater()
	for v := 1; v <= 22; v++ {
		want.Observe("key010", float64(v)) // the same sums in the same order
	}
	got, err := sk.UnmarshalSketch(tail.Payload)
	if err != nil {
		t.Fatal(err)
	}
	wantSk := sk.ZeroSketch()
	if _, err := want.DrainInto(wantSk); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "22 captures merged in place", got, wantSk)
	if st := n.Stats(); st.Captured != 22 || st.Merged != 21 || st.PairFrames != 0 || tail.Folds != 22 {
		t.Fatalf("stats %+v folds %d, want 22 captures, 21 merged, no pairs frame left", st, tail.Folds)
	}
}

// TestShedNeverMergesSentFrame: a frame that has been transmitted once
// is never a merge target — a retry would resend mutated bytes under an
// already-marked sequence number and silently lose the merged captures.
func TestShedNeverMergesSentFrame(t *testing.T) {
	sk := testSketcher(t, 128, 64, 32)
	_, addr := serveAgg(t, sk, AggregatorOptions{Windows: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	n, err := Dial(ctx, addr, sk, "node00", NodeOptions{ShedAt: 1, MaxPending: 4})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer n.Abort()
	if err := n.Observe("key001", 1); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if err := n.capture(false); err != nil {
		t.Fatalf("capture: %v", err)
	}
	// Mark the only pending frame as transmitted, as an in-flight push
	// would.
	n.snd.mu.Lock()
	n.snd.pending[0].sent = true
	n.snd.mu.Unlock()
	if err := n.Observe("key002", 1); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if err := n.capture(false); err != nil {
		t.Fatalf("capture: %v", err)
	}
	st := n.Stats()
	if st.Merged != 0 || st.Pending != 2 {
		t.Fatalf("capture merged into a sent frame: %+v", st)
	}
}

// gateRelay is a TCP relay whose uplink can be cut and restored: Cut
// severs every live connection and refuses new ones, simulating a dead
// link; Restore returns it to plain passthrough.
type gateRelay struct {
	addr string
	open atomic.Bool

	mu     sync.Mutex
	target string // where new connections go; Retarget moves it
	conns  []net.Conn
}

func newGateRelay(t *testing.T, target string) *gateRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("relay listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	g := &gateRelay{addr: ln.Addr().String(), target: target}
	g.open.Store(true)
	go func() {
		for {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			if !g.open.Load() {
				cli.Close()
				continue
			}
			g.mu.Lock()
			target := g.target
			g.mu.Unlock()
			srv, err := net.Dial("tcp", target)
			if err != nil {
				cli.Close()
				continue
			}
			g.mu.Lock()
			g.conns = append(g.conns, cli, srv)
			g.mu.Unlock()
			go func() {
				io.Copy(cli, srv)
				cli.Close()
			}()
			go func() {
				io.Copy(srv, cli)
				srv.Close()
			}()
		}
	}()
	return g
}

func (g *gateRelay) Cut() {
	g.open.Store(false)
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.conns {
		c.Close()
	}
	g.conns = nil
}

func (g *gateRelay) Restore() { g.open.Store(true) }

// Retarget points future connections at another upstream — a restored
// aggregator on a fresh listener.
func (g *gateRelay) Retarget(target string) {
	g.mu.Lock()
	g.target = target
	g.mu.Unlock()
}

// TestOverloadShed cuts a node's uplink while observations keep coming.
// The background flusher keeps capturing but cannot drain, so pending
// frames hit ShedAt and further captures merge instead of erroring at
// MaxPending or growing without bound. Observe must stay non-blocking
// throughout. When the link returns, the backlog drains and every
// capture is accounted for: applied frames + shed folds = captures, and
// the window matches the observed totals to FP-regrouping precision.
func TestOverloadShed(t *testing.T) {
	sk := testSketcher(t, 128, 64, 33)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 4})
	relay := newGateRelay(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	n, err := Dial(ctx, relay.addr, sk, "node00", NodeOptions{
		ShedAt:      2,
		MaxPending:  8,
		FlushEvery:  2 * time.Millisecond,
		PushTimeout: 10 * time.Millisecond,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	relay.Cut() // uplink goes dark after the initial hello

	const iters = 100
	var worst time.Duration
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := n.Observe("key042", 1); err != nil {
			t.Fatalf("Observe %d: %v", i, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
		time.Sleep(3 * time.Millisecond)
	}
	relay.Restore()
	// Observe is a local sketch fold; even under full backpressure it
	// must never wait on the network.
	if worst > 250*time.Millisecond {
		t.Fatalf("Observe blocked for %v under overload", worst)
	}

	// Drain the backlog through the throttle and reconcile.
	if err := n.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := n.Stats()
	if st.Merged == 0 {
		t.Fatalf("no shed merges under overload: %+v", st)
	}
	if st.Pending != 0 {
		t.Fatalf("backlog not drained: %+v", st)
	}
	as := agg.Stats()
	ns := agg.Nodes()[0]
	if as.ShedFrames == 0 || as.ShedFolds != st.Merged {
		t.Fatalf("agg shed stats frames=%d folds=%d vs node Merged=%d", as.ShedFrames, as.ShedFolds, st.Merged)
	}
	if ns.Applied+as.ShedFolds != st.Captured {
		t.Fatalf("conservation: applied %d + shed folds %d != captured %d", ns.Applied, as.ShedFolds, st.Captured)
	}

	// The window holds the full observed mass regardless of how the
	// captures were regrouped — entries differ from a one-shot fold only
	// by FP association, so compare with a relative tolerance.
	shadow := testSketcher(t, 128, 64, 33)
	u := shadow.NewUpdater()
	if err := u.Observe("key042", float64(iters)); err != nil {
		t.Fatalf("shadow Observe: %v", err)
	}
	want := shadow.ZeroSketch()
	if _, err := u.DrainInto(want); err != nil {
		t.Fatalf("DrainInto: %v", err)
	}
	got, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	for i := range got.Y {
		w, g := want.Y[i], got.Y[i]
		if math.Abs(g-w) > 1e-9*math.Max(math.Abs(w), 1) {
			t.Fatalf("window entry %d = %v, want ≈ %v", i, g, w)
		}
	}
}

// TestRecycleNeverReusesResendableFrame (run under -race) drives every
// way a captured frame can be sent again — a retry after a cut link
// (sent frames), a replay after an aggregator restore (Retain + AggEpoch
// bump), shed merges into the queue's tail — while snapshot commits
// keep trimming the retention buffer into the free list and a
// background flusher keeps capturing out of it. A payload buffer handed
// to a new capture while its old frame could still go out would be a
// data race on the bytes, break the list invariant checked throughout,
// or land the wrong mass in the window.
func TestRecycleNeverReusesResendableFrame(t *testing.T) {
	sk := testSketcher(t, 128, 64, 34)
	first, firstAddr := serveAgg(t, sk, AggregatorOptions{Windows: 2, Durable: true})
	relay := newGateRelay(t, firstAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	n, err := Dial(ctx, relay.addr, sk, "node00", NodeOptions{
		ShedAt:      2,
		MaxPending:  4,
		FlushEvery:  time.Millisecond,
		PushTimeout: 5 * time.Millisecond, // the flusher gives up on a dead link after 4× this, then captures (and sheds) again
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}

	// checkLists: a frame is in at most one of pending, retained and
	// free, and no two frames share a payload buffer.
	checkLists := func() {
		n.snd.mu.Lock()
		defer n.snd.mu.Unlock()
		where := make(map[*Frame]string)
		buffers := make(map[*byte]*Frame)
		for list, frames := range map[string][]*Frame{"pending": n.snd.pending, "retained": n.snd.retained, "free": n.snd.free} {
			for _, f := range frames {
				if prev, dup := where[f]; dup {
					t.Errorf("frame seq %d is in both %s and %s", f.Seq, prev, list)
				}
				where[f] = list
				if cap(f.Payload) == 0 {
					continue
				}
				first := &f.Payload[:1][0]
				if other, shared := buffers[first]; shared {
					t.Errorf("frames seq %d and seq %d share a payload buffer", other.Seq, f.Seq)
				}
				buffers[first] = f
			}
		}
	}

	const perPhase = 400
	observe := func() {
		for i := 0; i < perPhase; i++ {
			if err := n.Observe("key007", 1); err != nil {
				t.Errorf("Observe: %v", err)
				return
			}
			if i%10 == 0 {
				checkLists()
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	// commit makes everything agg has folded durable: the next ack lets
	// the node trim its retention buffer into the free list.
	commit := func(agg *Aggregator) {
		snap, err := agg.Snapshot()
		if err != nil {
			t.Errorf("Snapshot: %v", err)
			return
		}
		agg.CommitSnapshot(snap)
	}
	// phase observes while the link flaps and snapshots commit.
	phase := func(agg *Aggregator) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			observe()
		}()
		for i := 0; ; i++ {
			select {
			case <-done:
				relay.Restore()
				return
			default:
			}
			switch i % 16 {
			case 1:
				relay.Cut()
				// Hold the cut until the flusher has shed a capture into a
				// queued frame (or for 200 ms): a merge takes three captures
				// inside one cut, and how many a fixed-length cut sees
				// depends on the box's timer resolution.
				merged := n.Stats().Merged
				for deadline := time.Now().Add(200 * time.Millisecond); n.Stats().Merged == merged && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			case 12:
				relay.Restore()
			case 7, 15:
				commit(agg)
			}
			time.Sleep(3 * time.Millisecond)
		}
	}

	phase(first)
	// Crash and restore: the snapshot is older than the last acks, so the
	// frames acked since it exist only in the node's retention buffer.
	snap, err := first.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 0; i < 40; i++ {
		if err := n.Observe("key007", 1); err != nil {
			t.Fatalf("Observe: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	relay.Cut()
	first.Close(ctx)
	second, err := RestoreAggregator(sk, AggregatorOptions{Durable: true}, snap)
	if err != nil {
		t.Fatalf("RestoreAggregator: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go second.Serve(ln)
	defer second.Close(ctx)
	relay.Retarget(ln.Addr().String())
	relay.Restore()
	phase(second)

	// Quiesce: once a snapshot covers everything and an ack says so, the
	// retention buffer empties into the free list.
	if err := n.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	commit(second)
	if err := n.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	checkLists()
	n.snd.mu.Lock()
	retained, recycled := len(n.snd.retained), len(n.snd.free)
	n.snd.mu.Unlock()
	if retained != 0 || recycled == 0 {
		t.Fatalf("after a covering commit: %d frames retained, %d recycled; want 0 and some", retained, recycled)
	}
	if err := n.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := n.Stats()
	if st.Replayed == 0 || st.Merged == 0 || st.RetainDropped != 0 || st.Pending != 0 {
		t.Fatalf("the run did not exercise replay and shed merge (or lost frames): %+v", st)
	}
	// Every observation added exactly 1 to one key, however the captures
	// were grouped, retried and replayed.
	u := sk.NewUpdater()
	if err := u.Observe("key007", float64(2*perPhase+40)); err != nil {
		t.Fatal(err)
	}
	want := sk.ZeroSketch()
	if _, err := u.DrainInto(want); err != nil {
		t.Fatal(err)
	}
	got, err := second.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	for i := range got.Y {
		if w, g := want.Y[i], got.Y[i]; math.Abs(g-w) > 1e-9*math.Max(math.Abs(w), 1) {
			t.Fatalf("window entry %d = %v, want ≈ %v", i, g, w)
		}
	}
}
