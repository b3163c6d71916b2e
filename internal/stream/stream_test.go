package stream

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"csoutlier"
)

func testSketcher(t testing.TB, n, m int, seed uint64) *csoutlier.Sketcher {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%03d", i)
	}
	sk, err := csoutlier.NewSketcher(keys, csoutlier.Config{M: m, Seed: seed})
	if err != nil {
		t.Fatalf("NewSketcher: %v", err)
	}
	return sk
}

// serveAgg starts an aggregator on a loopback listener and returns it
// with its address. Closed via t.Cleanup (idempotent with explicit
// closes in the test body).
func serveAgg(t *testing.T, sk *csoutlier.Sketcher, opts AggregatorOptions) (*Aggregator, string) {
	t.Helper()
	agg, err := NewAggregator(sk, opts)
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

// TestStreamEndToEnd drives three nodes through observe→flush→rotate
// cycles over real TCP and checks the aggregator's per-window sketches
// are bit-identical to a shadow mirror of the same fold sequence, and
// that the recovered outliers are right.
func TestStreamEndToEnd(t *testing.T) {
	sk := testSketcher(t, 256, 96, 42)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const L = 3
	nodes := make([]*Node, L)
	shadow := make([]*csoutlier.Updater, L)
	for l := range nodes {
		n, err := Dial(ctx, addr, sk, fmt.Sprintf("node%02d", l), NodeOptions{})
		if err != nil {
			t.Fatalf("Dial node %d: %v", l, err)
		}
		nodes[l] = n
		shadow[l] = sk.NewUpdater()
	}
	observe := func(l int, key string, delta float64) {
		t.Helper()
		if err := nodes[l].Observe(key, delta); err != nil {
			t.Fatalf("node %d observe: %v", l, err)
		}
		if err := shadow[l].Observe(key, delta); err != nil {
			t.Fatalf("shadow %d observe: %v", l, err)
		}
	}
	scratch := sk.ZeroSketch()
	// flush pushes node l's delta and folds the shadow's identical delta
	// into expected — same values, same order, so the global window
	// sketches must match bit for bit.
	flush := func(l int, expected csoutlier.Sketch) {
		t.Helper()
		if err := nodes[l].Flush(ctx); err != nil {
			t.Fatalf("node %d flush: %v", l, err)
		}
		if _, err := shadow[l].DrainInto(scratch); err != nil {
			t.Fatalf("shadow %d drain: %v", l, err)
		}
		if err := expected.Add(scratch); err != nil {
			t.Fatalf("expected add: %v", err)
		}
	}

	// Window 1: every key totals 50 across the three nodes, with two
	// planted outliers.
	weights := []float64{20, 20, 10}
	for l := 0; l < L; l++ {
		for i := 0; i < 256; i++ {
			observe(l, fmt.Sprintf("key%03d", i), weights[l])
		}
	}
	observe(1, "key005", 400)
	observe(2, "key123", -300)
	expected1 := sk.ZeroSketch()
	for l := 0; l < L; l++ {
		flush(l, expected1)
	}
	got, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	sameBits(t, "window 1", got, expected1)

	rep, err := agg.Outliers(0, 0, 2)
	if err != nil {
		t.Fatalf("Outliers: %v", err)
	}
	if len(rep.Outliers) != 2 || rep.Outliers[0].Key != "key005" || rep.Outliers[1].Key != "key123" {
		t.Fatalf("outliers = %+v, want key005 then key123", rep.Outliers)
	}
	if math.Abs(rep.Mode-50) > 1e-6 {
		t.Fatalf("mode = %v, want 50", rep.Mode)
	}
	if math.Abs(rep.Outliers[0].Value-450) > 1e-6 || math.Abs(rep.Outliers[1].Value+250) > 1e-6 {
		t.Fatalf("outlier values = %+v, want 450 and -250", rep.Outliers)
	}

	// The same standing query with no new data must come from the cache.
	if _, err := agg.Outliers(0, 0, 2); err != nil {
		t.Fatalf("Outliers (cached): %v", err)
	}
	if s := agg.Stats(); s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", s.CacheHits, s.CacheMisses)
	}

	// Rotate. Node 0 keeps its stale window view and flushes late data —
	// which must still land in window 1. Node 1 syncs first, so its data
	// lands in window 2.
	if w := agg.Rotate(); w != 2 {
		t.Fatalf("Rotate → window %d, want 2", w)
	}
	observe(0, "key007", 111)
	flush(0, expected1) // late: node 0 still tags window 1
	if nodes[0].Window() != 2 {
		t.Fatalf("node 0 window = %d after flush, want 2 (adopted from ack)", nodes[0].Window())
	}
	if err := nodes[1].Sync(ctx); err != nil {
		t.Fatalf("node 1 sync: %v", err)
	}
	if nodes[1].Window() != 2 {
		t.Fatalf("node 1 window = %d after sync, want 2", nodes[1].Window())
	}
	observe(1, "key009", 77)
	expected2 := sk.ZeroSketch()
	flush(1, expected2)

	got1, err := agg.WindowSketch(1)
	if err != nil {
		t.Fatalf("WindowSketch(1): %v", err)
	}
	sameBits(t, "window 1 after rotation", got1, expected1)
	got2, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch(0): %v", err)
	}
	sameBits(t, "window 2", got2, expected2)

	// A span query sums the windows exactly.
	span, err := agg.RangeSketch(0, 1)
	if err != nil {
		t.Fatalf("RangeSketch: %v", err)
	}
	wantSpan := expected1.Clone()
	if err := wantSpan.Add(expected2); err != nil {
		t.Fatalf("span add: %v", err)
	}
	sameBits(t, "span [0,1]", span, wantSpan)

	// Liveness table.
	sts := agg.Nodes()
	if len(sts) != 3 {
		t.Fatalf("Nodes() = %d entries, want 3", len(sts))
	}
	if sts[0].Node != "node00" || sts[0].Applied != 2 || sts[0].Lag != 1 {
		t.Fatalf("node00 status = %+v, want Applied=2 Lag=1", sts[0])
	}
	if sts[1].Applied != 2 || sts[1].Lag != 0 || sts[1].LastWindow != 2 {
		t.Fatalf("node01 status = %+v, want Applied=2 Lag=0 LastWindow=2", sts[1])
	}

	// Graceful shutdown: nodes close (final empty flush), then the
	// aggregator drains; its state stays queryable.
	for l := range nodes {
		if err := nodes[l].Close(ctx); err != nil {
			t.Fatalf("node %d close: %v", l, err)
		}
	}
	if err := agg.Close(ctx); err != nil {
		t.Fatalf("agg close: %v", err)
	}
	got1, err = agg.WindowSketch(1)
	if err != nil {
		t.Fatalf("WindowSketch after close: %v", err)
	}
	sameBits(t, "window 1 after close", got1, expected1)
}

// TestStreamIdempotency replays, duplicates, reorders and mis-tags
// delta frames through a raw client and checks the aggregator folds
// each exactly once — the global sketches stay bit-identical to the
// intended fold sequence.
func TestStreamIdempotency(t *testing.T) {
	sk := testSketcher(t, 64, 24, 7)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	c, err := DialClient(ctx, addr, 5*time.Second)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer c.Close()
	ack, err := c.Hello("node00", 1)
	if err != nil || ack.Err != "" {
		t.Fatalf("hello: %v / %q", err, ack.Err)
	}
	if ack.Window != 1 {
		t.Fatalf("hello window = %d, want 1", ack.Window)
	}

	// Deterministic delta payloads d1..d6, from a shadow updater.
	su := sk.NewUpdater()
	deltas := make([][]byte, 0, 6)
	sketches := make([]csoutlier.Sketch, 0, 6)
	for i := 0; i < 6; i++ {
		if err := su.Observe(fmt.Sprintf("key%03d", i), float64(i+1)); err != nil {
			t.Fatalf("shadow observe: %v", err)
		}
		d := sk.ZeroSketch()
		if _, err := su.DrainInto(d); err != nil {
			t.Fatalf("shadow drain: %v", err)
		}
		b, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		deltas = append(deltas, b)
		sketches = append(sketches, d)
	}
	push := func(epoch, window, seq uint64, payload []byte) Ack {
		t.Helper()
		ack, err := c.PushDelta("node00", epoch, window, seq, 1, payload)
		if err != nil {
			t.Fatalf("push seq %d: %v", seq, err)
		}
		return ack
	}

	expect1 := sk.ZeroSketch() // intended content of window 1

	if ack := push(1, 1, 1, deltas[0]); !ack.Applied {
		t.Fatalf("seq 1: %+v, want applied", ack)
	}
	expect1.Add(sketches[0])
	if ack := push(1, 1, 1, deltas[0]); ack.Applied || ack.Status != StatusDuplicate {
		t.Fatalf("seq 1 replay: %+v, want duplicate", ack)
	}
	// Reorder: seq 3 lands before seq 2.
	if ack := push(1, 1, 3, deltas[2]); !ack.Applied {
		t.Fatalf("seq 3: %+v, want applied", ack)
	}
	expect1.Add(sketches[2])
	if ack := push(1, 1, 2, deltas[1]); !ack.Applied {
		t.Fatalf("seq 2: %+v, want applied", ack)
	}
	expect1.Add(sketches[1])
	if ack := push(1, 1, 2, deltas[1]); ack.Status != StatusDuplicate {
		t.Fatalf("seq 2 replay: %+v, want duplicate", ack)
	}
	// Frame-level rejections that must not mark the sequence processed.
	if ack := push(1, 1, 0, deltas[3]); ack.Err == "" {
		t.Fatalf("seq 0 accepted: %+v", ack)
	}
	if ack := push(1, 9, 4, deltas[3]); ack.Err == "" {
		t.Fatalf("future window accepted: %+v", ack)
	}
	if ack := push(1, 1, 4, []byte("garbage")); ack.Err == "" {
		t.Fatalf("corrupt payload accepted: %+v", ack)
	}
	// After those rejections, a clean retry of seq 4 must still apply.
	if ack := push(1, 1, 4, deltas[3]); !ack.Applied {
		t.Fatalf("seq 4 retry: %+v, want applied", ack)
	}
	expect1.Add(sketches[3])

	got, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	sameBits(t, "window 1", got, expect1)

	// Late data: two rotations on, a window-1 delta folds into age 2.
	agg.Rotate()
	agg.Rotate()
	if ack := push(1, 1, 5, deltas[4]); !ack.Applied || ack.Window != 3 {
		t.Fatalf("late seq 5: %+v, want applied with window broadcast 3", ack)
	}
	expect1.Add(sketches[4])
	got, err = agg.WindowSketch(2)
	if err != nil {
		t.Fatalf("WindowSketch(2): %v", err)
	}
	sameBits(t, "window 1 at age 2", got, expect1)

	// One more rotation pushes window 1 off the ring: a straggler is
	// acknowledged as dropped (and marked, so its retry is a duplicate).
	agg.Rotate()
	if ack := push(1, 1, 6, deltas[5]); ack.Status != StatusDroppedOld || ack.Err != "" {
		t.Fatalf("seq 6: %+v, want dropped-old", ack)
	}
	if ack := push(1, 1, 6, deltas[5]); ack.Status != StatusDuplicate {
		t.Fatalf("seq 6 retry: %+v, want duplicate", ack)
	}

	// Epoch bump: a restarted incarnation reuses seq 1 and must not be
	// deduped against the old epoch's sequence space.
	c2, err := DialClient(ctx, addr, 5*time.Second)
	if err != nil {
		t.Fatalf("DialClient 2: %v", err)
	}
	defer c2.Close()
	if ack, err := c2.Hello("node00", 2); err != nil || ack.Err != "" {
		t.Fatalf("hello epoch 2: %v / %q", err, ack.Err)
	}
	ack2, err := c2.PushDelta("node00", 2, 4, 1, 1, deltas[5])
	if err != nil || !ack2.Applied {
		t.Fatalf("epoch-2 seq 1: %v / %+v, want applied", err, ack2)
	}
	// The old incarnation is now stale everywhere.
	if ack := push(1, 4, 7, deltas[5]); ack.Err == "" {
		t.Fatalf("stale epoch delta accepted: %+v", ack)
	}
	if ack, err := c.Hello("node00", 1); err != nil || ack.Err == "" {
		t.Fatalf("stale epoch hello: %v / %+v, want rejection", err, ack)
	}

	sts := agg.Nodes()
	if len(sts) != 1 || sts[0].Restarts != 1 {
		t.Fatalf("node status = %+v, want one node with Restarts=1", sts)
	}
	if s := agg.Stats(); s.Duplicates != 3 || s.Dropped != 1 || s.Applied != 6 {
		t.Fatalf("stats = %+v, want Applied=6 Duplicates=3 Dropped=1", s)
	}
}

func TestSeqTracker(t *testing.T) {
	var tr seqTracker
	if tr.seen(1) {
		t.Fatal("empty tracker saw seq 1")
	}
	tr.mark(1)
	tr.mark(3)
	tr.mark(5)
	if tr.base != 1 || len(tr.ahead) != 2 {
		t.Fatalf("base=%d ahead=%d, want 1/2", tr.base, len(tr.ahead))
	}
	if !tr.seen(1) || tr.seen(2) || !tr.seen(3) || tr.seen(4) || !tr.seen(5) {
		t.Fatal("seen() wrong after sparse marks")
	}
	tr.mark(2) // fills the gap: base jumps over 3
	if tr.base != 3 || len(tr.ahead) != 1 {
		t.Fatalf("base=%d ahead=%d after gap fill, want 3/1", tr.base, len(tr.ahead))
	}
	tr.mark(4)
	if tr.base != 5 || len(tr.ahead) != 0 {
		t.Fatalf("base=%d ahead=%d after full fill, want 5/0 (memory reclaimed)", tr.base, len(tr.ahead))
	}
	tr.mark(4) // no-op
	if tr.base != 5 {
		t.Fatalf("re-mark moved base to %d", tr.base)
	}
}

// TestNodeBackpressureAndAbort checks the pending-frame bound and the
// crash path: an unreachable aggregator queues frames up to MaxPending,
// Flush then refuses to capture, and Abort drops everything.
func TestNodeBackpressureAndAbort(t *testing.T) {
	sk := testSketcher(t, 64, 24, 11)
	agg, addr := serveAgg(t, sk, AggregatorOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	n, err := Dial(ctx, addr, sk, "node00", NodeOptions{
		MaxPending: 1, PushTimeout: 100 * time.Millisecond,
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	// Kill the aggregator: pushes now fail.
	cctx, ccancel := context.WithTimeout(context.Background(), 5*time.Second)
	agg.Close(cctx)
	ccancel()

	if err := n.Observe("key001", 1); err != nil {
		t.Fatalf("observe: %v", err)
	}
	fctx, fcancel := context.WithTimeout(ctx, 300*time.Millisecond)
	if err := n.Flush(fctx); err == nil {
		t.Fatal("flush to a dead aggregator succeeded")
	}
	fcancel()
	if s := n.Stats(); s.Pending != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending)
	}
	// The queue is full: the next flush refuses to capture, but
	// observations keep landing in the standing sketch loss-free.
	if err := n.Observe("key002", 2); err != nil {
		t.Fatalf("observe: %v", err)
	}
	fctx, fcancel = context.WithTimeout(ctx, 100*time.Millisecond)
	err = n.Flush(fctx)
	fcancel()
	if err == nil {
		t.Fatal("flush captured past MaxPending")
	}
	if s := n.Stats(); s.Pending != 1 || s.Captured != 1 {
		t.Fatalf("stats = %+v, want Pending=1 Captured=1", s)
	}

	n.Abort()
	if s := n.Stats(); s.Pending != 0 {
		t.Fatalf("pending = %d after abort, want 0", s.Pending)
	}
	if _, err := DialClient(ctx, addr, time.Second); err == nil {
		t.Fatal("aggregator still accepting after close")
	}
}

// TestStreamBackgroundFlush runs nodes with background flush loops and
// wall-clock rotation under concurrent observers, then checks
// conservation: everything observed is folded somewhere in the ring.
// (Capture timing is nondeterministic here, so the check is numeric,
// not bit-exact — the deterministic tests above and the simtest soak
// cover exactness.)
func TestStreamBackgroundFlush(t *testing.T) {
	sk := testSketcher(t, 64, 24, 13)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 64, WindowEvery: 20 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	n, err := Dial(ctx, addr, sk, "node00", NodeOptions{FlushEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	total := sk.NewUpdater() // everything observed, never drained
	var wg sync.WaitGroup
	var mirror sync.Mutex
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				key := fmt.Sprintf("key%03d", (g*31+i)%64)
				if err := n.Observe(key, float64(i%7)+1); err != nil {
					t.Errorf("observe: %v", err)
					return
				}
				mirror.Lock()
				total.Observe(key, float64(i%7)+1)
				mirror.Unlock()
				time.Sleep(time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if err := n.Close(ctx); err != nil {
		t.Fatalf("node close: %v", err)
	}
	if err := agg.Close(ctx); err != nil {
		t.Fatalf("agg close: %v", err)
	}

	span, err := agg.RangeSketch(0, agg.AvailableWindows()-1)
	if err != nil {
		t.Fatalf("RangeSketch: %v", err)
	}
	want := total.Sketch()
	for i := range span.Y {
		if math.Abs(span.Y[i]-want.Y[i]) > 1e-9*math.Max(1, math.Abs(want.Y[i])) {
			t.Fatalf("conservation violated at Y[%d]: ring sum %v, observed total %v", i, span.Y[i], want.Y[i])
		}
	}
	s := n.Stats()
	if s.Applied == 0 || s.Rotations == 0 {
		t.Fatalf("node stats = %+v, want background flushes applied across rotations", s)
	}
	if as := agg.Stats(); as.Applied != s.Applied {
		t.Fatalf("aggregator applied %d, node applied %d", as.Applied, s.Applied)
	}
}

// TestServeAfterClose: a Serve that registers its listener after Close
// has run (`go agg.Serve(ln)` racing a shutdown) must not keep the port
// open and park in Accept — nothing would ever close that listener.
func TestServeAfterClose(t *testing.T) {
	agg, err := NewAggregator(testSketcher(t, 64, 32, 1), AggregatorOptions{})
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	if err := agg.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() { served <- agg.Serve(ln) }()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve on a closed aggregator: %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve on a closed aggregator is parked in Accept")
	}
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		conn.Close()
		t.Fatal("listener handed to a closed aggregator still accepts connections")
	}
}
