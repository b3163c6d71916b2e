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
	return serveAggAt(t, sk, opts, "127.0.0.1:0")
}

// serveAggAt is serveAgg on a given address: a restart on the address
// its nodes already dial.
func serveAggAt(t *testing.T, sk *csoutlier.Sketcher, opts AggregatorOptions, addr string) (*Aggregator, string) {
	t.Helper()
	agg, err := NewAggregator(sk, opts)
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
	if w := nodes[0].Stats().Window; w != 2 {
		t.Fatalf("node 0 window = %d after flush, want 2 (adopted from ack)", w)
	}
	if err := nodes[1].Sync(ctx); err != nil {
		t.Fatalf("node 1 sync: %v", err)
	}
	if w := nodes[1].Stats().Window; w != 2 {
		t.Fatalf("node 1 window = %d after sync, want 2", w)
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
	wantSpan := sk.ZeroSketch()
	copy(wantSpan.Y, expected1.Y)
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
// each at most once — a seq below one already processed is a duplicate
// — and the global sketches stay bit-identical to the intended fold
// sequence.
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
	// Reorder: seq 3 lands before seq 2. The book is the highest seq
	// processed, and a conforming sender never sends seq 2 after seq 3,
	// so seq 2 is a duplicate and is not folded.
	if ack := push(1, 1, 3, deltas[2]); !ack.Applied {
		t.Fatalf("seq 3: %+v, want applied", ack)
	}
	expect1.Add(sketches[2])
	if ack := push(1, 1, 2, deltas[1]); ack.Applied || ack.Status != StatusDuplicate {
		t.Fatalf("seq 2 after seq 3: %+v, want duplicate", ack)
	}
	if ack := push(1, 1, 2, deltas[1]); ack.Status != StatusDuplicate {
		t.Fatalf("seq 2 replay: %+v, want duplicate", ack)
	}
	// Frame-level rejections that must not mark the sequence processed.
	if ack := push(1, 1, 0, deltas[3]); ack.Err == "" {
		t.Fatalf("seq 0 accepted: %+v", ack)
	}
	if ack := push(1, 1, 4, []byte("garbage")); ack.Err == "" {
		t.Fatalf("corrupt payload accepted: %+v", ack)
	}
	// After those rejections, a clean retry of seq 4 must still apply.
	// Its window tag is ahead of the aggregator's, as a node's is after
	// a non-durable aggregator restarts: it folds into the open window.
	if ack := push(1, 9, 4, deltas[3]); !ack.Applied || ack.Window != 1 {
		t.Fatalf("seq 4 retry from window 9: %+v, want applied into window 1", ack)
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
	if ack := push(1, 1, 6, deltas[5]); ack.Status != statusDroppedOld || ack.Err != "" {
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
	if s := agg.Stats(); s.Duplicates != 4 || s.Dropped != 1 || s.Applied != 5 {
		t.Fatalf("stats = %+v, want Applied=5 Duplicates=4 Dropped=1", s)
	}
}

// TestRestartedNodeIsANewIncarnation: a node that crashes and Dials
// again under its name with the same options is a new incarnation. Its
// flushes fold as new data, none acked as a duplicate of its
// predecessor's, and the aggregator's row counts one restart.
func TestRestartedNodeIsANewIncarnation(t *testing.T) {
	sk := testSketcher(t, 64, 32, 13)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	total := sk.NewUpdater()
	var n *Node
	for life := 0; life < 2; life++ {
		var err error
		if n, err = Dial(ctx, addr, sk, "dc0", NodeOptions{}); err != nil {
			t.Fatalf("Dial %d: %v", life, err)
		}
		for i := 0; i < 3; i++ {
			key := fmt.Sprintf("key%03d", 3*life+i)
			if err := n.Observe(key, 1); err != nil {
				t.Fatal(err)
			}
			total.Observe(key, 1)
			if err := n.Flush(ctx); err != nil {
				t.Fatalf("life %d flush %d: %v", life, i, err)
			}
		}
		if life == 0 {
			n.Abort()
		}
	}
	defer n.Abort()
	if s := agg.Stats(); s.Applied != 6 || s.Duplicates != 0 {
		t.Fatalf("applied %d, duplicates %d; want 6 and 0", s.Applied, s.Duplicates)
	}
	if rows := agg.Nodes(); len(rows) != 1 || rows[0].Epoch != n.Stats().Epoch || rows[0].Restarts != 1 {
		t.Fatalf("rows %+v, want dc0 at epoch %d after one restart", rows, n.Stats().Epoch)
	}
	got, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "window after both lives", sk, got, total)
}

// TestSeqTracker: a member's dedup book is the highest seq processed.
// A fold never moves it back, and every seq at or below it is a
// duplicate, a skipped one included.
func TestSeqTracker(t *testing.T) {
	bk := newBook(false, 2, 1)
	deliver := func(seq uint64) string {
		t.Helper()
		ack, _, _ := bk.delta("n", 1, 1, seq, 1, nil, time.Time{}, func(int, uint64) error { return nil })
		if ack.Err != "" {
			t.Fatalf("seq %d refused: %s", seq, ack.Err)
		}
		return ack.Status
	}
	base := func() uint64 { return bk.members["n"].base }
	if got := deliver(1); got != statusApplied || base() != 1 {
		t.Fatalf("seq 1 on an empty book: %s, base %d; want applied, 1", got, base())
	}
	if got := deliver(3); got != statusApplied || base() != 3 { // seq 2 skipped: a rejected frame, then the next one
		t.Fatalf("seq 3 after 1: %s, base %d; want applied, 3", got, base())
	}
	for _, seq := range []uint64{1, 2, 3} {
		if got := deliver(seq); got != StatusDuplicate || base() != 3 {
			t.Fatalf("seq %d at base 3: %s, base %d; want duplicate, 3", seq, got, base())
		}
	}
	if got := deliver(300); got != statusApplied || base() != 300 || bk.members["n"].Stable != 300 {
		t.Fatalf("seq 300: %s, base %d; want applied, 300, and Stable with it", got, base())
	}
}

// TestBookCommitDue: a durable book counts the captures a record
// processed since its Stable last reached its base, a relay's frame
// every capture it sums, and reports a commit due at commitEvery. A
// commit that covers the base restarts the count and one that does not
// leaves it. A volatile book's Stable is always its base, so it never
// reports one.
func TestBookCommitDue(t *testing.T) {
	fold := func(int, uint64) error { return nil }
	bk := newBook(true, 2, 1)
	deliver := func(seq uint64, folds uint32) bool {
		t.Helper()
		ack, _, due := bk.delta("relay", 1, 1, seq, folds, nil, time.Time{}, fold)
		if !ack.Applied {
			t.Fatalf("seq %d: %+v", seq, ack)
		}
		return due
	}
	m := func() *member { return bk.members["relay"] }
	if deliver(1, 300) || m().since != 300 {
		t.Fatalf("a 300-fold frame: count %d, want 300 and no commit due", m().since)
	}
	if !deliver(2, commitEvery-300) || m().since != commitEvery {
		t.Fatalf("count %d, want %d and a commit due", m().since, commitEvery)
	}
	cut := func(base uint64) []SnapNode {
		return []SnapNode{{NodeStatus: NodeStatus{Node: "relay", Epoch: 1}, Base: base}}
	}
	if bk.commit(cut(1)); m().Stable != 1 || m().since != commitEvery {
		t.Fatalf("a commit below base: Stable %d, count %d; want 1, %d", m().Stable, m().since, commitEvery)
	}
	if bk.commit(cut(2)); m().Stable != 2 || m().since != 0 {
		t.Fatalf("a commit at base: Stable %d, count %d; want 2, 0", m().Stable, m().since)
	}
	if deliver(3, 1) || m().since != 1 {
		t.Fatalf("after the commit: count %d, want 1 and no commit due", m().since)
	}
	vol := newBook(false, 2, 1)
	for seq := uint64(1); seq <= 2*commitEvery; seq++ {
		if _, _, due := vol.delta("leaf", 1, 1, seq, 300, nil, time.Time{}, fold); due {
			t.Fatalf("a volatile book reported a commit due at seq %d", seq)
		}
	}
}

// TestRejectedSeqDoesNotPinTheBook: a refused seq is never marked, and
// the frames after it move the book past it, so the Stable watermark a
// non-durable aggregator acks keeps up with the node instead of staying
// at 0 for the rest of the epoch.
func TestRejectedSeqDoesNotPinTheBook(t *testing.T) {
	sk := testSketcher(t, 64, 24, 17)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 2})
	c, err := DialClient(context.Background(), addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ack, err := c.PushDelta("n", 1, 1, 1, 1, []byte("not a sketch")); err != nil || ack.Err == "" {
		t.Fatalf("corrupt seq 1: %v / %+v, want it refused", err, ack)
	}
	good := testDelta(t, sk, "key003", 1)
	var last Ack
	for seq := uint64(2); seq <= 301; seq++ {
		if last, err = c.PushDelta("n", 1, 1, seq, 1, good); err != nil || !last.Applied {
			t.Fatalf("seq %d: %v / %+v, want applied", seq, err, last)
		}
	}
	if last.Stable != 301 {
		t.Fatalf("last ack Stable %d, want 301", last.Stable)
	}
	snap, err := agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Nodes) != 1 || snap.Nodes[0].Base != 301 {
		t.Fatalf("books %+v, want one node at Base 301", snap.Nodes)
	}
}

// TestNodeBackpressureAndAbort checks the outage path and the crash
// path. While the link is cut, every Flush fails and the queue never
// holds more than the one frame captured before the first failure: the
// rest of the outage's observations wait in the standing sketch. The
// first Flush after the link returns ships them, every observation
// exactly once. Abort then drops what is pending.
func TestNodeBackpressureAndAbort(t *testing.T) {
	sk := testSketcher(t, 64, 24, 11)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 4})
	gate := newGateRelay(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	n, err := Dial(ctx, gate.addr, sk, "node00", NodeOptions{PushTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	total := sk.NewUpdater() // everything observed, never drained
	observe := func(i int) {
		t.Helper()
		key := fmt.Sprintf("key%03d", i%64)
		if err := n.Observe(key, float64(i%5)+1); err != nil {
			t.Fatalf("observe: %v", err)
		}
		total.Observe(key, float64(i%5)+1)
	}
	observe(0)
	if err := n.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// A long outage: far more failed flushes than the one frame the
	// queue may hold, and more than the free list's 64.
	gate.Cut()
	const outage = 80
	for i := 1; i <= outage; i++ {
		observe(i)
		fctx, fcancel := context.WithTimeout(ctx, 5*time.Millisecond)
		err := n.Flush(fctx)
		fcancel()
		if err == nil {
			t.Fatalf("flush %d over a cut link succeeded", i)
		}
		if s := n.Stats(); s.Pending > 1 {
			t.Fatalf("flush %d: %d frames pending, want at most 1", i, s.Pending)
		}
	}
	gate.Restore()
	observe(outage + 1)
	if err := n.Flush(ctx); err != nil {
		t.Fatalf("Flush after the link came back: %v", err)
	}
	observe(outage + 2)
	if err := n.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s := n.Stats()
	if s.Pending != 0 || s.Applied != s.Captured || s.Captured != 4 {
		t.Fatalf("stats = %+v, want 4 captures (one before, one during, one after the outage, one at Close), each applied", s)
	}
	if as := agg.Stats(); as.Applied != s.Applied || as.Duplicates != 0 {
		t.Fatalf("aggregator applied %d (%d duplicates), node applied %d", as.Applied, as.Duplicates, s.Applied)
	}
	got, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	closeTo(t, "window after the outage", sk, got, total)

	// The crash path: a frame stuck behind a dead aggregator is dropped
	// by Abort, not delivered.
	m, err := Dial(ctx, gate.addr, sk, "node01", NodeOptions{PushTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	cctx, ccancel := context.WithTimeout(ctx, 5*time.Second)
	agg.Close(cctx)
	ccancel()
	if err := m.Observe("key001", 1); err != nil {
		t.Fatalf("observe: %v", err)
	}
	fctx, fcancel := context.WithTimeout(ctx, 50*time.Millisecond)
	if err := m.Flush(fctx); err == nil {
		t.Fatal("flush to a dead aggregator succeeded")
	}
	fcancel()
	if s := m.Stats(); s.Pending != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending)
	}
	m.Abort()
	if s := m.Stats(); s.Pending != 0 {
		t.Fatalf("pending = %d after abort, want 0", s.Pending)
	}
	if _, err := DialClient(ctx, addr, time.Second); err == nil {
		t.Fatal("aggregator still accepting after close")
	}
}

// TestStreamBackgroundFlush runs a node whose flush loop ticks on its
// own goroutine, as csnode's does, under concurrent observers and
// wall-clock rotation, then checks conservation: everything observed
// is folded somewhere in the ring. (Capture timing is nondeterministic
// here, so the check is numeric, not bit-exact — the deterministic
// tests above and the simtest soak cover exactness.)
func TestStreamBackgroundFlush(t *testing.T) {
	sk := testSketcher(t, 64, 24, 13)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 64, WindowEvery: 20 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	n, err := Dial(ctx, addr, sk, "node00", NodeOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	stopFlushing := flushEvery(n, 5*time.Millisecond, 10*time.Second)
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
	stopFlushing()
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
	closeTo(t, "ring sum", sk, span, total)
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

// closeTo checks a fold of many regrouped captures against the
// centralized total, whose entries it can differ from only by FP
// association: a relative tolerance, not bits.
func closeTo(t *testing.T, what string, sk *csoutlier.Sketcher, got csoutlier.Sketch, total *csoutlier.Updater) {
	t.Helper()
	want := sk.ZeroSketch()
	if _, err := total.DrainInto(want); err != nil {
		t.Fatal(err)
	}
	for i := range got.Y {
		if w, g := want.Y[i], got.Y[i]; math.Abs(g-w) > 1e-9*math.Max(math.Abs(w), 1) {
			t.Fatalf("%s: Y[%d] = %v, want ≈ %v", what, i, g, w)
		}
	}
}

// flushEvery drives n.Flush from a ticker, each call bounded by
// timeout, until the returned stop is called: the push loop csnode
// runs. A failed Flush is retried at the next tick.
func flushEvery(n *Node, every, timeout time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			n.Flush(ctx)
			cancel()
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
