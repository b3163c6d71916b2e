package stream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csoutlier/internal/frame"
)

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

// TestOverloadShed cuts a node's uplink while observations keep coming
// and a flush loop keeps trying. Observe must stay non-blocking, and
// the queue must never hold more than one frame: the outage's
// observations wait in the standing sketch. When the link returns the
// books reconcile — every capture applied exactly once, none of them a
// multi-capture frame — and the window holds the observed total.
func TestOverloadShed(t *testing.T) {
	sk := testSketcher(t, 128, 64, 33)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 4})
	relay := newGateRelay(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	n, err := Dial(ctx, relay.addr, sk, "node00", NodeOptions{PushTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	stopFlushing := flushEvery(n, 2*time.Millisecond, 40*time.Millisecond)
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
		if st := n.Stats(); st.Pending > 1 {
			t.Fatalf("%d frames pending during the outage, want at most 1", st.Pending)
		}
		time.Sleep(3 * time.Millisecond)
	}
	stopFlushing()
	relay.Restore()
	// Observe is a local sketch fold; even under full backpressure it
	// must never wait on the network.
	if worst > 250*time.Millisecond {
		t.Fatalf("Observe blocked for %v under overload", worst)
	}

	if err := n.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := n.Stats()
	if st.Pending != 0 || st.Captured == 0 {
		t.Fatalf("backlog not drained: %+v", st)
	}
	as := agg.Stats()
	ns := agg.Nodes()[0]
	if ns.Applied != st.Captured || st.Applied != st.Captured || as.ShedFrames != 0 || as.ShedFolds != 0 {
		t.Fatalf("books: aggregator applied %d (shed frames %d, folds %d), node applied %d of %d captures",
			ns.Applied, as.ShedFrames, as.ShedFolds, st.Applied, st.Captured)
	}
	u := sk.NewUpdater()
	if err := u.Observe("key042", float64(iters)); err != nil {
		t.Fatalf("shadow Observe: %v", err)
	}
	got, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	closeTo(t, "window after the outage", sk, got, u)
}

// TestRecycleNeverReusesResendableFrame (run under -race) drives both
// ways a captured frame can be sent again — a retry after a cut link
// and a replay after an aggregator restore (Retain + AggEpoch bump) —
// while snapshot commits keep trimming the retention buffer into the
// free list and a flush loop keeps capturing out of it. A payload buffer handed
// to a new capture while its old frame could still go out would be a
// data race on the bytes, break the list invariant checked throughout,
// or land the wrong mass in the window.
func TestRecycleNeverReusesResendableFrame(t *testing.T) {
	sk := testSketcher(t, 128, 64, 34)
	first, firstAddr := serveAgg(t, sk, AggregatorOptions{Windows: 2, Durable: true})
	relay := newGateRelay(t, firstAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	n, err := Dial(ctx, relay.addr, sk, "node00", NodeOptions{PushTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	// Each Flush gives up on a dead link after 4× the push timeout and
	// the next tick retries the frame it left pending.
	stopFlushing := flushEvery(n, time.Millisecond, 20*time.Millisecond)

	// checkLists: a frame is in at most one of the queue and the free
	// list, and no two frames share a payload buffer.
	checkLists := func() {
		n.snd.mu.Lock()
		defer n.snd.mu.Unlock()
		where := make(map[*Frame]string)
		buffers := make(map[*byte]*Frame)
		for list, frames := range map[string][]*Frame{"queue": n.snd.ob.queue, "free": n.snd.ob.free} {
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
		agg.Commit(snap.Nodes)
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
				// Hold the cut until a frame is stuck behind it (or for
				// 200 ms): how many flushes a fixed-length cut sees depends
				// on the box's timer resolution.
				for deadline := time.Now().Add(200 * time.Millisecond); n.Stats().Pending == 0 && time.Now().Before(deadline); {
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
	stopFlushing()
	if err := n.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	commit(second)
	if err := n.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	checkLists()
	n.snd.mu.Lock()
	retained, recycled := n.snd.ob.acked, len(n.snd.ob.free)
	n.snd.mu.Unlock()
	if retained != 0 || recycled == 0 {
		t.Fatalf("after a covering commit: %d frames retained, %d recycled; want 0 and some", retained, recycled)
	}
	if err := n.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := n.Stats()
	if st.Replayed == 0 || st.Redials == 0 || st.RetainDropped != 0 || st.Pending != 0 {
		t.Fatalf("the run did not exercise retry and replay (or lost frames): %+v", st)
	}
	// Every observation added exactly 1 to one key, however the captures
	// were grouped, retried and replayed.
	u := sk.NewUpdater()
	if err := u.Observe("key007", float64(2*perPhase+40)); err != nil {
		t.Fatal(err)
	}
	got, err := second.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	closeTo(t, "window after retries and replay", sk, got, u)
}

// deltaSeqs parses one connection's transcript (a wireTap's talk) with
// the package's own frame reader and wire context and returns the seq of
// every delta frame, in arrival order.
func deltaSeqs(t *testing.T, talk []byte, m int) []uint64 {
	t.Helper()
	limits := requestLimits(m)
	limits[replyAck] = maxAckBody
	fr := frame.Reader{R: bytes.NewReader(talk), Limits: limits[:]}
	var (
		seqs []uint64
		req  pushRequest
		ctx  wireContext
	)
	for {
		kind, body, err := fr.Next()
		if err == io.EOF {
			return seqs
		}
		if err != nil {
			t.Fatalf("the connection's transcript does not parse: %v", err)
		}
		if pushKind(kind) == replyAck {
			_, err = ctx.parseAck(body)
		} else {
			err = ctx.parseRequest(pushKind(kind), body, &req)
		}
		if err != nil {
			t.Fatal(err)
		}
		if pushKind(kind) == pushDelta {
			seqs = append(seqs, req.Seq)
		}
	}
}

// TestReplayReachesRestoredBookInSeqOrder: a node holds retained frames
// and one pending frame stuck behind a cut link when its durable
// aggregator dies, and the aggregator comes back from a snapshot older
// than all of them. The redial's hello requeues the retained frames
// ahead of the stuck one, and the restored aggregator must read every
// delta in strictly ascending seq order: its book is the highest seq
// processed, so a frame that overtook the replay would turn the replay
// into duplicates and lose it.
func TestReplayReachesRestoredBookInSeqOrder(t *testing.T) {
	sk := testSketcher(t, 64, 32, 21)
	first, firstAddr := serveAgg(t, sk, AggregatorOptions{Windows: 2, Durable: true})
	gate := newGateRelay(t, firstAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// The default PushTimeout: a cut link fails at once, and no exchange
	// with a live aggregator may time out and be sent twice.
	n, err := Dial(ctx, gate.addr, sk, "node00", NodeOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	flush := func(ctx context.Context) error {
		t.Helper()
		if err := n.Observe("key003", 1); err != nil {
			t.Fatal(err)
		}
		return n.Flush(ctx)
	}
	if err := flush(ctx); err != nil {
		t.Fatalf("Flush seq 1: %v", err)
	}
	snap, err := first.Snapshot() // covers seq 1 only
	if err != nil {
		t.Fatal(err)
	}
	first.Commit(snap.Nodes)
	for seq := 2; seq <= 3; seq++ {
		if err := flush(ctx); err != nil {
			t.Fatalf("Flush seq %d: %v", seq, err)
		}
	}
	gate.Cut()
	short, cancelShort := context.WithTimeout(ctx, 100*time.Millisecond)
	err = flush(short)
	cancelShort()
	if err == nil {
		t.Fatal("Flush over a cut link returned nil")
	}
	if st := n.Stats(); st.Retained != 2 || st.Pending != 1 {
		t.Fatalf("before the restore: %+v, want seqs 2 and 3 retained and seq 4 pending", st)
	}
	first.Close(ctx)
	second, err := RestoreAggregator(sk, AggregatorOptions{}, snap)
	if err != nil {
		t.Fatalf("RestoreAggregator: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &wireTap{}
	go second.Serve(tapListener{ln, tap})
	defer second.Close(ctx)
	gate.Retarget(ln.Addr().String())
	gate.Restore()
	if err := n.Flush(ctx); err != nil {
		t.Fatalf("Flush after the restore: %v", err)
	}
	tap.mu.Lock()
	talk := tap.talk
	tap.mu.Unlock()
	if got := deltaSeqs(t, talk, sk.M()); !slices.Equal(got, []uint64{2, 3, 4}) {
		t.Fatalf("the restored aggregator read seqs %v, want 2, 3, 4", got)
	}
	u := sk.NewUpdater()
	if err := u.Observe("key003", 4); err != nil {
		t.Fatal(err)
	}
	got, err := second.WindowSketch(0)
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "window after the replay", sk, got, u)
}

// TestNonDurableRestartKeepsStableMoving: a node keeps its epoch across
// a restart of a non-durable aggregator on the same address. The new
// aggregator's book for it starts at 0 and jumps to the node's next
// seq, so every ack declares its frame durable: nothing piles up in the
// node's retention buffer.
func TestNonDurableRestartKeepsStableMoving(t *testing.T) {
	sk := testSketcher(t, 64, 32, 23)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	first, addr := serveAgg(t, sk, AggregatorOptions{Windows: 2})
	n, err := Dial(ctx, addr, sk, "node00", NodeOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer n.Close(ctx)
	flush := func() {
		t.Helper()
		if err := n.Observe("key005", 1); err != nil {
			t.Fatal(err)
		}
		if err := n.Flush(ctx); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		flush()
	}
	first.Close(ctx)
	second, _ := serveAggAt(t, sk, AggregatorOptions{Windows: 2}, addr)
	for i := 0; i < 300; i++ {
		flush()
	}
	if st := n.Stats(); st.Retained != 0 || st.RetainDropped != 0 || st.Stable != st.Seq || st.Seq != 303 {
		t.Fatalf("after 300 flushes into the restarted aggregator: %+v, want Retained 0, RetainDropped 0, Stable = Seq = 303", st)
	}
	if ns := second.Nodes(); len(ns) != 1 || ns[0].Applied != 300 {
		t.Fatalf("restarted aggregator's books %+v, want 300 applied", ns)
	}
}

// TestNonDurableRestartFoldsNodesAhead: a non-durable aggregator that
// restarts on the same address counts windows from 1 again, while its
// nodes, which never adopt a lower window, keep tagging frames with the
// window they last saw. Those frames fold into the open window: every
// flush after the restart is applied, none refused as ahead.
func TestNonDurableRestartFoldsNodesAhead(t *testing.T) {
	sk := testSketcher(t, 64, 32, 23)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	first, addr := serveAgg(t, sk, AggregatorOptions{Windows: 4})
	n, err := Dial(ctx, addr, sk, "node00", NodeOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer n.Close(ctx)
	for i := 0; i < 5; i++ {
		first.Rotate()
	}
	if err := n.Sync(ctx); err != nil || n.Stats().Window != 6 {
		t.Fatalf("Sync: %v, node window %d, want 6", err, n.Stats().Window)
	}
	first.Close(ctx)
	second, _ := serveAggAt(t, sk, AggregatorOptions{Windows: 4}, addr)
	shadow := sk.NewUpdater()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := n.Observe(key, float64(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := shadow.Observe(key, float64(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := n.Flush(ctx); err != nil {
			t.Fatalf("flush %d into the restarted aggregator: %v", i, err)
		}
	}
	ns := second.Nodes()
	if len(ns) != 1 || ns[0].Applied != 10 || ns[0].Rejected != 0 || ns[0].LastWindow != 1 {
		t.Fatalf("restarted aggregator's books %+v, want 10 applied into window 1, none rejected", ns)
	}
	if w := n.Stats().Window; w != 6 {
		t.Fatalf("node window %d after the restart, want 6 (never adopted lower)", w)
	}
	got, err := second.WindowSketch(0)
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "open window after the restart", sk, got, shadow)
}
