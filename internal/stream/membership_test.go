package stream

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// renderMetrics scrapes the aggregator's registry into the Prometheus
// text format.
func renderMetrics(t *testing.T, agg *Aggregator) string {
	t.Helper()
	var b strings.Builder
	if err := agg.MetricsRegistry().WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// TestMembershipLeaveRejoin drives the graceful-leave path end to end:
// a node Leaves (flush + bye), its membership is retired but its dedup
// book survives, its per-node metric series are dropped, and the same
// incarnation can rejoin with its sequence space intact — a replayed
// pre-leave frame dedups instead of refolding.
func TestMembershipLeaveRejoin(t *testing.T) {
	sk := testSketcher(t, 128, 64, 21)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	n, err := Dial(ctx, addr, sk, "node00", NodeOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := n.Observe("key001", 5); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if err := n.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	before, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	epoch := n.Stats().Epoch
	if err := n.Leave(ctx); err != nil {
		t.Fatalf("Leave: %v", err)
	}

	if got := agg.liveNodes(); got != 0 {
		t.Fatalf("liveNodes after leave = %d, want 0", got)
	}
	sts := agg.Nodes()
	if len(sts) != 1 || sts[0].State != StateLeft {
		t.Fatalf("Nodes after leave = %+v, want one node in state %q", sts, StateLeft)
	}
	if s := agg.Stats(); s.Leaves != 1 || s.Joins != 1 || s.Tombstones != 1 {
		t.Fatalf("Stats after leave: joins=%d leaves=%d tombstones=%d, want 1/1/1", s.Joins, s.Leaves, s.Tombstones)
	}

	// Scrape twice: the first render retires the per-node series, the
	// second must not mention the node anymore.
	renderMetrics(t, agg)
	if expo := renderMetrics(t, agg); strings.Contains(expo, `node="node00"`) {
		t.Fatalf("per-node series survived the leave:\n%s", expo)
	}

	// A stray duplicate from the retired incarnation must still dedup.
	c, err := DialClient(ctx, addr, 2*time.Second)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer c.Close()
	payload := uniformDelta(t, sk, 1)
	ack, err := c.PushDelta("node00", epoch, 1, 1, 1, payload)
	if err != nil {
		t.Fatalf("PushDelta: %v", err)
	}
	if ack.Status != StatusDuplicate {
		t.Fatalf("replay after leave: status %q err %q, want duplicate", ack.Status, ack.Err)
	}
	after, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	sameBits(t, "window after post-leave duplicate", after, before)

	// The rejoin (same id, same epoch) resurrects the tombstone: the
	// node is live again, the dedup book intact, and a fresh frame folds
	// under the next sequence number.
	if st := agg.Nodes()[0]; st.State != StateLive {
		// PushDelta above already resurrected it — dedup happens on the
		// live state.
		t.Fatalf("node state after replay = %q, want %q", st.State, StateLive)
	}
	if s := agg.Stats(); s.Joins != 2 {
		t.Fatalf("Joins after rejoin = %d, want 2", s.Joins)
	}
	ack, err = c.PushDelta("node00", epoch, 1, 2, 1, payload)
	if err != nil {
		t.Fatalf("PushDelta seq 2: %v", err)
	}
	if !ack.Applied {
		t.Fatalf("fresh frame after rejoin: %+v", ack)
	}

	// A stale epoch is still fenced after all that churn.
	if ack, err = c.Hello("node00", 0); err != nil {
		t.Fatalf("Hello: %v", err)
	}
	if ack.Err == "" {
		t.Fatal("stale epoch hello accepted after rejoin")
	}
}

// TestMembershipEvict pins liveness-driven eviction: only nodes silent
// past the deadline are retired, eviction is surfaced in state/stats,
// and an evicted node that comes back is resurrected with its dedup
// book (same epoch, no refold) rather than fenced out forever.
func TestMembershipEvict(t *testing.T) {
	sk := testSketcher(t, 128, 64, 22)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	quiet, err := Dial(ctx, addr, sk, "node00", NodeOptions{})
	if err != nil {
		t.Fatalf("Dial quiet: %v", err)
	}
	defer quiet.Abort()
	busy, err := Dial(ctx, addr, sk, "node01", NodeOptions{})
	if err != nil {
		t.Fatalf("Dial busy: %v", err)
	}
	defer busy.Abort()
	if err := quiet.Observe("key002", 3); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if err := quiet.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// Let the quiet node age past the deadline, keep the busy one fresh.
	time.Sleep(40 * time.Millisecond)
	if err := busy.Sync(ctx); err != nil {
		t.Fatalf("Sync busy: %v", err)
	}
	if got := agg.EvictIdle(20 * time.Millisecond); got != 1 {
		t.Fatalf("EvictIdle evicted %d nodes, want 1", got)
	}
	if got := agg.liveNodes(); got != 1 {
		t.Fatalf("liveNodes after evict = %d, want 1", got)
	}
	for _, st := range agg.Nodes() {
		want := StateLive
		if st.Node == "node00" {
			want = stateEvicted
		}
		if st.State != want {
			t.Fatalf("node %s state %q, want %q", st.Node, st.State, want)
		}
	}
	if s := agg.Stats(); s.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions)
	}

	// The evicted node was alive all along — its next heartbeat
	// resurrects the membership and the dedup book still refuses its
	// already-folded frame.
	if err := quiet.Sync(ctx); err != nil {
		t.Fatalf("Sync quiet after evict: %v", err)
	}
	if got := agg.liveNodes(); got != 2 {
		t.Fatalf("liveNodes after resurrect = %d, want 2", got)
	}
	c, err := DialClient(ctx, addr, 2*time.Second)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer c.Close()
	ack, err := c.PushDelta("node00", quiet.Stats().Epoch, 1, 1, 1, uniformDelta(t, sk, 1))
	if err != nil {
		t.Fatalf("PushDelta: %v", err)
	}
	if ack.Status != StatusDuplicate {
		t.Fatalf("replay after resurrect: status %q err %q, want duplicate", ack.Status, ack.Err)
	}
	st := agg.Nodes()[0]
	if st.Node != "node00" || st.Applied != 1 || st.Duplicates != 1 {
		t.Fatalf("resurrected status = %+v, want Applied=1 Duplicates=1", st)
	}
}

// TestEvictLoop checks the background eviction driver: a node that goes
// silent under AggregatorOptions.EvictAfter is retired without any
// manual EvictIdle call, and rejoins transparently on its next contact.
func TestEvictLoop(t *testing.T) {
	sk := testSketcher(t, 128, 64, 23)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 4, EvictAfter: 25 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	n, err := Dial(ctx, addr, sk, "node00", NodeOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer n.Abort()
	deadline := time.Now().Add(5 * time.Second)
	for agg.liveNodes() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("background eviction never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := n.Sync(ctx); err != nil {
		t.Fatalf("Sync after eviction: %v", err)
	}
	if got := agg.liveNodes(); got != 1 {
		t.Fatalf("liveNodes after rejoin = %d, want 1", got)
	}
}

// TestTombstoneEpochFencing: a tombstone still fences stale epochs, a
// higher epoch gets a fresh sequence space, and byes are idempotent.
func TestTombstoneEpochFencing(t *testing.T) {
	sk := testSketcher(t, 128, 64, 24)
	agg, addr := serveAgg(t, sk, AggregatorOptions{Windows: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	c, err := DialClient(ctx, addr, 2*time.Second)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer c.Close()
	payload := uniformDelta(t, sk, 1)
	if ack, err := c.PushDelta("node00", 2, 1, 1, 1, payload); err != nil || !ack.Applied {
		t.Fatalf("seed frame: ack=%+v err=%v", ack, err)
	}
	if ack, err := c.bye(); err != nil || ack.Err != "" || ack.Status != statusBye {
		t.Fatalf("bye: ack=%+v err=%v", ack, err)
	}
	if ack, err := c.bye(); err != nil || ack.Err != "" {
		t.Fatalf("second bye not idempotent: ack=%+v err=%v", ack, err)
	}
	if ack, err := c.Hello("node00", 1); err != nil || ack.Err == "" {
		t.Fatalf("stale-epoch hello against tombstone accepted: ack=%+v err=%v", ack, err)
	}
	// Higher epoch: fresh incarnation, seq 1 is new again.
	if ack, err := c.PushDelta("node00", 3, 1, 1, 1, payload); err != nil || !ack.Applied {
		t.Fatalf("higher-epoch frame: ack=%+v err=%v", ack, err)
	}
	st := agg.Nodes()[0]
	if st.Epoch != 3 || st.Restarts != 1 || st.State != StateLive {
		t.Fatalf("status after epoch bump through tombstone: %+v", st)
	}
}

// TestHelloRefusesAnotherConsensus: a Node of another consensus is
// refused at its hello, deterministically — Dial fails with an error
// naming both identities, and the node never joins — while a bare
// Client, which names no consensus, and a Node of the aggregator's own
// still join.
func TestHelloRefusesAnotherConsensus(t *testing.T) {
	sk := testSketcher(t, 128, 64, 21)
	agg, addr := serveAgg(t, sk, AggregatorOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	identity := func(m int, seed uint64) string {
		return fmt.Sprintf("{M=%d N=128 seed=%d ensemble=gaussian D=0}", m, seed)
	}
	for _, c := range []struct {
		what string
		m    int
		seed uint64
	}{
		{"another seed", 64, 22},
		{"a seed differing in its high word", 64, 21 | 1<<40},
		{"another M", 48, 21},
	} {
		n, err := Dial(ctx, addr, testSketcher(t, 128, c.m, c.seed), "node00", NodeOptions{})
		if err == nil {
			n.Abort()
			t.Fatalf("%s: Dial succeeded", c.what)
		}
		for _, want := range []string{identity(c.m, c.seed), identity(64, 21)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: Dial error %q does not name %s", c.what, err, want)
			}
		}
		if sts := agg.Nodes(); len(sts) != 0 {
			t.Fatalf("%s: Nodes() = %+v, want none", c.what, sts)
		}
	}
	if s := agg.Stats(); s.Joins != 0 {
		t.Fatalf("refused hellos joined %d nodes", s.Joins)
	}

	c, err := DialClient(ctx, addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ack, err := c.Hello("bare", 1); err != nil || ack.Err != "" {
		t.Fatalf("a hello naming no consensus: %+v, %v", ack, err)
	}
	n, err := Dial(ctx, addr, testSketcher(t, 128, 64, 21), "node00", NodeOptions{})
	if err != nil {
		t.Fatalf("a Node of the aggregator's consensus: %v", err)
	}
	defer n.Abort()
	if sts := agg.Nodes(); len(sts) != 2 || sts[0].Node != "bare" || sts[1].Node != "node00" {
		t.Fatalf("Nodes() = %+v, want bare and node00", sts)
	}
}

// TestRetiredNameNeverRefolds: a book keeps every record it admitted.
// node0000 folds seq 1 and leaves, maxMembers-1 other names come and
// go, and its replay of seq 1 is still a duplicate. The full book then
// refuses a further name, over a Client or a Dial, by name and counted,
// changing nothing; a retired name redials and revives.
func TestRetiredNameNeverRefolds(t *testing.T) {
	sk := testSketcher(t, 64, 32, 5)
	agg, addr := serveAgg(t, sk, AggregatorOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialClient(ctx, addr, 5*time.Second)
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer c.Close()
	payload := uniformDelta(t, sk, 1)
	if ack, err := c.PushDelta("node0000", 1, 1, 1, 1, payload); err != nil || !ack.Applied {
		t.Fatalf("node0000 seq 1: %+v, %v", ack, err)
	}
	for i := 0; i < maxMembers; i++ {
		node := fmt.Sprintf("node%04d", i)
		if ack, err := c.Hello(node, 1); err != nil || ack.Err != "" {
			t.Fatalf("hello %s: %+v, %v", node, ack, err)
		}
		if ack, err := c.bye(); err != nil || ack.Err != "" {
			t.Fatalf("bye %s: %+v, %v", node, ack, err)
		}
	}
	if ack, err := c.PushDelta("node0000", 1, 1, 1, 1, payload); err != nil || ack.Status != StatusDuplicate {
		t.Fatalf("node0000's replay of seq 1 after %d other names: %+v, %v; want a duplicate", maxMembers-1, ack, err)
	}
	if s := agg.Stats(); s.Applied != 1 || s.Tombstones != maxMembers-1 {
		t.Fatalf("applied %d, tombstones %d; want 1 and %d", s.Applied, s.Tombstones, maxMembers-1)
	}

	if ack, err := c.Hello("stranger", 1); err != nil || !strings.Contains(ack.Err, "node stranger refused") {
		t.Fatalf("a new name's hello at the limit: %+v, %v; want it refused by name", ack, err)
	}
	if expo := renderMetrics(t, agg); !strings.Contains(expo, "\nstream_membership_events_total{event=\"refused\"} 1\n") {
		t.Fatalf("/metrics does not count one refusal:\n%s", expo)
	}
	nodes, applied := agg.Nodes(), agg.Stats().Applied
	window, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	if n, err := Dial(ctx, addr, sk, "stranger", NodeOptions{}); err == nil {
		n.Abort()
		t.Fatal("a stranger's Dial to a full aggregator succeeded")
	} else if !strings.Contains(err.Error(), fmt.Sprintf("%d node records, its limit", maxMembers)) {
		t.Fatalf("a stranger's Dial: %v; want the error to name the limit", err)
	}
	if got := agg.Nodes(); !slices.Equal(got, nodes) || agg.Stats().Applied != applied {
		t.Fatal("a refused Dial changed the members or the applied count")
	}
	after, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	sameBits(t, "window after a refused Dial", after, window)

	n, err := Dial(ctx, addr, sk, "node0001", NodeOptions{})
	if err != nil {
		t.Fatalf("a retired name's Dial to a full aggregator: %v", err)
	}
	defer n.Abort()
	if st := agg.Nodes()[1]; st.Node != "node0001" || st.State != StateLive {
		t.Fatalf("node0001 after its Dial: %+v, want live", st)
	}
}

// TestLateFrameLeavesRetiredMember: a frame a slow handler reads after
// the node's bye, or after its eviction, changes no membership unless it
// folds. A duplicate retry, a refused frame and a frame dropped as too
// old leave the record retired, unseen and uncounted as a join; the
// next new seq revives it.
func TestLateFrameLeavesRetiredMember(t *testing.T) {
	bk := newBook(false, 2, 1)
	fold := func(int, uint64) error { return nil }
	t0, t1 := time.Unix(100, 0), time.Unix(200, 0)
	for _, node := range []string{"leaver", "silent"} {
		if _, joined, refused := bk.hello(node, 1, t0); !joined || refused {
			t.Fatalf("%s hello: joined %v refused %v", node, joined, refused)
		}
		if ack, _, _ := bk.delta(node, 1, 1, 1, 1, nil, t0, fold); !ack.Applied {
			t.Fatalf("%s seq 1: %+v", node, ack)
		}
	}
	if _, left := bk.bye("leaver", 1); !left {
		t.Fatal("bye did not retire the leaver")
	}
	if n := bk.evict(t0.Add(time.Second)); n != 1 {
		t.Fatalf("evicted %d, want the silent node alone", n)
	}
	bk.window = 5 // window 1 is out of the 2-window ring
	for _, node := range []string{"leaver", "silent"} {
		m := bk.members[node]
		state, version, retired := m.State, bk.version, bk.retired
		for _, late := range []struct {
			name           string
			window, seq    uint64
			status, errSub string
		}{
			{"duplicate retry", 5, 1, StatusDuplicate, ""},
			{"refused seq 0", 5, 0, "", "seq 1"},
			{"dropped-old", 1, 2, statusDroppedOld, ""},
		} {
			ack, joined, _ := bk.delta(node, 1, late.window, late.seq, 1, nil, t1, fold)
			if ack.Status != late.status || !strings.Contains(ack.Err, late.errSub) || (late.errSub == "") != (ack.Err == "") {
				t.Fatalf("%s %s: %+v", node, late.name, ack)
			}
			if joined || m.State != state || !m.LastSeen.Equal(t0) || bk.version != version || bk.retired != retired {
				t.Fatalf("%s %s: joined %v, state %q, seen %v, version %d→%d, retired %d→%d; want the record untouched",
					node, late.name, joined, m.State, m.LastSeen, version, bk.version, retired, bk.retired)
			}
		}
		ack, joined, _ := bk.delta(node, 1, 5, 3, 1, nil, t1, fold)
		if !ack.Applied || !joined || m.State != StateLive || !m.LastSeen.Equal(t1) {
			t.Fatalf("%s new seq: %+v, joined %v, state %q; want it folded and the record revived", node, ack, joined, m.State)
		}
	}
	if bk.retired != 0 {
		t.Fatalf("retired %d after both revivals, want 0", bk.retired)
	}
}
