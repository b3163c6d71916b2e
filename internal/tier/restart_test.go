package tier

import (
	"context"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"csoutlier"
	"csoutlier/internal/stream"
)

// darkProxy forwards a leaf's connections to its relay, and on demand
// swallows the next reply and goes dark: the connection closes and every
// later one is refused until Retarget. The leaf's frame then reaches the
// relay and its ack never comes back.
type darkProxy struct {
	ln     net.Listener
	mu     sync.Mutex
	target string
	drop   bool // swallow the next reply, then go dark
	dark   bool
}

func startDarkProxy(t *testing.T, target string) *darkProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &darkProxy{ln: ln, target: target}
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

func (p *darkProxy) DropNextReply() {
	p.mu.Lock()
	p.drop = true
	p.mu.Unlock()
}

// Retarget points the proxy at target and lights it again.
func (p *darkProxy) Retarget(target string) {
	p.mu.Lock()
	p.target, p.drop, p.dark = target, false, false
	p.mu.Unlock()
}

func (p *darkProxy) pipe(client net.Conn) {
	defer client.Close()
	p.mu.Lock()
	target, dark := p.target, p.dark
	p.mu.Unlock()
	if dark {
		return
	}
	backend, err := net.Dial("tcp", target)
	if err != nil {
		return
	}
	defer backend.Close()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				if _, werr := backend.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				backend.Close()
				return
			}
		}
	}()
	buf := make([]byte, 64<<10)
	for {
		n, err := backend.Read(buf)
		if n > 0 {
			p.mu.Lock()
			drop := p.drop
			p.drop, p.dark = false, p.dark || drop
			p.mu.Unlock()
			if drop {
				return
			}
			if _, werr := client.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// restartRig is one root, one relay and one leaf that reaches the relay
// through a darkProxy, with the leaf's one observation shadowed.
type restartRig struct {
	t     *testing.T
	ctx   context.Context
	sk    *csoutlier.Sketcher
	root  *stream.Aggregator
	addr  string // the root's
	relay *Relay
	proxy *darkProxy
	leaf  *stream.Node
	want  csoutlier.Sketch // the leaf's one delta
}

func newRestartRig(t *testing.T) *restartRig {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	r := &restartRig{t: t, ctx: ctx, sk: tierSketcher(t, 64, 32, 29)}
	r.root, r.addr = serveRoot(t, r.sk, stream.AggregatorOptions{Windows: 4})
	r.relay = r.newRelay()
	r.proxy = startDarkProxy(t, serveRelay(t, r.relay))
	var err error
	r.leaf, err = stream.Dial(ctx, r.proxy.ln.Addr().String(), r.sk, "node00", stream.NodeOptions{PushTimeout: 400 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := r.leaf.Observe("key007", 42); err != nil {
		t.Fatal(err)
	}
	u := r.sk.NewUpdater()
	if err := u.Observe("key007", 42); err != nil {
		t.Fatal(err)
	}
	r.want = r.sk.ZeroSketch()
	if _, err := u.DrainInto(r.want); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *restartRig) newRelay() *Relay {
	r.t.Helper()
	relay, err := NewRelay(r.ctx, r.sk, RelayOptions{ID: "r0", Upstream: r.addr})
	if err != nil {
		r.t.Fatalf("NewRelay: %v", err)
	}
	r.t.Cleanup(func() { relay.Kill(context.Background()) })
	return relay
}

// restart kills the relay with no final Forward and builds a new one
// with NewRelay, which keeps no file; the leaf's next exchange reaches
// it.
func (r *restartRig) restart() {
	r.t.Helper()
	if err := r.relay.Kill(r.ctx); err != nil {
		r.t.Fatalf("Kill: %v", err)
	}
	r.relay = r.newRelay()
	r.proxy.Retarget(serveRelay(r.t, r.relay))
}

// check: the root applied exactly one upward frame, and its window holds
// the leaf's delta, folded once, bit for bit.
func (r *restartRig) check(what string) {
	r.t.Helper()
	if err := r.relay.Forward(r.ctx); err != nil {
		r.t.Fatalf("Forward after the restart: %v", err)
	}
	if st := r.root.Stats(); st.Applied != 1 || st.Rejected != 0 {
		r.t.Fatalf("%s: the root applied %d upward frames (rejected %d), want the leaf's frame once", what, st.Applied, st.Rejected)
	}
	got, err := r.root.WindowSketch(0)
	if err != nil {
		r.t.Fatal(err)
	}
	sameBits(r.t, what, got, r.want)
}

// TestRestartedRelayFoldsLostAckOnce: a leaf frame reaches the relay and
// its ack is lost; the relay forwards it, dies, and a new relay takes
// its place. The leaf sends the frame again, and the new relay, seeded
// from the cut the root gives back, drops it: the root holds it once.
func TestRestartedRelayFoldsLostAckOnce(t *testing.T) {
	r := newRestartRig(t)
	r.proxy.DropNextReply()
	short, cancel := context.WithTimeout(r.ctx, 300*time.Millisecond)
	defer cancel()
	if err := r.leaf.Flush(short); err == nil {
		t.Fatal("the leaf heard an ack the proxy swallowed")
	}
	if err := r.relay.Forward(r.ctx); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	r.restart()
	if err := r.leaf.Flush(r.ctx); err != nil {
		t.Fatalf("flush to the new relay: %v", err)
	}
	r.check("a lost ack across a relay restart")
}

// TestRestartedRelayKeepsAckedFrame: a leaf frame is acked by a relay
// that dies before it forwards. The leaf retained it, because its Stable
// follows the root, and replays it to the new relay, which forwards it:
// the root holds it.
func TestRestartedRelayKeepsAckedFrame(t *testing.T) {
	r := newRestartRig(t)
	if err := r.leaf.Flush(r.ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	r.restart()
	if err := r.leaf.Sync(r.ctx); err != nil {
		t.Fatalf("sync to the new relay: %v", err)
	}
	r.check("an acked, unforwarded frame across a relay restart")
}

// TestRestartedRelayCutSurvivesRootCrash: a root with a snapshot file
// writes it before it gives a new relay the cut its leaves will trim
// by, so a root that dies right after still holds every fold the cut
// names.
func TestRestartedRelayCutSurvivesRootCrash(t *testing.T) {
	sk := tierSketcher(t, 64, 32, 31)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	path := filepath.Join(t.TempDir(), "root.snap")
	_, addr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 4, SnapshotPath: path})
	relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: addr})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	leaf, err := stream.Dial(ctx, serveRelay(t, relay), sk, "node00", stream.NodeOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer leaf.Close(ctx)
	if err := leaf.Observe("key003", 5); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := relay.Forward(ctx); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	want, err := relay.Aggregator().WindowSketch(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := relay.Kill(ctx); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	next, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: addr})
	if err != nil {
		t.Fatalf("NewRelay after the kill: %v", err)
	}
	defer next.Kill(ctx)
	if got := next.Aggregator().Nodes(); len(got) != 1 || got[0].Node != "node00" || got[0].Stable != 1 {
		t.Fatalf("the new relay's books %+v, want node00 seeded durable at seq 1", got)
	}
	snap, err := stream.LoadSnapshot(path) // what a root crash now restores
	if err != nil {
		t.Fatalf("the root wrote no snapshot before it gave the cut back: %v", err)
	}
	var cut []stream.SnapNode
	for _, sn := range snap.Nodes {
		if sn.Node == relay.Name() {
			cut = sn.Cut
		}
	}
	if len(cut) != 1 || cut[0].Node != "node00" || cut[0].Base != 1 {
		t.Fatalf("the snapshot's record of %s has cut %+v, want node00 at seq 1", relay.Name(), cut)
	}
	restored, err := stream.RestoreAggregator(sk, stream.AggregatorOptions{}, snap)
	if err != nil {
		t.Fatalf("RestoreAggregator: %v", err)
	}
	defer restored.Close(ctx)
	got, err := restored.WindowSketch(0)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "the restored root's window", got, want)
}
