package stream

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"
)

// senderRig is a Sender on its own — no Node, no Relay — in front of a
// durable aggregator it reaches through a gate that can be cut and
// retargeted.
type senderRig struct {
	t       *testing.T
	s       *Sender
	agg     *Aggregator
	gate    *gateRelay
	adopted []uint64 // every window the sender handed to its owner
	delta   []byte   // a valid payload
}

func newSenderRig(t *testing.T, opts NodeOptions) *senderRig {
	t.Helper()
	sk := testSketcher(t, 64, 32, 5)
	r := &senderRig{t: t, delta: testDelta(t, sk, "key001", 1)}
	var addr string
	r.agg, addr = serveAgg(t, sk, AggregatorOptions{Windows: 2, Durable: true})
	r.gate = newGateRelay(t, addr)
	if opts.PushTimeout == 0 {
		opts.PushTimeout = 400 * time.Millisecond // backoff 1ms to 40ms
	}
	var err error
	if r.s, err = NewSender(r.gate.addr, "sender00", sk, 1, opts, func(w uint64) { r.adopted = append(r.adopted, w) }); err != nil {
		t.Fatal(err)
	}
	if err := r.s.Connect(r.ctx(time.Second)); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return r
}

func (r *senderRig) ctx(d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	r.t.Cleanup(cancel)
	return ctx
}

// enqueue queues the next frame the way a relay does: Stage it into the
// recycled buffer, and Release it at once.
func (r *senderRig) enqueue(payload []byte) *Frame {
	r.t.Helper()
	_, queued := r.s.Queue()
	var f *Frame
	r.s.Stage(func(g *Frame) error {
		for _, live := range queued {
			if live == g || (cap(g.Payload) > 0 && cap(live.Payload) > 0 && &g.Payload[:1][0] == &live.Payload[:1][0]) {
				r.t.Errorf("Stage handed out seq %d's frame, which is still resendable", live.Seq)
			}
		}
		*g = Frame{Window: 1, Folds: 1, Payload: append(g.Payload[:0], payload...)}
		f = g
		return nil
	})
	r.s.Release(f.Seq)
	return f
}

func (r *senderRig) drain() {
	r.t.Helper()
	if err := r.s.Drain(r.ctx(5 * time.Second)); err != nil {
		r.t.Fatalf("Drain: %v", err)
	}
}

// commit makes everything the aggregator has folded durable; the next
// ack carries the new Stable.
func (r *senderRig) commit() *Snapshot {
	r.t.Helper()
	snap, err := r.agg.Snapshot()
	if err != nil {
		r.t.Fatalf("Snapshot: %v", err)
	}
	r.agg.commitSnapshot(snap)
	return snap
}

// seqs lists one of the sender's books.
func (r *senderRig) seqs(list func(*Sender) []*Frame) []uint64 {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	var out []uint64
	for _, f := range list(r.s) {
		out = append(out, f.Seq)
	}
	return out
}

func pendingOf(s *Sender) []*Frame  { return s.ob.queue[s.ob.acked:] }
func retainedOf(s *Sender) []*Frame { return s.ob.queue[:s.ob.acked] }

func (r *senderRig) want(what string, got []uint64, want ...uint64) {
	r.t.Helper()
	if len(got) != len(want) {
		r.t.Fatalf("%s: seqs %v, want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			r.t.Fatalf("%s: seqs %v, want %v", what, got, want)
		}
	}
}

// TestSenderRules pins, on the Sender alone, the rules its two owners —
// Node's capture and tier.Relay's staging — rely on.
func TestSenderRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts NodeOptions
		run  func(t *testing.T, r *senderRig)
	}{
		{"an unanswered frame stays pending, unchanged, until acked", NodeOptions{PushTimeout: 20 * time.Millisecond}, func(t *testing.T, r *senderRig) {
			f := r.enqueue(r.delta)
			// Transmission attempts that never hear their ack: the frame
			// stays pending with its bytes, and may have been folded.
			r.gate.Cut()
			if err := r.s.Drain(r.ctx(60 * time.Millisecond)); err == nil {
				t.Fatal("Drain over a cut link returned nil")
			}
			r.want("pending after a failed push", r.seqs(pendingOf), 1)
			if string(f.Payload) != string(r.delta) {
				t.Error("a failed push changed the frame's payload")
			}
			r.gate.Restore()
			r.drain()
			if st := r.s.Stats(); st.Applied+st.Duplicates != 1 || st.Pending != 0 {
				t.Errorf("after the link came back: %+v, want the one frame settled", st)
			}
		}},
		{"a refused heartbeat hello drops the connection it unbound", NodeOptions{}, func(t *testing.T, r *senderRig) {
			c, err := DialClient(r.ctx(time.Second), r.gate.addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if ack, err := c.Hello("sender00", r.s.epoch+1); err != nil || ack.Err != "" {
				t.Fatalf("a later incarnation's hello: %+v, %v", ack, err)
			}
			if err := r.s.Sync(r.ctx(time.Second)); err == nil || !strings.Contains(err.Error(), "rejected") {
				t.Fatalf("Sync under a later incarnation: %v, want its hello rejected", err)
			}
			r.s.sendMu.Lock()
			defer r.s.sendMu.Unlock()
			if r.s.client != nil {
				t.Error("the connection stayed open, unbound, after its hello was refused")
			}
		}},
		{"an epoch bump requeues retained ahead of pending, in seq order", NodeOptions{}, func(t *testing.T, r *senderRig) {
			r.enqueue(r.delta)
			snap := r.commit() // covers nothing yet: seq 1 is still pending
			r.enqueue(r.delta)
			r.drain()
			r.want("retained after two acks", r.seqs(retainedOf), 1, 2)
			r.enqueue(r.delta)
			// The aggregator dies having acked seq 1 and 2 past its snapshot
			// and comes back, on another listener, from that snapshot.
			r.gate.Cut()
			r.agg.Close(r.ctx(time.Second))
			restored, err := RestoreAggregator(testSketcher(t, 64, 32, 5), AggregatorOptions{}, snap)
			if err != nil {
				t.Fatalf("RestoreAggregator: %v", err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go restored.Serve(ln)
			defer restored.Close(r.ctx(time.Second))
			r.gate.Retarget(ln.Addr().String())
			r.gate.Restore()
			// The hello alone requeues; nothing has been pushed yet.
			r.s.Disconnect() // the cut connection was still the live one
			if err := r.s.Connect(r.ctx(time.Second)); err != nil {
				t.Fatalf("Connect to the restored aggregator: %v", err)
			}
			r.want("pending after the bump", r.seqs(pendingOf), 1, 2, 3)
			r.want("retained after the bump", r.seqs(retainedOf))
			r.drain()
			if st := r.s.Stats(); st.Replayed != 2 || st.Applied != 5 || st.Duplicates != 0 || st.AggEpoch != 2 {
				t.Errorf("after the replay: %+v, want 2 replayed, all 3 frames folded again or for the first time by incarnation 2", st)
			}
		}},
		{"Stable trims the retention buffer and recycles what it trims", NodeOptions{}, func(t *testing.T, r *senderRig) {
			first := r.enqueue(r.delta)
			r.enqueue(r.delta)
			r.drain()
			r.commit() // seq 1 and 2 are durable; the sender hears it with the next ack
			r.enqueue(r.delta)
			r.drain()
			r.want("retained after Stable=2", r.seqs(retainedOf), 3)
			r.s.mu.Lock()
			free := len(r.s.ob.free)
			r.s.mu.Unlock()
			if st := r.s.Stats(); st.Stable != 2 || free != 2 {
				t.Errorf("Stable %d with %d frames recycled, want 2 and 2", st.Stable, free)
			}
			// The next two frames reuse the trimmed buffers; enqueue checks
			// neither is seq 3's.
			if a, b := r.enqueue(r.delta), r.enqueue(r.delta); a != first && b != first {
				t.Error("a trimmed frame was not reused")
			}
		}},
		{"the retention cap drops oldest first and counts each drop", NodeOptions{}, func(t *testing.T, r *senderRig) {
			for i := 0; i < maxRetained+3; i++ {
				r.enqueue(r.delta)
			}
			r.drain()
			retained := r.seqs(retainedOf)
			if len(retained) != maxRetained || retained[0] != 4 || retained[maxRetained-1] != maxRetained+3 {
				t.Errorf("retained %d frames, seqs %d to %d; want %d, 4 to %d", len(retained), retained[0], retained[len(retained)-1], maxRetained, maxRetained+3)
			}
			if st := r.s.Stats(); st.RetainDropped != 3 || st.Retained != maxRetained || st.Applied != maxRetained+3 {
				t.Errorf("%+v, want 3 of %d applied frames dropped from retention", st, maxRetained+3)
			}
		}},
		{"a rejected frame is not retained", NodeOptions{}, func(t *testing.T, r *senderRig) {
			r.enqueue([]byte("not a sketch"))
			r.enqueue(r.delta)
			// Drain folds the rest of the queue, then reports the refusal.
			if err := r.s.Drain(r.ctx(5 * time.Second)); err == nil || !strings.Contains(err.Error(), "seq 1 rejected") {
				t.Fatalf("Drain: %v, want the refusal of seq 1", err)
			}
			r.want("retained", r.seqs(retainedOf), 2)
			if st := r.s.Stats(); st.Rejected != 1 || st.Applied != 1 || st.Acked != 2 {
				t.Errorf("%+v, want one rejected and one applied", st)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newSenderRig(t, tc.opts)
			defer r.s.Disconnect()
			tc.run(t, r)
			// Every ack's window reached the owner, and no frame is both
			// queued and free.
			if len(r.adopted) == 0 {
				t.Error("the window callback never ran")
			}
			r.s.mu.Lock()
			defer r.s.mu.Unlock()
			where := make(map[*Frame]string)
			for book, frames := range map[string][]*Frame{"queue": r.s.ob.queue, "free": r.s.ob.free} {
				for _, f := range frames {
					if prev, dup := where[f]; dup {
						t.Errorf("frame seq %d is in both %s and %s", f.Seq, prev, book)
					}
					where[f] = book
				}
			}
		})
	}
}
