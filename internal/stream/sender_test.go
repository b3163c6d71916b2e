package stream

import (
	"context"
	"net"
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
	seq     uint64
}

func newSenderRig(t *testing.T, opts NodeOptions) *senderRig {
	t.Helper()
	sk := testSketcher(t, 64, 32, 5)
	r := &senderRig{t: t, delta: testDelta(t, sk, "key001", 1)}
	var addr string
	r.agg, addr = serveAgg(t, sk, AggregatorOptions{Windows: 2, Durable: true})
	r.gate = newGateRelay(t, addr)
	opts.BaseBackoff, opts.MaxBackoff = time.Millisecond, 2*time.Millisecond
	var err error
	if r.s, err = NewSender(r.gate.addr, "sender00", opts, func(w uint64) { r.adopted = append(r.adopted, w) }); err != nil {
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

// enqueue queues the next frame the way an owner does: Alloc, fill the
// recycled buffer, Enqueue.
func (r *senderRig) enqueue(payload []byte) *Frame {
	r.t.Helper()
	f := r.s.Alloc()
	for _, live := range r.s.Resendable() {
		if live == f || (cap(f.Payload) > 0 && cap(live.Payload) > 0 && &f.Payload[:1][0] == &live.Payload[:1][0]) {
			r.t.Fatalf("Alloc handed out seq %d, which is still resendable", live.Seq)
		}
	}
	r.seq++
	*f = Frame{Window: 1, Seq: r.seq, Folds: 1, Payload: append(f.Payload[:0], payload...)}
	r.s.Enqueue(f)
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
	r.agg.CommitSnapshot(snap)
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

func pendingOf(s *Sender) []*Frame  { return s.pending }
func retainedOf(s *Sender) []*Frame { return s.retained }

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
// Node's capture/shed-merge and tier.Relay's staging — rely on.
func TestSenderRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts NodeOptions
		run  func(t *testing.T, r *senderRig)
	}{
		{"a sent frame is never a merge target", NodeOptions{PushTimeout: 20 * time.Millisecond}, func(t *testing.T, r *senderRig) {
			f := r.enqueue(r.delta)
			r.s.mu.Lock()
			if r.s.mergeTargetLocked(2) != nil || r.s.mergeTargetLocked(1) != f {
				t.Error("an unsent tail is the merge target of its own window and of no other")
			}
			r.s.mu.Unlock()
			// One transmission attempt that never hears its ack: the frame
			// stays pending, and may have been folded.
			r.gate.Cut()
			if err := r.s.Drain(r.ctx(60 * time.Millisecond)); err == nil {
				t.Fatal("Drain over a cut link returned nil")
			}
			r.s.mu.Lock()
			if len(r.s.pending) != 1 || !f.sent || r.s.mergeTargetLocked(1) != nil {
				t.Errorf("after a failed push: %d pending, sent=%v, merge target %v; want the frame pending, sent and unmergeable",
					len(r.s.pending), f.sent, r.s.mergeTargetLocked(1))
			}
			r.s.mu.Unlock()
			r.gate.Restore()
			r.drain()
			if st := r.s.Stats(); st.Applied+st.Duplicates != 1 || st.Pending != 0 {
				t.Errorf("after the link came back: %+v, want the one frame settled", st)
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
			free := len(r.s.free)
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
		{"the retention cap drops oldest first and counts each drop", NodeOptions{Retain: 2}, func(t *testing.T, r *senderRig) {
			for i := 0; i < 5; i++ {
				r.enqueue(r.delta)
			}
			r.drain()
			r.want("retained at the cap", r.seqs(retainedOf), 4, 5)
			if st := r.s.Stats(); st.RetainDropped != 3 || st.Retained != 2 || st.Applied != 5 {
				t.Errorf("%+v, want 3 of 5 applied frames dropped from retention", st)
			}
		}},
		{"negative Retain retains nothing", NodeOptions{Retain: -1}, func(t *testing.T, r *senderRig) {
			r.enqueue(r.delta)
			r.drain()
			if st := r.s.Stats(); st.Retained != 0 || st.RetainDropped != 0 || st.Applied != 1 {
				t.Errorf("%+v, want the applied frame recycled at once", st)
			}
		}},
		{"a rejected frame is not retained", NodeOptions{}, func(t *testing.T, r *senderRig) {
			r.enqueue([]byte("not a sketch"))
			r.enqueue(r.delta)
			r.drain()
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
			// Every ack's window reached the owner, and no frame is in two books.
			if len(r.adopted) == 0 {
				t.Error("the window callback never ran")
			}
			r.s.mu.Lock()
			defer r.s.mu.Unlock()
			where := make(map[*Frame]string)
			for book, frames := range map[string][]*Frame{"pending": r.s.pending, "retained": r.s.retained, "free": r.s.free} {
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
