package stream

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"csoutlier"
	"csoutlier/internal/xrand"
)

// Frame is one captured, retryable delta. Folds counts the captures it
// carries (>1 = a relay's sum of leaf deltas), and a relay's Cut names
// the leaf folds it sums: per leaf, its epoch and highest seq in Base. A
// frame's fields are fixed once it is pushed, which gives it its Seq.
type Frame struct {
	Window  uint64
	Seq     uint64
	Folds   uint32
	Cut     []SnapNode
	Payload []byte
}

// freeCap bounds the free list: recycled frames kept for their payload
// buffers.
const freeCap = 64

// Sender is the exactly-once half of the push path, the one place a
// frame is transmitted, retried, retained and replayed: its outbox
// (outbox.go) decides, the Sender does the I/O. A leaf Node pushes its
// captures, a tier.Relay its per-window sums. Exactly-once folding comes
// from the (epoch, seq) tags, not from the transport: the aggregator
// ignores redeliveries.
//
// Every hello names the owner's consensus, so an aggregator of another
// refuses the sender before it joins. Every ack, hello or push, goes to
// the owner's adopt callback — the window the aggregator announces, and
// the cuts of the frames it just declared durable — which is never
// called with mu held (sendMu is).
type Sender struct {
	id, addr string
	epoch    uint64
	ident    []byte // the owner's consensus identity, named in every hello
	opts     NodeOptions
	adopt    func(window uint64, durable []SnapNode)

	mu sync.Mutex
	ob outbox

	sendMu sync.Mutex // serializes network use: Connect/Drain/Sync/Disconnect
	client *Client
	rng    *xrand.RNG // backoff jitter, guarded by sendMu
}

// NewSender makes the sender for (id, epoch) towards the aggregator at
// addr, for frames of sk's consensus; nothing is dialed until Connect.
// Its backoff jitter is seeded from id and the consensus identity, so
// two senders of one name draw the same stream, and the shard senders of
// one name different ones.
func NewSender(addr, id string, sk *csoutlier.Sketcher, epoch uint64, opts NodeOptions, adopt func(window uint64, durable []SnapNode)) (*Sender, error) {
	if id == "" || len(id) > maxNodeLen {
		return nil, fmt.Errorf("stream: node id must be 1 to %d bytes, got %d", maxNodeLen, len(id))
	}
	ident := sk.AppendIdentity(nil)
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write(ident)
	return &Sender{id: id, addr: addr, epoch: epoch, ident: ident, opts: opts.withDefaults(), adopt: adopt, rng: xrand.New(h.Sum64())}, nil
}

// Stats returns the delivery counters and queue depths.
func (s *Sender) Stats() NodeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Sender) statsLocked() NodeStats {
	st := s.ob.stats
	st.Epoch, st.Seq, st.AggEpoch, st.Retained = s.epoch, s.ob.seq, s.ob.aggEpoch, s.ob.acked
	st.Pending = len(s.ob.queue) - s.ob.acked
	return st
}

// Push has fill write a frame — into a recycled payload buffer
// (f.Payload[:0]) when there is one — gives it the next seq and queues
// it, sendable at once.
func (s *Sender) Push(fill func(f *Frame) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.ob.alloc()
	if err := fill(f); err != nil {
		s.ob.recycle(f)
		return err
	}
	s.ob.push(f)
	return nil
}

// noteAck hands an ack to the outbox under the lock (settles: it answers
// the frame sent), then its window and the cuts it made durable to the
// owner, outside it; sendMu, held, keeps the next ack from reusing the
// cuts' buffer while the owner reads it.
func (s *Sender) noteAck(ack Ack, settles bool) {
	s.mu.Lock()
	s.ob.heard(ack, settles)
	durable := s.ob.durable
	s.mu.Unlock()
	s.adopt(ack.Window, durable)
}

// connect returns the live client, dialing and re-announcing if needed,
// and the hello's ack when it said one. Called with sendMu held.
func (s *Sender) connect(ctx context.Context) (*Client, Ack, error) {
	if s.client != nil {
		return s.client, Ack{}, nil
	}
	dctx, cancel := context.WithTimeout(ctx, s.opts.PushTimeout)
	c, err := DialClient(dctx, s.addr, s.opts.PushTimeout)
	cancel()
	if err != nil {
		return nil, Ack{}, err
	}
	ack, err := c.hello(s.id, s.epoch, s.ident)
	if err == nil && ack.Err != "" {
		err = fmt.Errorf("stream: node %s rejected: %s", s.id, ack.Err)
	}
	if err != nil {
		c.Close()
		return nil, Ack{}, err
	}
	s.client = c
	s.noteAck(ack, false)
	return c, ack, nil
}

// disconnect poisons the current connection. Called with sendMu held.
func (s *Sender) disconnect() {
	if s.client != nil {
		s.client.Close()
		s.client = nil
	}
}

// backoff is the wait before retry attempt n: from PushTimeout/400 up
// to PushTimeout/10, jittered. Called with sendMu held.
func (s *Sender) backoff(attempt int) time.Duration {
	return xrand.BackoffDelay(s.rng, attempt, s.opts.PushTimeout/400, s.opts.PushTimeout/10)
}

// exchange runs one request on the live connection, redialing with
// backoff until it is answered or ctx expires. Called with sendMu held.
func (s *Sender) exchange(ctx context.Context, request func(*Client) (Ack, error)) (Ack, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := xrand.SleepCtx(ctx, s.backoff(attempt)); err != nil {
				return Ack{}, fmt.Errorf("stream: node %s: %w (last transport error: %v)", s.id, err, lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			return Ack{}, err
		}
		c, _, err := s.connect(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		if attempt > 0 {
			s.mu.Lock()
			s.ob.stats.Redials++
			s.mu.Unlock()
		}
		ack, err := request(c)
		if err != nil {
			// Transport failure: the stream may hold a half-written
			// frame. Poison and retry from a clean dial; the (epoch, seq)
			// tag makes a redelivery idempotent.
			s.disconnect()
			lastErr = err
			continue
		}
		return ack, nil
	}
}

// drain pushes the pending queue until it is empty, each attempt sending
// what the outbox names after the attempt's redial, if any: a redial's
// hello may have put a replay ahead of the previous attempt's frame. A
// refused frame is dropped and draining goes on; the first refusal is
// returned at the end. Called with sendMu held.
func (s *Sender) drain(ctx context.Context) error {
	var rejected error
	for {
		s.mu.Lock()
		empty := s.ob.head() == nil
		s.mu.Unlock()
		if empty {
			return rejected
		}
		var seq uint64
		ack, err := s.exchange(ctx, func(c *Client) (Ack, error) {
			s.mu.Lock()
			f := s.ob.send()
			s.mu.Unlock()
			seq = f.Seq
			return c.push(s.id, s.epoch, &pushRequest{Kind: pushDelta, Window: f.Window, Seq: f.Seq, Folds: f.Folds, Cut: f.Cut, Payload: f.Payload})
		})
		if err != nil {
			return errors.Join(rejected, err)
		}
		if ack.Err != "" && rejected == nil {
			rejected = fmt.Errorf("stream: node %s seq %d rejected: %s", s.id, seq, ack.Err)
		}
		// The owner may answer a rotation learned from the ack by
		// pushing a residual frame; the loop drains it in the same pass.
		s.noteAck(ack, true)
	}
}

// Connect dials and announces the sender if it has no live connection,
// and returns that hello's ack (the zero Ack when it had one).
func (s *Sender) Connect(ctx context.Context) (Ack, error) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	_, ack, err := s.connect(ctx)
	return ack, err
}

// Disconnect releases the connection; the next Drain or Sync redials.
func (s *Sender) Disconnect() {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.disconnect()
}

// Drain pushes every pending frame until acked. When it returns nil,
// everything enqueued before the call is folded (exactly once) into
// the aggregator, or acked "dropped-old" (its window left the ring: by
// design, not an error). A refused frame is dropped, and Drain returns
// an error naming the first one once the rest are acked.
func (s *Sender) Drain(ctx context.Context) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return s.drain(ctx)
}

// Sync runs a hello round-trip — the owner adopts the aggregator's
// current window, a restored aggregator's replay is requeued — and
// drains the pending queue. Owners with no traffic use it as a
// heartbeat.
func (s *Sender) Sync(ctx context.Context) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	ack, err := s.exchange(ctx, func(c *Client) (Ack, error) { return c.hello(s.id, s.epoch, s.ident) })
	if err != nil {
		return err
	}
	if ack.Err != "" {
		s.disconnect() // unbound now: the next exchange dials and says hello anew
		return fmt.Errorf("stream: node %s rejected: %s", s.id, ack.Err)
	}
	s.noteAck(ack, false)
	return s.drain(ctx)
}
