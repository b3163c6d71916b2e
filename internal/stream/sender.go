package stream

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"csoutlier"
	"csoutlier/internal/xrand"
)

// Frame is one captured, retryable delta. Folds counts the captures it
// carries (>1 = a relay's sum of leaf deltas). A frame's fields are
// fixed once it is staged, which gives it its Seq.
type Frame struct {
	Window  uint64
	Seq     uint64
	Folds   uint32
	Payload []byte
}

// freeCap bounds the free list: recycled frames kept for their payload
// buffers.
const freeCap = 64

// Sender is the exactly-once half of the push path, the one place a
// frame is transmitted, retried, retained and replayed: its outbox
// (outbox.go) decides, the Sender does the I/O. A leaf Node pushes its
// captures; a tier.Relay stages a capture's frames and releases them at
// the commit. Exactly-once folding comes from the (epoch, seq) tags, not
// from the transport: the aggregator ignores redeliveries.
//
// Every hello names the owner's consensus, so an aggregator of another
// refuses the sender before it joins. Every window the aggregator
// announces, in a hello ack or a push ack, goes to the owner's adopt
// callback, which is never called with mu held (sendMu is).
type Sender struct {
	id, addr string
	epoch    uint64
	ident    []byte // the owner's consensus identity, named in every hello
	opts     NodeOptions
	adopt    func(window uint64)

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
func NewSender(addr, id string, sk *csoutlier.Sketcher, epoch uint64, opts NodeOptions, adopt func(window uint64)) (*Sender, error) {
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
	for _, f := range s.ob.queue[s.ob.acked:] {
		if f.Seq <= s.ob.released {
			st.Pending++
		} else {
			st.Staged++
		}
	}
	return st
}

// Stage has fill write a frame — into a recycled payload buffer
// (f.Payload[:0]) when there is one — gives it the next seq and queues
// it, unsendable until a Release covers that seq.
func (s *Sender) Stage(fill func(f *Frame) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.ob.alloc()
	if err := fill(f); err != nil {
		s.ob.recycle(f)
		return err
	}
	s.ob.stage(f)
	return nil
}

// Release makes every frame staged up to seq upTo sendable.
func (s *Sender) Release(upTo uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ob.release(upTo)
}

// Queue returns the last seq staged and a copy of the queue: every frame
// the sender may still transmit, acked ones first, in seq order — replay
// order. A listed frame's bytes stay as they are at least until the
// caller's next Stage, whatever is acked meanwhile.
func (s *Sender) Queue() (seq uint64, frames []*Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ob.seq, slices.Clone(s.ob.queue)
}

// Restore reloads an upward state Queue listed: the seq counter and the
// frames, all pending, for a sender that has not staged anything yet.
func (s *Sender) Restore(seq uint64, frames []*Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ob.restore(seq, frames)
}

// noteAck hands an ack to the outbox under the lock (settles: it answers
// the frame sent), then its window to the owner, outside it.
func (s *Sender) noteAck(ack Ack, settles bool) {
	s.mu.Lock()
	s.ob.heard(ack, settles)
	s.mu.Unlock()
	s.adopt(ack.Window)
}

// connect returns the live client, dialing and re-announcing if needed.
// Called with sendMu held.
func (s *Sender) connect(ctx context.Context) (*Client, error) {
	if s.client != nil {
		return s.client, nil
	}
	dctx, cancel := context.WithTimeout(ctx, s.opts.PushTimeout)
	c, err := DialClient(dctx, s.addr, s.opts.PushTimeout)
	cancel()
	if err != nil {
		return nil, err
	}
	ack, err := c.hello(s.id, s.epoch, s.ident)
	if err == nil && ack.Err != "" {
		err = fmt.Errorf("stream: node %s rejected: %s", s.id, ack.Err)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	s.client = c
	s.noteAck(ack, false)
	return c, nil
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
		c, err := s.connect(ctx)
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
			return c.PushDelta(s.id, s.epoch, f.Window, f.Seq, f.Folds, f.Payload)
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

// Connect dials and announces the sender if it has no live connection.
func (s *Sender) Connect(ctx context.Context) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	_, err := s.connect(ctx)
	return err
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
