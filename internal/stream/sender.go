package stream

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"csoutlier/internal/xrand"
)

// Frame is one captured, retryable delta. Folds counts the captures it
// carries (>1 = a shed or relayed sum); sent marks that at least one
// transmission attempt happened, which makes the frame ineligible for
// merging (the aggregator may already have folded it). Window and Seq
// are fixed once the frame is enqueued.
type Frame struct {
	Window  uint64
	Seq     uint64
	Folds   uint32
	Payload []byte
	sent    bool
}

// Sender is the exactly-once half of the push path, the one place a
// frame is transmitted, retried, retained and replayed. A leaf Node
// feeds it captures; a tier.Relay feeds it the frames a snapshot commit
// released. Either way a frame is pushed stop-and-wait, in queue order,
// until acked; kept after the ack until the aggregator declares it
// durable (ack.Stable at or past its Seq); requeued ahead of everything
// pending if the aggregator comes back as a newer incarnation
// (ack.AggEpoch) that may have lost it; and only then recycled.
// Exactly-once folding comes from the (epoch, seq) tags, not from the
// transport: the aggregator ignores redeliveries.
//
// Every window the aggregator announces, in a hello ack or a push ack,
// goes to the owner's adopt callback, which is never called with mu
// held (sendMu is).
type Sender struct {
	id, addr string
	opts     NodeOptions
	adopt    func(window uint64)

	mu       sync.Mutex
	pending  []*Frame
	retained []*Frame // acked but not yet durable, oldest first
	free     []*Frame // frames nothing can resend any more; Alloc reuses their payload buffers
	aggEpoch uint64   // aggregator incarnation last seen (0 = none yet)
	// stats is the delivery half of NodeStats; a Node counts its
	// captures in the other half of the same book, under the same lock.
	stats NodeStats

	sendMu sync.Mutex // serializes network use: Connect/Drain/Sync/Disconnect
	client *Client
	rng    *xrand.RNG // backoff jitter, guarded by sendMu
}

// NewSender makes the sender for (id, opts.Epoch) towards the aggregator
// at addr; nothing is dialed until Connect. Of opts it reads Epoch,
// Retain, MaxPending (the free-list cap), the two timeouts and the
// backoff triple.
func NewSender(addr, id string, opts NodeOptions, adopt func(window uint64)) (*Sender, error) {
	if id == "" || len(id) > MaxNodeLen {
		return nil, fmt.Errorf("stream: node id must be 1 to %d bytes, got %d", MaxNodeLen, len(id))
	}
	opts = opts.withDefaults()
	seed := opts.BackoffSeed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(id))
		seed = h.Sum64() ^ opts.Epoch
	}
	return &Sender{id: id, addr: addr, opts: opts, adopt: adopt, rng: xrand.New(seed)}, nil
}

// Stats returns the delivery counters and queue depths.
func (s *Sender) Stats() NodeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Sender) statsLocked() NodeStats {
	st := s.stats
	st.Pending = len(s.pending)
	st.Retained = len(s.retained)
	st.AggEpoch = s.aggEpoch
	return st
}

// Alloc returns a frame to fill and Enqueue, reusing a recycled
// payload buffer (f.Payload[:0]) when there is one.
func (s *Sender) Alloc() *Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocLocked()
}

func (s *Sender) allocLocked() *Frame {
	if last := len(s.free) - 1; last >= 0 {
		f := s.free[last]
		s.free = s.free[:last]
		return f
	}
	return &Frame{}
}

// recycleLocked hands f's payload buffer to future Allocs. Only for a
// frame that is in neither the pending queue nor the retention buffer:
// nothing — retry, replay, in-flight push — can send its bytes again.
func (s *Sender) recycleLocked(f *Frame) {
	if len(s.free) < s.opts.MaxPending {
		s.free = append(s.free, f)
	}
}

// Enqueue appends f to the pending queue. Callers enqueue in ascending
// Seq order.
func (s *Sender) Enqueue(f *Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = append(s.pending, f)
}

// Resendable lists every frame the sender may still transmit: retained,
// then pending, which is replay order. A listed frame's bytes stay as
// they are at least until the caller's next Alloc, whatever is acked
// meanwhile.
func (s *Sender) Resendable() []*Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(append(make([]*Frame, 0, len(s.retained)+len(s.pending)), s.retained...), s.pending...)
}

// mergeTargetLocked returns the newest pending frame a capture for
// window may fold into: unsent (no transmission attempt — resending
// mutated bytes under an already-marked seq would lose the merge) and
// tagged with that window.
func (s *Sender) mergeTargetLocked(window uint64) *Frame {
	if len(s.pending) == 0 {
		return nil
	}
	tail := s.pending[len(s.pending)-1]
	if tail.sent || tail.Window != window {
		return nil
	}
	return tail
}

// noteAck processes what every ack carries: the durability piggybacks
// under the lock, then the window, to the owner, outside it. An
// AggEpoch bump requeues the retention buffer for replay (the restored
// aggregator may have lost those frames; its dedup books drop the ones
// it didn't), and the Stable watermark trims frames that can never need
// replay again. f, when non-nil, is the frame this ack answers.
func (s *Sender) noteAck(f *Frame, ack Ack) {
	s.mu.Lock()
	s.stats.Stable = ack.Stable
	if ack.AggEpoch > s.aggEpoch {
		if s.aggEpoch != 0 && len(s.retained) > 0 {
			// The aggregator restarted from a snapshot. Replay everything
			// retained, oldest first and ahead of the pending queue, so
			// frames reach the restored dedup books in capture order.
			s.pending = append(append(make([]*Frame, 0, len(s.retained)+len(s.pending)), s.retained...), s.pending...)
			s.stats.Replayed += int64(len(s.retained))
			s.retained = nil
		}
		s.aggEpoch = ack.AggEpoch
	}
	if len(s.retained) > 0 && ack.Stable > 0 {
		keep := s.retained[:0]
		for _, r := range s.retained {
			if r.Seq > ack.Stable {
				keep = append(keep, r)
			} else {
				s.recycleLocked(r)
			}
		}
		s.retained = keep
	}
	if f != nil {
		s.settleLocked(f, ack)
	}
	s.mu.Unlock()
	s.adopt(ack.Window)
}

// settleLocked accounts f's ack, removes it from the pending queue (by
// identity — a replay may have requeued older frames ahead of it) and
// moves it to the retention buffer if the aggregator has not yet
// declared it durable.
func (s *Sender) settleLocked(f *Frame, ack Ack) {
	for i, p := range s.pending {
		if p == f {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.stats.Acked++
	switch {
	case ack.Err != "":
		s.stats.Rejected++
	case ack.Applied:
		s.stats.Applied++
	case ack.Status == StatusDuplicate:
		s.stats.Duplicates++
	case ack.Status == StatusDroppedOld:
		s.stats.Dropped++
	}
	if ack.Err != "" || s.opts.Retain <= 0 || f.Seq <= ack.Stable {
		s.recycleLocked(f)
		return
	}
	// Acked but not durable: keep for replay. The buffer is in seq order
	// because stop-and-wait acks frames in seq order.
	s.retained = append(s.retained, f)
	for len(s.retained) > s.opts.Retain {
		s.recycleLocked(s.retained[0])
		s.retained = s.retained[1:]
		s.stats.RetainDropped++
	}
}

// connect returns the live client, dialing and re-announcing if needed.
// Called with sendMu held.
func (s *Sender) connect(ctx context.Context) (*Client, error) {
	if s.client != nil {
		return s.client, nil
	}
	dctx, cancel := context.WithTimeout(ctx, s.opts.DialTimeout)
	c, err := DialClient(dctx, s.addr, s.opts.PushTimeout)
	cancel()
	if err != nil {
		return nil, err
	}
	ack, err := c.Hello(s.id, s.opts.Epoch)
	if err != nil {
		c.Close()
		return nil, err
	}
	if ack.Err != "" {
		c.Close()
		return nil, fmt.Errorf("stream: node %s rejected: %s", s.id, ack.Err)
	}
	s.client = c
	s.noteAck(nil, ack)
	return c, nil
}

// disconnect poisons the current connection. Called with sendMu held.
func (s *Sender) disconnect() {
	if s.client != nil {
		s.client.Close()
		s.client = nil
	}
}

// exchange runs one request on the live connection, redialing with
// backoff until it is answered or ctx expires. Called with sendMu held.
func (s *Sender) exchange(ctx context.Context, request func(*Client) (Ack, error)) (Ack, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := xrand.SleepCtx(ctx, xrand.BackoffDelay(s.rng, attempt, s.opts.BaseBackoff, s.opts.MaxBackoff)); err != nil {
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
			s.stats.Redials++
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

// drain pushes every pending frame in order. Called with sendMu held.
func (s *Sender) drain(ctx context.Context) error {
	for {
		s.mu.Lock()
		var f *Frame
		if len(s.pending) > 0 {
			f = s.pending[0]
		}
		s.mu.Unlock()
		if f == nil {
			return nil
		}
		ack, err := s.exchange(ctx, func(c *Client) (Ack, error) {
			s.mu.Lock()
			f.sent = true // from here the frame may have been folded: never merge into it
			folds, payload := f.Folds, f.Payload
			s.mu.Unlock()
			return c.PushDelta(s.id, s.opts.Epoch, f.Window, f.Seq, folds, payload)
		})
		if err != nil {
			return err
		}
		// The owner may answer a rotation learned from the ack by
		// enqueueing a residual frame; the loop drains it in the same pass.
		s.noteAck(f, ack)
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
// the aggregator.
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
	ack, err := s.exchange(ctx, func(c *Client) (Ack, error) { return c.Hello(s.id, s.opts.Epoch) })
	if err != nil {
		return err
	}
	if ack.Err != "" {
		return fmt.Errorf("stream: node %s rejected: %s", s.id, ack.Err)
	}
	s.noteAck(nil, ack)
	return s.drain(ctx)
}
