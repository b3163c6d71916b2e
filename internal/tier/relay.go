package tier

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"csoutlier"
	"csoutlier/internal/stream"
)

// relayLevel is a relay's tier level in its wire identity: leaf nodes
// are level 0 and every relay sits at level 1, directly under a root.
const relayLevel = 1

// RelayOptions tunes a regional relay aggregator: the identity and
// parent below, and the two option structs of the halves it is built
// from.
type RelayOptions struct {
	// ID names this relay in its parent's dedup books (required). The
	// wire identity is "sSS.t1.ID" for shard SS (Relay.Name).
	ID string
	// Shard is the key-range shard this relay's tree serves.
	Shard int
	// Upstream is the parent aggregator's push-listener address
	// (required).
	Upstream string
	// Up configures the upward connection exactly as it does a leaf
	// node's: its PushTimeout, and with it the backoff. The upward epoch
	// is the relay's incarnation (see NewRelay).
	Up stream.NodeOptions
	// Agg configures the embedded leaf-facing aggregator. Its Metrics
	// registry also gets the relay's tier_* families. A relay keeps no
	// file — what it must not lose is its root's (see Relay) — so a
	// SnapshotPath is refused by name, and so is a non-zero WindowEvery:
	// the window clock is adopted from the parent, so the whole tree
	// shares the root's rotation. Its books are durable, Durable or not.
	Agg stream.AggregatorOptions
}

// upAccum accumulates applied leaf deltas for one window since the
// last staging, and the cut of exactly the folds it sums: per leaf, its
// epoch and highest seq. Staging empties it and keeps it for the next
// window that needs one.
type upAccum struct {
	sketch csoutlier.Sketch
	folds  uint32
	cut    map[string]leafMark
}

// leafMark is one leaf's place in an accumulator's cut.
type leafMark struct{ epoch, seq uint64 }

// RelayStats is a snapshot of a relay's upward-forwarding state. The
// delivery fields (Applied … RootStable, Queued, Retained) are the
// upward stream.Sender's books.
type RelayStats struct {
	Forwards      int64 // completed Forward cycles
	ForwardErrors int64 // Forward cycles whose drain failed
	FramesStaged  int64 // upward frames created (seq assigned)
	FoldsStaged   int64 // leaf captures carried by staged frames
	Applied       int64 // upward frames the parent folded
	Duplicates    int64 // upward frames the parent had already processed
	Dropped       int64 // upward frames too old for the parent's ring
	Rejected      int64 // upward frames the parent refused
	Replayed      int64 // retained frames requeued after a parent restore
	RetainDropped int64 // retained frames discarded at the retention cap; a parent restore could lose each
	Redials       int64 // upstream connections re-established
	Unstable      int   // windows with accumulated-but-unstaged deltas
	Staged        int   // always 0: a staged frame is sendable at once (the benchmark's conservation check still reads it)
	Queued        int   // staged frames waiting to be pushed
	Retained      int   // acked frames held for parent-restore replay
	UpSeq         uint64
	UpEpoch       uint64
	RootEpoch     uint64 // parent incarnation last seen
	RootStable    uint64 // parent's durable watermark for this relay
}

// Relay is a regional aggregator: a full stream.Aggregator for the
// nodes below it, and a stream.Sender — the leaf node's own — for the
// aggregator above it. Leaf deltas fold into its window ring exactly as
// at a flat aggregator; the OnApplied hook mirrors every applied delta
// into a per-window upward accumulator, so by linearity each
// accumulator is exactly the sum of the leaf deltas it covers —
// forwarding it upward as one frame gives the root bit-identical
// windows at a fraction of the fan-in.
//
// Exactly-once across the hop keeps its state where the sum lives, at
// the root. Each upward frame carries the cut of the leaf folds it sums
// (a leaf's seqs arrive in ascending order and its windows never go
// back, so frames staged in ascending-window order carry cuts that are
// prefixes), and the root merges the cuts into the relay's record. A
// leaf's Stable follows the root: it rises by the cuts of the upward
// frames the root declares durable, so a leaf retains a frame until the
// sum carrying it survives the root. A new relay incarnation (NewRelay,
// a restart included) is given the merged cut back in its first hello
// ack, seeds its leaf-facing books from it and announces a fresh
// AggEpoch: every leaf replays what it retains, the books drop what the
// root already holds and fold the rest. The relay keeps no file, and
// what it folded but had not forwarded when it died comes back from the
// leaves.
//
// Lock order: the aggregator's ingest mutex → fmu → the sender's lock.
// Forward stages under fmu alone; the sender's callback (adoptRoot),
// which commits the leaves' Stable and rotates, runs under none of them.
type Relay struct {
	sk   *csoutlier.Sketcher
	name string // frameID(shard, id)
	agg  *stream.Aggregator
	snd  *stream.Sender // upward frames: push, retain, replay

	fmu      sync.Mutex
	unstable map[uint64]*upAccum
	spare    []*upAccum // emptied accumulators staging kept
	stats    RelayStats // the staging counters; Stats adds the sender's

	metrics *relayMetrics
}

// NewRelay builds a relay, dials its parent, announces its upward
// identity, seeds its leaf-facing books from the cut the parent gives
// back and adopts the parent's current window — so the relay's window
// clock agrees with the root before the first leaf connects. Serve must
// be called to accept leaf pushes.
//
// The upward epoch is a stream.FreshEpoch, a leaf node's rule: a relay
// built after a restart announces a higher epoch than its previous
// incarnation, so the parent resets the relay's sequence space and
// folds its frames as new data, while the cut its record keeps says
// which leaf folds it already holds. The leaf-facing AggEpoch is fresh
// too, so the leaves replay what they retain.
func NewRelay(ctx context.Context, sk *csoutlier.Sketcher, opts RelayOptions) (*Relay, error) {
	switch {
	case opts.ID == "":
		return nil, errors.New("tier: relay ID must be non-empty")
	case opts.Upstream == "":
		return nil, errors.New("tier: relay upstream address must be non-empty")
	case opts.Agg.WindowEvery != 0:
		return nil, fmt.Errorf("tier: relay %s: Agg.WindowEvery is %v, want 0: a relay rotates when its upstream does", opts.ID, opts.Agg.WindowEvery)
	case opts.Agg.SnapshotPath != "":
		return nil, fmt.Errorf("tier: relay %s: Agg.SnapshotPath is %q, want none: a relay keeps no file", opts.ID, opts.Agg.SnapshotPath)
	}
	r := &Relay{
		sk:       sk,
		name:     frameID(opts.Shard, opts.ID),
		unstable: make(map[uint64]*upAccum),
	}
	var err error
	r.snd, err = stream.NewSender(opts.Upstream, r.name, sk, stream.FreshEpoch(), opts.Up, r.adoptRoot)
	if err != nil {
		return nil, err
	}
	hello, err := r.snd.Connect(ctx)
	if err != nil {
		return nil, err
	}
	aopts := opts.Agg
	aopts.OnApplied = r.onApplied
	r.agg, err = stream.RestoreAggregator(sk, aopts, &stream.Snapshot{AggEpoch: stream.FreshEpoch(), Window: hello.Window, Nodes: hello.Cut})
	if err != nil {
		r.snd.Disconnect()
		return nil, err
	}
	if opts.Agg.Metrics != nil {
		r.metrics = newRelayMetrics(opts.Agg.Metrics, r)
	}
	return r, nil
}

// Name returns the relay's upward wire identity.
func (r *Relay) Name() string { return r.name }

// Aggregator returns the embedded leaf-facing aggregator (for queries
// and leaf-side stats; its listener is driven via Serve).
func (r *Relay) Aggregator() *stream.Aggregator { return r.agg }

// Serve accepts leaf push connections on ln until the relay closes —
// the embedded aggregator's ordinary push listener.
func (r *Relay) Serve(ln net.Listener) error { return r.agg.Serve(ln) }

// Stats returns a snapshot of the relay's upward counters.
func (r *Relay) Stats() RelayStats {
	up := r.snd.Stats()
	r.fmu.Lock()
	defer r.fmu.Unlock()
	s := r.stats
	s.Unstable = len(r.unstable)
	s.UpSeq, s.UpEpoch = up.Seq, up.Epoch
	s.Applied, s.Duplicates, s.Dropped, s.Rejected = up.Applied, up.Duplicates, up.Dropped, up.Rejected
	s.Replayed, s.RetainDropped, s.Redials = up.Replayed, up.RetainDropped, up.Redials
	s.Queued, s.Retained = up.Pending, up.Retained
	s.RootEpoch, s.RootStable = up.AggEpoch, up.Stable
	return s
}

// onApplied mirrors one applied leaf delta into the window's upward
// accumulator and its cut. Runs under the aggregator mutex, before the
// leaf's seq is marked, and takes fmu inside it.
//
// The delta's own window held finite, but the accumulator sums only
// what arrived since the last stage, so it can overflow where the
// window does not (−Max forwarded, then +Max twice). Add refuses that
// sum; every accumulator is then staged, in ascending-window order as
// at a Forward, so each cut stays a prefix, and the delta starts a
// fresh one: the parent folds what the window holds.
func (r *Relay) onApplied(node string, epoch, seq, window uint64, folds int, delta csoutlier.Sketch) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	acc := r.accumulator(window)
	if acc.sketch.Add(delta) != nil {
		err := r.stage()
		if err == nil {
			acc = r.accumulator(window)
			// A zero accumulator plus a delta the window took is finite,
			// and delta was decoded by the same sketcher that built it.
			err = acc.sketch.Add(delta)
		}
		if err != nil {
			panic(fmt.Sprintf("tier: relay %s accumulator: %v", r.name, err))
		}
	}
	acc.folds += uint32(folds)
	acc.cut[node] = leafMark{epoch, seq}
}

// accumulator returns the window's upward accumulator, taking a spare
// one (or a new one) if the window has none.
func (r *Relay) accumulator(window uint64) *upAccum {
	acc, ok := r.unstable[window]
	if !ok {
		if last := len(r.spare) - 1; last >= 0 {
			acc, r.spare = r.spare[last], r.spare[:last]
		} else {
			acc = &upAccum{sketch: r.sk.ZeroSketch(), cut: make(map[string]leafMark)}
		}
		r.unstable[window] = acc
	}
	return acc
}

// stage pushes the unstable accumulators as upward frames, in
// ascending-window order so replay order is deterministic and every
// frame's cut is a prefix. Runs under fmu.
func (r *Relay) stage() error {
	windows := make([]uint64, 0, len(r.unstable))
	for w := range r.unstable {
		windows = append(windows, w)
	}
	slices.Sort(windows)
	for _, w := range windows {
		if err := r.stageWindow(w); err != nil {
			return err
		}
	}
	return nil
}

// stageWindow pushes one window's accumulator, with its cut by leaf
// name, as the sender's next frame and keeps the emptied accumulator for
// reuse. The caller holds fmu.
func (r *Relay) stageWindow(w uint64) error {
	acc := r.unstable[w]
	err := r.snd.Push(func(f *stream.Frame) error {
		cut := f.Cut[:0]
		for leaf, mk := range acc.cut {
			cut = append(cut, stream.SnapNode{NodeStatus: stream.NodeStatus{Node: leaf, Epoch: mk.epoch}, Base: mk.seq})
		}
		slices.SortFunc(cut, func(x, y stream.SnapNode) int { return strings.Compare(x.Node, y.Node) })
		payload, err := acc.sketch.AppendBinary(f.Payload[:0])
		*f = stream.Frame{Window: w, Folds: acc.folds, Cut: cut, Payload: payload}
		return err
	})
	if err != nil {
		return fmt.Errorf("tier: relay %s window %d: %w", r.name, w, err)
	}
	delete(r.unstable, w)
	r.stats.FramesStaged++
	r.stats.FoldsStaged += int64(acc.folds)
	clear(acc.sketch.Y)
	clear(acc.cut)
	acc.folds = 0
	r.spare = append(r.spare, acc)
	return nil
}

// Forward runs one stage-and-drain cycle: stage the windows accumulated
// since the last cycle, then push every queued frame upstream until
// acked, adopting the parent's window from each ack and raising the
// leaves' Stable by the cuts the parent declares durable. It is the
// relay's flush, exactly as Flush is a node's.
func (r *Relay) Forward(ctx context.Context) error {
	start := time.Now()
	r.fmu.Lock()
	err := r.stage()
	r.fmu.Unlock()
	if err == nil {
		err = r.snd.Drain(ctx)
	}
	r.fmu.Lock()
	if err != nil {
		r.stats.ForwardErrors++
	} else {
		r.stats.Forwards++
	}
	r.fmu.Unlock()
	if m := r.metrics; m != nil {
		m.forwardSeconds.Observe(time.Since(start).Seconds())
	}
	return err
}

// adoptRoot is the sender's callback: it commits the cuts of the upward
// frames the parent declared durable, so the leaves they name may trim,
// and advances the relay's leaf-facing window clock to the parent's —
// the rotation broadcast cascading down the tree. NewRelay's own hello
// finds no aggregator yet: it is built from that ack. Never called with
// fmu held (Rotate and Commit take the aggregator mutex).
func (r *Relay) adoptRoot(w uint64, durable []stream.SnapNode) {
	if r.agg == nil {
		return
	}
	if len(durable) > 0 {
		r.agg.Commit(durable)
	}
	for r.agg.CurrentWindow() < w {
		r.agg.Rotate()
	}
}

// Sync runs an upstream hello round-trip — adopting the parent's
// current window and processing its durability piggybacks — and drains
// any queued upward frames (the replay a restored parent asks for runs
// here).
func (r *Relay) Sync(ctx context.Context) error { return r.snd.Sync(ctx) }

// Close shuts the relay down gracefully: drain and stop the leaf-facing
// aggregator, run a final Forward so everything folded is staged and
// pushed upward, then release the upstream connection.
func (r *Relay) Close(ctx context.Context) error {
	aggErr := r.agg.Close(ctx)
	fwdErr := r.Forward(ctx)
	r.snd.Disconnect()
	if aggErr != nil {
		return aggErr
	}
	return fwdErr
}

// Kill is a crash for tests: stop the leaf-facing aggregator and drop
// the upstream connection with NO final forward — everything since the
// last Forward dies with the process image, which is exactly what a new
// relay, seeded from its root's cut, plus leaf replay must recover from.
func (r *Relay) Kill(ctx context.Context) error {
	err := r.agg.Close(ctx)
	r.snd.Disconnect()
	return err
}
