package tier

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"csoutlier"
	"csoutlier/internal/frame"
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
	// registry also gets the relay's tier_* families. SnapshotPath, when
	// non-empty, makes the relay durable: every Forward persists an
	// atomic-rename snapshot there (the embedded aggregator's fold state
	// plus the upward-forwarding state in Snapshot.Extra) before any
	// upward frame becomes sendable. Without one, Forward captures
	// nothing and the relay is not durable, Durable or not: a crash
	// loses what it folded since its last Forward, as a fresh relay's
	// AggEpoch 1 makes no leaf replay. Durable then only holds the
	// leaves' Stable watermarks, and their trimming, back to the last
	// Forward. The relay owns that file and its
	// window clock (adopted from the parent, so the whole tree shares
	// the root's rotation): the aggregator never snapshots or rotates on
	// its own, so SnapshotEvery is ignored, a non-zero WindowEvery is
	// refused, and the snapshot hooks are overridden.
	Agg stream.AggregatorOptions
}

// upAccum accumulates applied leaf deltas for one window since the
// last staging. Staging zeroes it and keeps it for the next window that
// needs one.
type upAccum struct {
	sketch csoutlier.Sketch
	folds  uint32
}

// RelayStats is a snapshot of a relay's upward-forwarding state. The
// delivery fields (Applied … RootStable, Queued, Retained) are the
// upward stream.Sender's books.
type RelayStats struct {
	Forwards        int64 // completed Forward cycles
	ForwardErrors   int64 // Forward cycles that failed (commit or drain)
	FramesStaged    int64 // upward frames created (seq assigned)
	FoldsStaged     int64 // leaf captures carried by staged frames
	FramesCommitted int64 // staged frames a commit released
	Applied         int64 // upward frames the parent folded
	Duplicates      int64 // upward frames the parent had already processed
	Dropped         int64 // upward frames too old for the parent's ring
	Rejected        int64 // upward frames the parent refused
	Replayed        int64 // retained frames requeued after a parent restore
	RetainDropped   int64 // retained frames discarded at the retention cap; a parent restore could lose each
	Redials         int64 // upstream connections re-established
	Unstable        int   // windows with accumulated-but-unstaged deltas
	Staged          int   // frames waiting for a snapshot commit
	Queued          int   // committed frames waiting to be pushed
	Retained        int   // acked frames held for parent-restore replay
	UpSeq           uint64
	UpEpoch         uint64
	RootEpoch       uint64 // parent incarnation last seen
	RootStable      uint64 // parent's durable watermark for this relay
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
// Exactly-once across the hop: a capture stages the unstable
// accumulators into the sender's outbox, which gives them upward seqs in
// ascending-window order, inside a critical section of the embedded
// aggregator's mutex, so the frames are exactly the folds it admitted.
// Staged frames are not sendable until the release the capture returns,
// which the aggregator runs at the commit, after the leaves' Stable
// watermarks advance: a leaf hears "durable" only once the upward frame
// carrying its delta is, and no such frame is sent before. A relay with
// a snapshot file captures inside Snapshot (SnapshotExtra), encoding its
// whole upward state — epoch, seq counter, every queued frame — into
// Snapshot.Extra, and WriteSnapshot commits once the file is on disk;
// RestoreRelay re-derives byte-identical frames, the parent's dedup
// books drop replayed ones, and leaf-replayed deltas get fresh seqs. A
// relay without a file has nothing to capture: by linearity the upward
// frames are all it forwards, so its Forward captures and commits in one
// critical section (Aggregator.CommitStaged) and never copies the ring.
//
// Lock order: cmu → the aggregator's ingest mutex → fmu → the sender's
// lock, on both commit paths (the file path enters the ingest mutex
// through the aggregator's snapMu). The sender's window callback
// (adoptRoot) runs under none of them.
type Relay struct {
	sk   *csoutlier.Sketcher
	opts RelayOptions
	name string // frameID(shard, id)
	agg  *stream.Aggregator
	snd  *stream.Sender // committed frames: push, retain, replay

	// cmu serializes commit cycles, so the seq a capture records is
	// the one its own commit releases.
	cmu sync.Mutex

	fmu      sync.Mutex
	unstable map[uint64]*upAccum
	spare    []*upAccum // zeroed accumulators staging emptied
	stats    RelayStats // the staging counters; Stats adds the sender's

	metrics *relayMetrics
}

// NewRelay builds a relay, dials its parent, announces its upward
// identity and adopts the parent's current window — so the relay's
// leaf-facing window clock agrees with the root before the first leaf
// connects. Serve must be called to accept leaf pushes.
//
// The upward epoch is a stream.FreshEpoch, a leaf node's rule: a relay
// built fresh after a restart announces a higher epoch than its previous
// incarnation, so the parent resets the relay's sequence space and
// folds its frames as new data. A durable relay comes back through
// RestoreRelay instead.
func NewRelay(ctx context.Context, sk *csoutlier.Sketcher, opts RelayOptions) (*Relay, error) {
	return buildRelay(ctx, sk, opts, stream.FreshEpoch(), nil)
}

// buildRelay constructs the relay and its embedded aggregator with the
// hooks wired, then runs the upstream handshake; restored carries a
// decoded upward state (nil = fresh).
func buildRelay(ctx context.Context, sk *csoutlier.Sketcher, opts RelayOptions, upEpoch uint64, restored *relayExtraState) (*Relay, error) {
	if opts.ID == "" {
		return nil, errors.New("tier: relay ID must be non-empty")
	}
	if opts.Upstream == "" {
		return nil, errors.New("tier: relay upstream address must be non-empty")
	}
	if opts.Agg.WindowEvery != 0 {
		return nil, fmt.Errorf("tier: relay %s: Agg.WindowEvery is %v, want 0: a relay rotates when its upstream does", opts.ID, opts.Agg.WindowEvery)
	}
	r := &Relay{
		sk:       sk,
		opts:     opts,
		name:     frameID(opts.Shard, opts.ID),
		unstable: make(map[uint64]*upAccum),
	}
	var err error
	r.snd, err = stream.NewSender(opts.Upstream, r.name, sk, upEpoch, opts.Up, r.adoptRoot)
	if err != nil {
		return nil, err
	}

	aopts := opts.Agg
	// The relay owns its snapshot file: the embedded aggregator must
	// never write one on its own (a snapshot not followed by the relay's
	// commit discipline would advance nothing; without a path its
	// SnapshotEvery never fires).
	aopts.Durable = aopts.Durable || aopts.SnapshotPath != ""
	aopts.SnapshotPath = ""
	aopts.OnApplied = r.onApplied
	aopts.SnapshotExtra = func() ([]byte, func(), error) { return r.capture(true) }
	if restored != nil {
		r.snd.Restore(restored.UpSeq, restored.Frames)
		r.agg, err = stream.RestoreAggregator(sk, aopts, restored.snap)
	} else {
		r.agg, err = stream.NewAggregator(sk, aopts)
	}
	if err != nil {
		return nil, err
	}
	if opts.Agg.Metrics != nil {
		r.metrics = newRelayMetrics(opts.Agg.Metrics, r)
	}
	if err := r.snd.Connect(ctx); err != nil {
		r.agg.Close(context.Background())
		return nil, err
	}
	return r, nil
}

// RestoreRelay rebuilds a durable relay from its snapshot: the
// leaf-facing aggregator restores exactly as a flat one would
// (Float64bits-identical ring, live dedup books, bumped leaf-facing
// AggEpoch so leaves replay), and the upward state comes back from
// Snapshot.Extra — same upward epoch, same seq counter, and every
// frame the parent may not have durably folded requeued byte-identical
// for replay (the parent's books drop the ones it has). Keeping the
// epoch is what lets the parent dedup the replay. Like NewRelay
// it dials the parent and adopts the current window; call Sync to
// drain the replayed queue, BEFORE the leaves reconnect, so the window
// clock is current when their frames arrive.
func RestoreRelay(ctx context.Context, sk *csoutlier.Sketcher, opts RelayOptions, snap *stream.Snapshot) (*Relay, error) {
	st, err := decodeRelayExtra(snap.Extra)
	if err != nil {
		return nil, err
	}
	if st.Shard != opts.Shard || st.ID != opts.ID {
		return nil, fmt.Errorf("tier: snapshot belongs to relay %s, not %s",
			frameID(st.Shard, st.ID), frameID(opts.Shard, opts.ID))
	}
	st.snap = snap
	r, err := buildRelay(ctx, sk, opts, st.UpEpoch, st)
	if err != nil {
		return nil, err
	}
	// The leaf-facing incarnation the restore bumped goes to disk before
	// any leaf hears it: a second crash then restores to a higher one
	// still, and the leaves replay.
	if opts.Agg.SnapshotPath != "" {
		if err := r.commitCycle(); err != nil {
			r.Kill(context.Background())
			return nil, err
		}
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
	s.Staged = up.Staged
	s.FramesCommitted = s.FramesStaged - int64(up.Staged) // a staged frame is released or still staged
	s.UpSeq, s.UpEpoch = up.Seq, up.Epoch
	s.Applied, s.Duplicates, s.Dropped, s.Rejected = up.Applied, up.Duplicates, up.Dropped, up.Rejected
	s.Replayed, s.RetainDropped, s.Redials = up.Replayed, up.RetainDropped, up.Redials
	s.Queued, s.Retained = up.Pending, up.Retained
	s.RootEpoch, s.RootStable = up.AggEpoch, up.Stable
	return s
}

// onApplied mirrors one applied leaf delta into the window's upward
// accumulator. Runs under the aggregator mutex (so it can never race a
// snapshot capture of the same fold) and takes fmu inside it.
//
// The delta's own window held finite, but the accumulator sums only
// what arrived since the last stage, so it can overflow where the
// window does not (−Max forwarded, then +Max twice). Add refuses that
// sum; the accumulator is then staged as a frame of its own and the
// delta starts a fresh one, so the parent folds what the window holds.
func (r *Relay) onApplied(window uint64, folds int, delta csoutlier.Sketch) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	acc := r.accumulator(window)
	if acc.sketch.Add(delta) != nil {
		err := r.stageWindow(window)
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
}

// accumulator returns the window's upward accumulator, taking a spare
// one (or a new one) if the window has none.
func (r *Relay) accumulator(window uint64) *upAccum {
	acc, ok := r.unstable[window]
	if !ok {
		if last := len(r.spare) - 1; last >= 0 {
			acc, r.spare = r.spare[last], r.spare[:last]
		} else {
			acc = &upAccum{sketch: r.sk.ZeroSketch()}
		}
		r.unstable[window] = acc
	}
	return acc
}

// stage drains the unstable accumulators into staged frames, in
// ascending-window order so replay order is deterministic. Every capture
// stages through it, under the aggregator mutex and fmu.
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

// stageWindow encodes one window's accumulator as the sender's next
// staged frame and keeps the emptied accumulator for reuse. The caller
// holds the aggregator mutex and fmu.
func (r *Relay) stageWindow(w uint64) error {
	acc := r.unstable[w]
	err := r.snd.Stage(func(f *stream.Frame) error {
		payload, err := acc.sketch.AppendBinary(f.Payload[:0])
		*f = stream.Frame{Window: w, Folds: acc.folds, Payload: payload}
		return err
	})
	if err != nil {
		return fmt.Errorf("tier: relay %s window %d: %w", r.name, w, err)
	}
	delete(r.unstable, w)
	r.stats.FramesStaged++
	r.stats.FoldsStaged += int64(acc.folds)
	clear(acc.sketch.Y)
	acc.folds = 0
	r.spare = append(r.spare, acc)
	return nil
}

// capture stages every unstable window and returns the release the
// commit runs: it makes sendable every frame staged so far, and no frame
// staged later. With encode it also returns the whole upward state as a
// snapshot's Extra. Runs under the aggregator mutex (inside Snapshot's
// critical section, or CommitStaged's), so the frames and the fold state
// they summarize are captured atomically.
func (r *Relay) capture(encode bool) (extra []byte, release func(), err error) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	if err := r.stage(); err != nil {
		return nil, nil, err
	}
	up := r.snd.Stats()
	upTo := up.Seq
	if encode {
		// Staging is the relay's only Stage and runs under fmu: the
		// listed frames hold still while they are encoded.
		var frames []*stream.Frame
		upTo, frames = r.snd.Queue()
		if extra, err = encodeRelayExtra(r.opts.Shard, r.opts.ID, up.Epoch, upTo, frames); err != nil {
			return nil, nil, err
		}
	}
	return extra, func() { r.snd.Release(upTo) }, nil
}

// Forward runs one commit-and-drain cycle — commit (staging the windows
// accumulated since the last cycle, releasing the staged frames and
// advancing the leaves' Stable watermarks), then push every queued
// frame upstream until acked, adopting the parent's window from each
// ack. It is the relay's durability point, exactly as Flush is a
// node's. See commitCycle for the two ways it commits.
func (r *Relay) Forward(ctx context.Context) error {
	start := time.Now()
	err := r.commitCycle()
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

// commitCycle commits one cycle. A relay with a snapshot file captures,
// persists and commits a snapshot — which advances the leaves' Stable
// watermarks and then releases the frames the capture staged; frames
// staged after it (by a fold whose accumulator would overflow) wait for
// the next cycle. One without captures, advances the watermarks and
// releases in one aggregator critical section and copies no window.
func (r *Relay) commitCycle() error {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	var err error
	if path := r.opts.Agg.SnapshotPath; path != "" {
		err = r.agg.WriteSnapshot(path)
	} else {
		err = r.agg.CommitStaged(func() (func(), error) {
			_, release, err := r.capture(false)
			return release, err
		})
	}
	if err != nil {
		return fmt.Errorf("tier: relay %s: %w", r.name, err)
	}
	return nil
}

// adoptRoot advances the relay's leaf-facing window clock to the
// parent's — the rotation broadcast cascading down the tree, and the
// sender's window callback. Never called with fmu held (Rotate takes
// the aggregator mutex).
func (r *Relay) adoptRoot(w uint64) {
	for r.agg.CurrentWindow() < w {
		r.agg.Rotate()
	}
}

// Sync runs an upstream hello round-trip — adopting the parent's
// current window and processing its durability piggybacks — and drains
// any queued upward frames (a restored relay's replay, and the replay a
// restored parent asks for, run here).
func (r *Relay) Sync(ctx context.Context) error { return r.snd.Sync(ctx) }

// Close shuts the relay down gracefully: drain and stop the leaf-facing
// aggregator, run a final Forward so everything folded is staged,
// committed and pushed upward, then release the upstream connection.
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
// the upstream connection with NO final forward and NO snapshot —
// everything since the last Forward dies with the process image, which
// is exactly what RestoreRelay plus leaf replay must recover from.
func (r *Relay) Kill(ctx context.Context) error {
	err := r.agg.Close(ctx) // SnapshotPath is empty: no snapshot happens
	r.snd.Disconnect()
	return err
}

// relayExtraState is the decoded Snapshot.Extra of a relay.
type relayExtraState struct {
	Shard   int
	ID      string
	UpEpoch uint64
	UpSeq   uint64
	Frames  []*stream.Frame
	snap    *stream.Snapshot // carrier, set by RestoreRelay
}

// The Extra blob layout (little-endian; its version and integrity are
// the outer snapshot's):
//
//	magic[4]="CSTR" shard:u32 idLen:u16 id
//	upEpoch:u64 upSeq:u64 frameCount:u32
//	{ window:u64 seq:u64 folds:u32 payloadLen:u32 payload }...
//
// Frames appear in strictly ascending seq order: the sender's queue,
// which is replay order.
var relayExtraMagic = [4]byte{'C', 'S', 'T', 'R'}

func encodeRelayExtra(shard int, id string, upEpoch, upSeq uint64, frames []*stream.Frame) ([]byte, error) {
	if len(id) > 0xffff {
		return nil, fmt.Errorf("tier: relay id %q too long to snapshot", id[:32]+"…")
	}
	b := make([]byte, 0, 64)
	b = append(b, relayExtraMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(shard))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(id)))
	b = append(b, id...)
	b = binary.LittleEndian.AppendUint64(b, upEpoch)
	b = binary.LittleEndian.AppendUint64(b, upSeq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(frames)))
	prev := uint64(0)
	for _, f := range frames {
		if f.Seq <= prev {
			return nil, fmt.Errorf("tier: relay frame seq %d out of order after %d", f.Seq, prev)
		}
		prev = f.Seq
		b = binary.LittleEndian.AppendUint64(b, f.Window)
		b = binary.LittleEndian.AppendUint64(b, f.Seq)
		b = binary.LittleEndian.AppendUint32(b, f.Folds)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Payload)))
		b = append(b, f.Payload...)
	}
	return b, nil
}

func decodeRelayExtra(data []byte) (*relayExtraState, error) {
	r := frame.Cursor{B: data}
	magic := r.Take(4)
	if r.Err == nil && string(magic) != string(relayExtraMagic[:]) {
		return nil, fmt.Errorf("tier: bad relay extra magic %q", magic)
	}
	st := &relayExtraState{Shard: int(r.U32())}
	st.ID = string(r.Take(int(r.U16())))
	st.UpEpoch = r.U64()
	st.UpSeq = r.U64()
	count := r.U32()
	prev := uint64(0)
	for i := uint32(0); i < count && r.Err == nil; i++ {
		f := &stream.Frame{
			Window: r.U64(),
			Seq:    r.U64(),
			Folds:  r.U32(),
		}
		payload := r.Take(int(r.U32()))
		if r.Err != nil {
			break
		}
		if f.Seq <= prev || f.Seq > st.UpSeq {
			return nil, fmt.Errorf("tier: relay extra frame seq %d out of order (prev %d, upSeq %d)", f.Seq, prev, st.UpSeq)
		}
		prev = f.Seq
		f.Payload = append([]byte(nil), payload...)
		st.Frames = append(st.Frames, f)
	}
	if r.Err != nil {
		return nil, fmt.Errorf("tier: relay extra: %w", r.Err)
	}
	if len(r.B) != 0 {
		return nil, fmt.Errorf("tier: relay extra has %d trailing bytes", len(r.B))
	}
	return st, nil
}
