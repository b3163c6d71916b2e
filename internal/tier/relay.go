package tier

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"csoutlier"
	"csoutlier/internal/frame"
	"csoutlier/internal/obs"
	"csoutlier/internal/stream"
)

// RelayOptions tunes a regional relay aggregator.
type RelayOptions struct {
	// ID names this relay in its parent's dedup books (required). The
	// wire identity is FrameID(Shard, Level, ID).
	ID string
	// Shard is the key-range shard this relay's tree serves.
	Shard int
	// Level is the relay's tier level (default 1; leaf nodes are
	// conceptually level 0, the root is the highest level).
	Level int
	// Upstream is the parent aggregator's push-listener address
	// (required).
	Upstream string
	// UpEpoch is the relay's upward incarnation (default 1). A volatile
	// relay that restarts from scratch MUST announce a higher epoch —
	// exactly the leaf-node restart rule, one level up. A durable relay
	// restored via RestoreRelay keeps its snapshotted epoch: its replayed
	// frames are byte-identical, so the parent's books dedup them.
	UpEpoch uint64
	// SnapshotPath, when non-empty, makes the relay durable: every
	// Forward persists an atomic-rename snapshot (the embedded
	// aggregator's fold state plus the upward-forwarding state in
	// Snapshot.Extra) before any upward frame becomes sendable.
	SnapshotPath string
	// Retain caps the upward replay-retention buffer (default 1024,
	// negative disables) — frames the parent acked but has not yet
	// declared durable, replayed if the parent restores from a snapshot.
	Retain int
	// DialTimeout/PushTimeout/BaseBackoff/MaxBackoff/BackoffSeed shape
	// the upstream connection exactly as stream.NodeOptions do.
	DialTimeout time.Duration
	PushTimeout time.Duration
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	BackoffSeed uint64
	// Metrics, when set, registers the tier_* families in this registry.
	Metrics *obs.Registry
	// Agg configures the embedded leaf-facing aggregator. SnapshotPath,
	// WindowEvery, and the snapshot hooks are overridden: the relay owns
	// its snapshot file (so the upward state is always captured with the
	// fold state) and its window clock (adopted from the parent, so the
	// whole tree shares the root's rotation).
	Agg stream.AggregatorOptions
}

func (o RelayOptions) withDefaults() RelayOptions {
	if o.Level == 0 {
		o.Level = 1
	}
	if o.UpEpoch == 0 {
		o.UpEpoch = 1
	}
	return o
}

// upAccum accumulates applied leaf deltas for one window since the
// last snapshot capture.
type upAccum struct {
	sketch csoutlier.Sketch
	folds  uint32
}

// RelayStats is a snapshot of a relay's upward-forwarding state. The
// delivery fields (Applied … RootStable, Queued, Retained) are the
// upward stream.Sender's books.
type RelayStats struct {
	Forwards        int64 // completed Forward cycles
	ForwardErrors   int64 // Forward cycles that failed (snapshot or drain)
	FramesStaged    int64 // upward frames created (seq assigned)
	FoldsStaged     int64 // leaf captures carried by staged frames
	FramesCommitted int64 // staged frames released by a snapshot commit
	Applied         int64 // upward frames the parent folded
	Duplicates      int64 // upward frames the parent had already processed
	Dropped         int64 // upward frames too old for the parent's ring
	Rejected        int64 // upward frames the parent refused
	Replayed        int64 // retained frames requeued after a parent restore
	RetainDropped   int64 // retained frames discarded at the Retain cap; a parent restore could lose each
	Redials         int64 // upstream connections re-established
	Unstable        int   // windows with accumulated-but-unsnapshotted deltas
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
// Exactly-once across the hop comes from a staging discipline tied to
// the embedded aggregator's snapshot atomicity:
//
//  1. SnapshotExtra (inside Snapshot's critical section) drains the
//     unstable accumulators into staged frames, assigning upward seqs
//     in ascending-window order, and encodes the full upward state
//     (epoch, seq counter, the sender's retained+queued frames and the
//     staged ones, with payloads) into Snapshot.Extra. The upward state
//     is therefore always captured atomically with the fold state that
//     produced it.
//  2. A durable relay persists the snapshot, then CommitSnapshot
//     releases staged frames to the sender (OnSnapshotCommit) in the
//     same call that advances the leaves' Stable watermarks. So a leaf
//     is told "your frame is durable" exactly when the upward frame
//     carrying it is on disk — one atomic durability event.
//  3. Every sendable frame's (seq → content) binding is a function of
//     committed snapshot state only: RestoreRelay re-derives
//     byte-identical frames, the parent's dedup books drop replayed
//     ones, and leaf-replayed deltas accumulate fresh (never reused)
//     seqs. Conservation holds through the tree: every leaf capture is
//     folded exactly once at the root or accounted shed on the way.
//
// Lock order: the aggregator's ingest mutex → fmu → the sender's lock. The sender's window
// callback (adoptRoot) runs under none of them.
type Relay struct {
	sk   *csoutlier.Sketcher
	opts RelayOptions
	name string // FrameID(shard, level, id)
	agg  *stream.Aggregator
	snd  *stream.Sender // committed frames: push, retain, replay

	fmu      sync.Mutex
	unstable map[uint64]*upAccum
	staged   []*stream.Frame
	upSeq    uint64
	stats    RelayStats // the staging counters; Stats adds the sender's

	metrics *relayMetrics
}

// NewRelay builds a relay, dials its parent, announces its upward
// identity and adopts the parent's current window — so the relay's
// leaf-facing window clock agrees with the root before the first leaf
// connects. Serve must be called to accept leaf pushes.
func NewRelay(ctx context.Context, sk *csoutlier.Sketcher, opts RelayOptions) (*Relay, error) {
	return buildRelay(ctx, sk, opts.withDefaults(), nil)
}

// buildRelay constructs the relay and its embedded aggregator with the
// hooks wired, then runs the upstream handshake; restored carries a
// decoded upward state (nil = fresh).
func buildRelay(ctx context.Context, sk *csoutlier.Sketcher, opts RelayOptions, restored *relayExtraState) (*Relay, error) {
	if opts.ID == "" {
		return nil, errors.New("tier: relay ID must be non-empty")
	}
	if opts.Upstream == "" {
		return nil, errors.New("tier: relay upstream address must be non-empty")
	}
	r := &Relay{
		sk:       sk,
		opts:     opts,
		name:     FrameID(opts.Shard, opts.Level, opts.ID),
		unstable: make(map[uint64]*upAccum),
	}
	var err error
	r.snd, err = stream.NewSender(opts.Upstream, r.name, stream.NodeOptions{
		Epoch:       opts.UpEpoch,
		Retain:      opts.Retain,
		DialTimeout: opts.DialTimeout,
		PushTimeout: opts.PushTimeout,
		BaseBackoff: opts.BaseBackoff,
		MaxBackoff:  opts.MaxBackoff,
		BackoffSeed: opts.BackoffSeed,
	}, r.adoptRoot)
	if err != nil {
		return nil, err
	}

	aopts := opts.Agg
	// The relay owns its snapshot file: the embedded aggregator must
	// never write one on its own (a snapshot not followed by the relay's
	// commit discipline would advance nothing), and must never rotate on
	// its own clock (windows are adopted from the parent).
	aopts.Durable = aopts.Durable || opts.SnapshotPath != ""
	aopts.SnapshotPath = ""
	aopts.SnapshotEvery = 0
	aopts.WindowEvery = 0
	aopts.OnApplied = r.onApplied
	aopts.SnapshotExtra = r.snapshotExtra
	aopts.OnSnapshotCommit = r.onSnapshotCommit
	if restored != nil {
		r.upSeq = restored.UpSeq
		for _, f := range restored.Frames {
			r.snd.Enqueue(f)
		}
		r.agg, err = stream.RestoreAggregator(sk, aopts, restored.snap)
	} else {
		r.agg, err = stream.NewAggregator(sk, aopts)
	}
	if err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		r.metrics = newRelayMetrics(opts.Metrics, r)
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
// for replay (the parent's books drop the ones it has). Like NewRelay
// it dials the parent and adopts the current window; call Sync to
// drain the replayed queue, BEFORE the leaves reconnect, so the window
// clock is current when their frames arrive.
func RestoreRelay(ctx context.Context, sk *csoutlier.Sketcher, opts RelayOptions, snap *stream.Snapshot) (*Relay, error) {
	opts = opts.withDefaults()
	st, err := decodeRelayExtra(snap.Extra)
	if err != nil {
		return nil, err
	}
	if st.Shard != opts.Shard || st.Level != opts.Level || st.ID != opts.ID {
		return nil, fmt.Errorf("tier: snapshot belongs to relay %s, not %s",
			FrameID(st.Shard, st.Level, st.ID), FrameID(opts.Shard, opts.Level, opts.ID))
	}
	opts.UpEpoch = st.UpEpoch
	st.snap = snap
	return buildRelay(ctx, sk, opts, st)
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
	s.Staged = len(r.staged)
	s.UpSeq = r.upSeq
	s.UpEpoch = r.opts.UpEpoch
	s.Applied, s.Duplicates, s.Dropped, s.Rejected = up.Applied, up.Duplicates, up.Dropped, up.Rejected
	s.Replayed, s.RetainDropped, s.Redials = up.Replayed, up.RetainDropped, up.Redials
	s.Queued, s.Retained = up.Pending, up.Retained
	s.RootEpoch, s.RootStable = up.AggEpoch, up.Stable
	return s
}

// onApplied mirrors one applied leaf delta into the window's upward
// accumulator. Runs under the aggregator mutex (so it can never race a
// snapshot capture of the same fold) and takes fmu inside it.
func (r *Relay) onApplied(window uint64, folds int, delta csoutlier.Sketch) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	acc, ok := r.unstable[window]
	if !ok {
		acc = &upAccum{sketch: r.sk.ZeroSketch()}
		r.unstable[window] = acc
	}
	// Add cannot fail: delta was decoded by the same sketcher that
	// built the accumulator, so the consensus identities match.
	if err := acc.sketch.Add(delta); err != nil {
		panic(fmt.Sprintf("tier: relay %s accumulator: %v", r.name, err))
	}
	acc.folds += uint32(folds)
}

// snapshotExtra drains the unstable accumulators into staged frames
// (assigning upward seqs in ascending-window order, so replay order is
// deterministic) and encodes the complete upward state. Runs inside
// the embedded aggregator's Snapshot critical section: the staged
// frames and the fold state they summarize are captured atomically.
func (r *Relay) snapshotExtra() ([]byte, error) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	windows := make([]uint64, 0, len(r.unstable))
	for w := range r.unstable {
		windows = append(windows, w)
	}
	for i := 1; i < len(windows); i++ { // insertion sort: few windows
		for j := i; j > 0 && windows[j] < windows[j-1]; j-- {
			windows[j], windows[j-1] = windows[j-1], windows[j]
		}
	}
	for _, w := range windows {
		acc := r.unstable[w]
		f := r.snd.Alloc() // a buffer some settled frame no longer needs, when there is one
		payload, err := acc.sketch.AppendBinary(f.Payload[:0])
		if err != nil {
			return nil, fmt.Errorf("tier: relay %s window %d: %w", r.name, w, err)
		}
		r.upSeq++
		*f = stream.Frame{Window: w, Seq: r.upSeq, Folds: acc.folds, Payload: payload}
		r.staged = append(r.staged, f)
		delete(r.unstable, w)
		r.stats.FramesStaged++
		r.stats.FoldsStaged += int64(acc.folds)
	}
	// Staging, above, is the relay's only Alloc and runs under fmu: the
	// listed frames hold still while they are encoded.
	return encodeRelayExtra(r.opts.Shard, r.opts.Level, r.opts.ID, r.opts.UpEpoch, r.upSeq,
		r.snd.Resendable(), r.staged)
}

// onSnapshotCommit releases staged frames covered by the committed
// snapshot to the sender. Frames staged after the capture (a
// concurrent fold can stage between capture and commit only via a
// later snapshot) stay staged for the next cycle.
func (r *Relay) onSnapshotCommit(extra []byte) {
	st, err := decodeRelayExtra(extra)
	if err != nil {
		return // not a relay snapshot (or corrupt): release nothing
	}
	r.fmu.Lock()
	defer r.fmu.Unlock()
	keep := r.staged[:0]
	for _, f := range r.staged {
		if f.Seq <= st.UpSeq {
			r.snd.Enqueue(f)
			r.stats.FramesCommitted++
		} else {
			keep = append(keep, f)
		}
	}
	r.staged = keep
}

// Forward runs one commit-and-drain cycle: capture a snapshot (staging
// the windows accumulated since the last one), persist it if the relay
// is durable, commit it (releasing the staged frames and advancing the
// leaves' Stable watermarks), then push every queued frame upstream
// until acked, adopting the parent's window from each ack. It is the
// relay's durability point, exactly as Flush is a node's.
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

// commitCycle captures, optionally persists, and commits one snapshot;
// the commit is what calls onSnapshotCommit.
func (r *Relay) commitCycle() error {
	var err error
	if r.opts.SnapshotPath != "" {
		err = r.agg.WriteSnapshot(r.opts.SnapshotPath)
	} else {
		var snap *stream.Snapshot
		if snap, err = r.agg.Snapshot(); err == nil {
			r.agg.CommitSnapshot(snap)
		}
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
	Shard, Level int
	ID           string
	UpEpoch      uint64
	UpSeq        uint64
	Frames       []*stream.Frame
	snap         *stream.Snapshot // carrier, set by RestoreRelay
}

// The Extra blob layout (little-endian; integrity comes from the outer
// snapshot CRC):
//
//	magic[4]="CSTR" ver:u16 shard:u32 level:u32 idLen:u16 id
//	upEpoch:u64 upSeq:u64 frameCount:u32
//	{ window:u64 seq:u64 folds:u32 payloadLen:u32 payload }...
//
// Frames appear in strictly ascending seq order: the sender's retained
// and queued ones, then the staged — which is replay order.
var relayExtraMagic = [4]byte{'C', 'S', 'T', 'R'}

const relayExtraVersion uint16 = 1

func encodeRelayExtra(shard, level int, id string, upEpoch, upSeq uint64, groups ...[]*stream.Frame) ([]byte, error) {
	if len(id) > 0xffff {
		return nil, fmt.Errorf("tier: relay id %q too long to snapshot", id[:32]+"…")
	}
	b := make([]byte, 0, 64)
	b = append(b, relayExtraMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, relayExtraVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(shard))
	b = binary.LittleEndian.AppendUint32(b, uint32(level))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(id)))
	b = append(b, id...)
	b = binary.LittleEndian.AppendUint64(b, upEpoch)
	b = binary.LittleEndian.AppendUint64(b, upSeq)
	count := 0
	for _, g := range groups {
		count += len(g)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(count))
	prev := uint64(0)
	for _, g := range groups {
		for _, f := range g {
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
	}
	return b, nil
}

func decodeRelayExtra(data []byte) (*relayExtraState, error) {
	r := frame.Cursor{B: data}
	magic := r.Take(4)
	if r.Err == nil && string(magic) != string(relayExtraMagic[:]) {
		return nil, fmt.Errorf("tier: bad relay extra magic %q", magic)
	}
	if v := r.U16(); r.Err == nil && v != relayExtraVersion {
		return nil, fmt.Errorf("tier: relay extra version %d (supported: %d)", v, relayExtraVersion)
	}
	st := &relayExtraState{
		Shard: int(r.U32()),
		Level: int(r.U32()),
	}
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
