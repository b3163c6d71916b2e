package stream

// Snapshot/restore: the durability half of the streaming service. An
// aggregator's entire fold state is tiny — M floats per window plus the
// per-(node, epoch) dedup books — so a snapshot is a single small blob
// written with the classic tmp + fsync + atomic-rename discipline, and
// a restore is exact: the window ring comes back Float64bits-identical
// and the dedup books still refuse every already-folded frame.
//
// The recovery contract has three parts:
//
//  1. The aggregator snapshots after every rotation (and on a timer and
//     at Close), committing each snapshot by advancing the per-node
//     Stable watermark it acks — "everything up to seq S is durable".
//  2. Nodes retain acked frames above the watermark (Node's retention
//     buffer) — the frames an aggregator crash could lose.
//  3. A restored aggregator announces a bumped AggEpoch in every ack;
//     nodes that see it increase replay their retained frames. The
//     restored dedup books drop the already-snapshotted ones as
//     duplicates and fold the lost ones exactly once.
//
// Binary layout (all integers little-endian, "CSNP" magic, versioned,
// CRC32-IEEE over everything before the trailer):
//
//	magic[4] version:u16
//	aggEpoch:u64 window:u64 membership:u64
//	capacity:u32 windowCount:u32 { len:u32 sketchCodecBytes }...
//	nodeCount:u32 { node }...
//	tombCount:u32 { node }...
//	extraLen:u32 extraBytes...     (version 2 only)
//	crc:u32
//
// Version 1 and version 2 differ only in the opaque Extra blob an
// embedder (internal/tier's relay) snapshots alongside the fold state.
// The encoding is canonical both ways: a snapshot without Extra is
// always written as version 1 (byte-identical to the v1 codec), and a
// version-2 blob with extraLen == 0 is rejected.
//
// where each node is
//
//	nameLen:u16 name state:u8 epoch:u64 base:u64
//	aheadCount:u32 { seq:u64 }...   (strictly ascending, all > base)
//	lastWindow:u64 applied:u64 duplicates:u64 dropped:u64 rejected:u64
//	restarts:u64 shedFrames:u64 shedFolds:u64
//
// Window payloads reuse the csoutlier sketch codec, so every window
// carries the full consensus identity (M, N, seed, ensemble) and its
// own CRC — a snapshot restored under the wrong Sketcher is rejected,
// not folded.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"csoutlier"
	"csoutlier/internal/frame"
)

// snapMagic/snapVersion identify the snapshot codec.
var snapMagic = [4]byte{'C', 'S', 'N', 'P'}

const (
	snapVersion      uint16 = 1 // no Extra
	snapVersionExtra uint16 = 2 // trailing opaque Extra blob
)

// SnapNode is one node's membership + dedup state in a snapshot: its
// NodeStatus (LastSeen, Lag and Stable are a running aggregator's view
// and are not encoded; a restore sets Stable = Base) plus the
// seqTracker — every seq in [1, Base] processed, and the sparse sorted
// set processed ahead of that low-water mark.
type SnapNode struct {
	NodeStatus
	Base  uint64
	Ahead []uint64
}

// Snapshot is a point-in-time copy of an aggregator's fold state.
type Snapshot struct {
	AggEpoch   uint64
	Window     uint64 // current window ID at capture
	Membership uint64 // membership version at capture
	Capacity   int    // window ring capacity
	// Windows holds the sketch-codec bytes of every filled window,
	// oldest first; the last entry is the open window.
	Windows [][]byte
	Nodes   []SnapNode // live members
	Tombs   []SnapNode // retired members (left/evicted)
	// Extra is an opaque embedder blob captured atomically with the fold
	// state (AggregatorOptions.SnapshotExtra) and handed back when the
	// snapshot commits (OnSnapshotCommit). internal/tier stores a relay's
	// upward-forwarding state here, so "leaf frame folded" and "upward
	// frame staged" are always the same durability event.
	Extra []byte
}

// Snapshot captures the aggregator's fold state under one mutex
// acquisition — the dedup books and the window ring are read in the
// same critical section a fold writes them in, so the copy can
// never be torn (a frame is either fully in the snapshot, dedup mark
// and sketch addition both, or fully absent). The pause is O(windows·M
// + nodes) and is recorded in stream_snapshot_seconds.
func (a *Aggregator) Snapshot() (*Snapshot, error) {
	start := time.Now()
	in := &a.in
	in.mu.Lock()
	defer in.mu.Unlock()
	snap := &Snapshot{
		AggEpoch:   in.epoch,
		Window:     in.window,
		Membership: in.members.version,
		Capacity:   in.ws.Windows(),
		Nodes:      snapNodes(in.members.nodes),
		Tombs:      snapNodes(in.members.tombs),
	}
	avail := in.ws.Available()
	snap.Windows = make([][]byte, 0, avail)
	for age := avail - 1; age >= 0; age-- {
		var b []byte
		w, err := in.ws.Window(age)
		if err == nil {
			b, err = w.MarshalBinary()
		}
		if err != nil {
			return nil, fmt.Errorf("stream: snapshot window age %d: %w", age, err)
		}
		snap.Windows = append(snap.Windows, b)
	}
	if fn := a.opts.SnapshotExtra; fn != nil {
		extra, err := fn()
		if err != nil {
			return nil, fmt.Errorf("stream: snapshot extra: %w", err)
		}
		snap.Extra = extra
	}
	a.metrics.snapshotSeconds.Observe(time.Since(start).Seconds())
	return snap, nil
}

// CommitSnapshot marks snap as durable: every live node whose epoch the
// snapshot covers has its Stable watermark advanced to the snapshot's
// dedup base, so subsequent acks let the node trim its replay-retention
// buffer. Call it after the snapshot bytes are safely on disk (or
// wherever they need to be); WriteSnapshot does.
func (a *Aggregator) CommitSnapshot(snap *Snapshot) {
	a.in.mu.Lock()
	for _, sn := range snap.Nodes {
		if ns, ok := a.in.members.nodes[sn.Node]; ok && ns.status.Epoch == sn.Epoch && sn.Base > ns.status.Stable {
			ns.status.Stable = sn.Base
		}
	}
	a.in.mu.Unlock()
	a.metrics.snapshots.Inc()
	if fn := a.opts.OnSnapshotCommit; fn != nil {
		fn(snap.Extra)
	}
}

// WriteSnapshot captures, encodes and atomically persists a snapshot:
// write to a temp file in the target directory, fsync, rename over
// path. A crash mid-write leaves the previous snapshot intact — the
// file at path is always a complete, CRC-valid blob. On success the
// snapshot is committed (nodes' Stable watermarks advance).
//
// The whole capture→write→rename→commit sequence runs under snapMu:
// concurrent callers (the rotation loop, the periodic snapshot loop,
// Close) are serialized, so the snapshot on disk is always at least as
// new as the latest committed dedup base — the commit that lets nodes
// trim their replay-retention buffers can never outrun the rename.
func (a *Aggregator) WriteSnapshot(path string) error {
	a.life.snapMu.Lock()
	defer a.life.snapMu.Unlock()
	snap, err := a.Snapshot()
	if err != nil {
		return err
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("stream: snapshot: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("stream: snapshot %s: %w", path, err)
	}
	a.CommitSnapshot(snap)
	a.metrics.snapshotBytes.SetInt(int64(len(data)))
	return nil
}

// maybeSnapshot writes a snapshot to the configured path, if any,
// recording success/failure in the stream_snapshot_* families. A
// failure is also logged: a silently stale snapshot is a durability
// loss an operator must hear about before the next crash, not after.
func (a *Aggregator) maybeSnapshot() error {
	if a.opts.SnapshotPath == "" {
		return nil
	}
	err := a.WriteSnapshot(a.opts.SnapshotPath)
	if err != nil {
		a.metrics.snapshotErrors.Inc()
		log.Printf("stream: snapshot write failed (durability stale): %v", err)
	}
	return err
}

// LoadSnapshot reads and decodes a snapshot file.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("stream: snapshot %s: %w", path, err)
	}
	return snap, nil
}

// MarshalBinary encodes the snapshot. The encoding is canonical
// (nodes and ahead sets sorted), so encode∘decode is the identity on
// the bytes DecodeSnapshot accepts.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	if s.Capacity < 1 || len(s.Windows) < 1 || len(s.Windows) > s.Capacity {
		return nil, fmt.Errorf("stream: snapshot has %d windows for capacity %d", len(s.Windows), s.Capacity)
	}
	size := 4 + 2 + 8*3 + 4 + 4
	for _, w := range s.Windows {
		size += 4 + len(w)
	}
	version := snapVersion
	if len(s.Extra) > 0 {
		version = snapVersionExtra
	}
	b := make([]byte, 0, size)
	b = append(b, snapMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, version)
	b = binary.LittleEndian.AppendUint64(b, s.AggEpoch)
	b = binary.LittleEndian.AppendUint64(b, s.Window)
	b = binary.LittleEndian.AppendUint64(b, s.Membership)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.Capacity))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Windows)))
	for _, w := range s.Windows {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(w)))
		b = append(b, w...)
	}
	for _, group := range [][]SnapNode{s.Nodes, s.Tombs} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(group)))
		for i := range group {
			var err error
			if b, err = appendSnapNode(b, &group[i]); err != nil {
				return nil, err
			}
		}
	}
	if version == snapVersionExtra {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Extra)))
		b = append(b, s.Extra...)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return b, nil
}

func appendSnapNode(b []byte, sn *SnapNode) ([]byte, error) {
	if len(sn.Node) > 0xffff {
		return nil, fmt.Errorf("stream: node name %q too long to snapshot", sn.Node[:32]+"…")
	}
	state, err := encodeState(sn.State)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(sn.Node)))
	b = append(b, sn.Node...)
	b = append(b, state)
	b = binary.LittleEndian.AppendUint64(b, sn.Epoch)
	b = binary.LittleEndian.AppendUint64(b, sn.Base)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sn.Ahead)))
	for _, seq := range sn.Ahead {
		b = binary.LittleEndian.AppendUint64(b, seq)
	}
	b = binary.LittleEndian.AppendUint64(b, sn.LastWindow)
	for _, v := range []int64{sn.Applied, sn.Duplicates, sn.Dropped, sn.Rejected, sn.Restarts, sn.ShedFrames, sn.ShedFolds} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b, nil
}

func encodeState(state string) (byte, error) {
	switch state {
	case StateLive, "":
		return 0, nil
	case StateLeft:
		return 1, nil
	case StateEvicted:
		return 2, nil
	}
	return 0, fmt.Errorf("stream: unknown node state %q", state)
}

func decodeState(b byte) (string, error) {
	switch b {
	case 0:
		return StateLive, nil
	case 1:
		return StateLeft, nil
	case 2:
		return StateEvicted, nil
	}
	return "", fmt.Errorf("stream: unknown node state byte %d", b)
}

// errSnapTruncated reports a snapshot blob that ends inside a field.
var errSnapTruncated = errors.New("stream: snapshot truncated")

// DecodeSnapshot decodes and validates a snapshot blob. Truncated,
// corrupt (CRC), wrong-version and non-canonical inputs are rejected
// with an error — never a panic, never an unbounded allocation.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < 4+2+4 {
		return nil, errSnapTruncated
	}
	if string(data[:4]) != string(snapMagic[:]) {
		return nil, fmt.Errorf("stream: bad snapshot magic %q", data[:4])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc := crc32.ChecksumIEEE(body); crc != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("stream: snapshot CRC mismatch (stored %08x, computed %08x)", binary.LittleEndian.Uint32(trailer), crc)
	}
	r := &frame.Cursor{B: body[4:]}
	version := r.U16()
	if version != snapVersion && version != snapVersionExtra {
		return nil, fmt.Errorf("stream: snapshot version %d (supported: %d, %d)", version, snapVersion, snapVersionExtra)
	}
	s := &Snapshot{
		AggEpoch:   r.U64(),
		Window:     r.U64(),
		Membership: r.U64(),
	}
	capacity := r.U32()
	windows := r.U32()
	if r.Err == nil && (capacity < 1 || windows < 1 || windows > capacity || capacity > 1<<20) {
		return nil, fmt.Errorf("stream: snapshot has %d windows for capacity %d", windows, capacity)
	}
	s.Capacity = int(capacity)
	for i := uint32(0); i < windows && r.Err == nil; i++ {
		n := r.U32()
		w := r.Take(int(n))
		if r.Err == nil {
			cp := make([]byte, len(w))
			copy(cp, w)
			s.Windows = append(s.Windows, cp)
		}
	}
	for _, dst := range []*[]SnapNode{&s.Nodes, &s.Tombs} {
		count := r.U32()
		for i := uint32(0); i < count && r.Err == nil; i++ {
			sn, err := decodeSnapNode(r)
			if err != nil {
				return nil, err
			}
			if r.Err == nil {
				*dst = append(*dst, sn)
			}
		}
	}
	if version == snapVersionExtra {
		n := r.U32()
		if r.Err == nil && n == 0 {
			// Canonical form: an empty Extra is encoded as version 1.
			return nil, errors.New("stream: version-2 snapshot with empty extra")
		}
		extra := r.Take(int(n))
		if r.Err == nil {
			s.Extra = append([]byte(nil), extra...)
		}
	}
	if r.Err != nil {
		return nil, errSnapTruncated
	}
	if len(r.B) != 0 {
		return nil, fmt.Errorf("stream: snapshot has %d trailing bytes", len(r.B))
	}
	return s, nil
}

func decodeSnapNode(r *frame.Cursor) (SnapNode, error) {
	var sn SnapNode
	nameLen := r.U16()
	sn.Node = string(r.Take(int(nameLen)))
	stateByte := r.Take(1)
	if r.Err != nil {
		return sn, nil
	}
	state, err := decodeState(stateByte[0])
	if err != nil {
		return sn, err
	}
	sn.State = state
	sn.Epoch = r.U64()
	sn.Base = r.U64()
	aheadCount := r.U32()
	prev := sn.Base
	for i := uint32(0); i < aheadCount && r.Err == nil; i++ {
		seq := r.U64()
		if r.Err != nil {
			break
		}
		// Canonical form: strictly ascending, all above the low-water
		// mark. (The tracker would have absorbed anything ≤ base.)
		if seq <= prev {
			return sn, fmt.Errorf("stream: snapshot node %s: non-canonical ahead set (%d after %d)", sn.Node, seq, prev)
		}
		prev = seq
		sn.Ahead = append(sn.Ahead, seq)
	}
	sn.LastWindow = r.U64()
	for _, dst := range []*int64{&sn.Applied, &sn.Duplicates, &sn.Dropped, &sn.Rejected, &sn.Restarts, &sn.ShedFrames, &sn.ShedFolds} {
		*dst = int64(r.U64())
	}
	return sn, nil
}

// RestoreAggregator builds a new aggregator from a snapshot: the window
// ring comes back Float64bits-identical, the dedup books still refuse
// every frame the snapshot covers, and the membership (including
// tombstones) survives. The restored aggregator announces AggEpoch =
// snapshot's + 1, which is what tells reconnecting nodes to replay
// their retained frames. opts.Windows is taken from the snapshot; the
// sketcher must be the same consensus the snapshot's windows were
// measured under (a mismatch is rejected by the sketch codec).
func RestoreAggregator(sk *csoutlier.Sketcher, opts AggregatorOptions, snap *Snapshot) (*Aggregator, error) {
	if snap.Capacity < 1 || len(snap.Windows) < 1 || len(snap.Windows) > snap.Capacity {
		return nil, fmt.Errorf("stream: snapshot has %d windows for capacity %d", len(snap.Windows), snap.Capacity)
	}
	// Window IDs count from 1 and advance with every rotation, so a ring
	// holding len(Windows) windows implies Window ≥ len(Windows); the
	// rotation count Window-1 is what keeps WindowStore.Rotations()
	// monotonic across the restore.
	if snap.Window < uint64(len(snap.Windows)) || snap.Window > math.MaxInt64 {
		return nil, fmt.Errorf("stream: snapshot window counter %d inconsistent with %d restored windows", snap.Window, len(snap.Windows))
	}
	sketches := make([]csoutlier.Sketch, len(snap.Windows))
	for i, b := range snap.Windows {
		s, err := csoutlier.DecodeSketch(b)
		if err != nil {
			return nil, fmt.Errorf("stream: snapshot window %d: %w", i, err)
		}
		sketches[i] = s
	}
	opts.Windows = snap.Capacity
	opts.AggEpoch = snap.AggEpoch + 1
	opts.Durable = true
	a, err := NewAggregator(sk, opts)
	if err != nil {
		return nil, err
	}
	err = a.in.ws.RestoreWindows(sketches, int64(snap.Window-1))
	if err != nil {
		err = fmt.Errorf("stream: snapshot restore: %w", err)
	} else {
		a.in.mu.Lock()
		a.in.window = snap.Window
		err = a.in.members.restore(snap)
		a.in.mu.Unlock()
	}
	if err != nil {
		a.Close(context.Background())
		return nil, err
	}
	return a, nil
}
