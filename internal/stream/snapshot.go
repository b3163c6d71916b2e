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
//	crc:u32
//
// Each node is
//
//	nameLen:u16 name state:u8 epoch:u64 base:u64
//	lastWindow:u64 applied:u64 duplicates:u64 dropped:u64 rejected:u64
//	restarts:u64 shedFrames:u64 shedFolds:u64
//	cutCount:u32 { nameLen:u16 name epoch:u64 base:u64 }...
//
// where state (0 live, 1 left, 2 evicted) says whether the member is
// live or retired, base is its dedup book, one number, and the cut is a
// relay's merged leaf cut (empty for a leaf). Every name is listed once,
// a list is in name order, and nodeCount and cutCount are each at most
// maxMembers, a book's limit.
//
// Window payloads reuse the csoutlier sketch codec, so every window
// carries the full consensus identity (M, N, seed, ensemble) and its
// own CRC — a snapshot restored under the wrong Sketcher is rejected,
// not folded.

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"csoutlier"
	"csoutlier/internal/frame"
)

// snapMagic/snapVersion identify the snapshot codec.
var snapMagic = [4]byte{'C', 'S', 'N', 'P'}

const snapVersion uint16 = 6

// SnapNode is one node's membership + dedup state in a snapshot: its
// NodeStatus (LastSeen, Lag and Stable are a running aggregator's view
// and are not encoded; a restore sets Stable = Base) plus its dedup
// base, the highest seq processed, and for a relay its merged cut. The
// same type is an entry of a cut — a node's name, epoch and Base, the
// highest seq of that epoch a relay's frames summed.
type SnapNode struct {
	NodeStatus
	Base uint64
	Cut  []SnapNode // a relay's, by name
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
	Nodes   []SnapNode // every member, live and retired, by name
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
		AggEpoch:   in.bk.epoch,
		Window:     in.bk.window,
		Membership: in.bk.version,
		Capacity:   in.ws.Windows(),
		Nodes:      in.bk.cut(),
	}
	// Every window is encoded straight from its ring slot into one buffer
	// the entries share.
	avail := in.ws.Available()
	snap.Windows = make([][]byte, 0, avail)
	buf := make([]byte, 0, avail*csoutlier.EncodedSketchLen(a.sk.M()))
	for age := avail - 1; age >= 0; age-- {
		start := len(buf)
		var err error
		if buf, err = in.ws.AppendWindow(buf, age); err != nil {
			return nil, fmt.Errorf("stream: snapshot window age %d: %w", age, err)
		}
		snap.Windows = append(snap.Windows, buf[start:len(buf):len(buf)])
	}
	a.metrics.snapshotSeconds.Observe(time.Since(start).Seconds())
	return snap, nil
}

// Commit raises the Stable watermark of every node cut names at its
// current epoch to the cut's Base, so subsequent acks let the node trim
// its replay-retention buffer: a snapshot's Nodes once its bytes are
// safely on disk (WriteSnapshot commits them), or at a tier relay the
// cuts of the upward frames its root declared durable.
func (a *Aggregator) Commit(cut []SnapNode) {
	a.in.mu.Lock()
	a.in.bk.commit(cut)
	a.in.mu.Unlock()
	a.metrics.snapshots.Inc()
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
	a.Commit(snap.Nodes)
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
// (nodes sorted), so encode∘decode is the identity on the bytes
// DecodeSnapshot accepts.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	if s.Capacity < 1 || len(s.Windows) < 1 || len(s.Windows) > s.Capacity {
		return nil, fmt.Errorf("stream: snapshot has %d windows for capacity %d", len(s.Windows), s.Capacity)
	}
	size := 4 + 2 + 8*3 + 4 + 4 + 4 + 4
	for _, w := range s.Windows {
		size += 4 + len(w)
	}
	b := make([]byte, 0, size)
	b = append(b, snapMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, snapVersion)
	b = binary.LittleEndian.AppendUint64(b, s.AggEpoch)
	b = binary.LittleEndian.AppendUint64(b, s.Window)
	b = binary.LittleEndian.AppendUint64(b, s.Membership)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.Capacity))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Windows)))
	for _, w := range s.Windows {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(w)))
		b = append(b, w...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Nodes)))
	for i := range s.Nodes {
		var err error
		if b, err = appendSnapNode(b, &s.Nodes[i]); err != nil {
			return nil, err
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return b, nil
}

func appendSnapNode(b []byte, sn *SnapNode) ([]byte, error) {
	state := slices.Index(snapStates[:], cmp.Or(sn.State, StateLive))
	if state < 0 {
		return nil, fmt.Errorf("stream: unknown node state %q", sn.State)
	}
	b, err := appendSnapName(b, sn)
	if err != nil {
		return nil, err
	}
	b = append(b, byte(state))
	b = binary.LittleEndian.AppendUint64(b, sn.Epoch)
	b = binary.LittleEndian.AppendUint64(b, sn.Base)
	b = binary.LittleEndian.AppendUint64(b, sn.LastWindow)
	for _, v := range []int64{sn.Applied, sn.Duplicates, sn.Dropped, sn.Rejected, sn.Restarts, sn.ShedFrames, sn.ShedFolds} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sn.Cut)))
	for i := range sn.Cut {
		if b, err = appendSnapName(b, &sn.Cut[i]); err != nil {
			return nil, err
		}
		b = binary.LittleEndian.AppendUint64(b, sn.Cut[i].Epoch)
		b = binary.LittleEndian.AppendUint64(b, sn.Cut[i].Base)
	}
	return b, nil
}

func appendSnapName(b []byte, sn *SnapNode) ([]byte, error) {
	if len(sn.Node) > 0xffff {
		return nil, fmt.Errorf("stream: node name %q too long to snapshot", sn.Node[:32]+"…")
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(sn.Node)))
	return append(b, sn.Node...), nil
}

// snapStates are the node states by their snapshot byte.
var snapStates = [...]string{StateLive, StateLeft, stateEvicted}

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
	if version := r.U16(); version != snapVersion {
		return nil, fmt.Errorf("stream: snapshot version %d (supported: %d)", version, snapVersion)
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
	var err error
	if s.Nodes, err = decodeSnapList(r, decodeSnapNode); err != nil {
		return nil, err
	}
	if r.Err != nil {
		return nil, errSnapTruncated
	}
	if len(r.B) != 0 {
		return nil, fmt.Errorf("stream: snapshot has %d trailing bytes", len(r.B))
	}
	return s, nil
}

// decodeSnapList reads a count and that many entries, each named once
// and in order, at most maxMembers of them.
func decodeSnapList(r *frame.Cursor, entry func(*frame.Cursor) (SnapNode, error)) ([]SnapNode, error) {
	count := r.U32()
	if r.Err == nil && count > maxMembers {
		return nil, fmt.Errorf("stream: snapshot lists %d nodes (at most %d)", count, maxMembers)
	}
	var list []SnapNode
	for i := uint32(0); i < count && r.Err == nil; i++ {
		sn, err := entry(r)
		if err != nil || r.Err != nil {
			return nil, err
		}
		if i > 0 && sn.Node <= list[i-1].Node {
			return nil, fmt.Errorf("stream: snapshot lists node %q after %q: names are listed once, in order", sn.Node, list[i-1].Node)
		}
		list = append(list, sn)
	}
	return list, nil
}

func decodeSnapNode(r *frame.Cursor) (SnapNode, error) {
	var sn SnapNode
	nameLen := r.U16()
	sn.Node = string(r.Take(int(nameLen)))
	stateByte := r.Take(1)
	if r.Err != nil {
		return sn, nil
	}
	if int(stateByte[0]) >= len(snapStates) {
		return sn, fmt.Errorf("stream: unknown node state byte %d", stateByte[0])
	}
	sn.State = snapStates[stateByte[0]]
	sn.Epoch = r.U64()
	sn.Base = r.U64()
	sn.LastWindow = r.U64()
	for _, dst := range []*int64{&sn.Applied, &sn.Duplicates, &sn.Dropped, &sn.Rejected, &sn.Restarts, &sn.ShedFrames, &sn.ShedFolds} {
		*dst = int64(r.U64())
	}
	var err error
	sn.Cut, err = decodeSnapList(r, func(r *frame.Cursor) (SnapNode, error) {
		name := string(r.Take(int(r.U16())))
		return SnapNode{NodeStatus: NodeStatus{Node: name, Epoch: r.U64()}, Base: r.U64()}, nil
	})
	return sn, err
}

// RestoreAggregator builds a new aggregator from a snapshot: the window
// ring comes back Float64bits-identical, the dedup books still refuse
// every frame the snapshot covers, and the membership (retired members
// included) survives. The restored aggregator announces AggEpoch =
// snapshot's + 1, which is what tells reconnecting nodes to replay
// their retained frames. With a SnapshotPath it writes that bumped
// incarnation there before it returns, so a second crash before any
// other snapshot restores to a higher one still: nodes replay only to an
// AggEpoch they have not seen. opts.Windows is taken from the snapshot;
// the sketcher must be the same consensus the snapshot's windows were
// measured under (a mismatch is rejected by the sketch codec). A
// snapshot with no windows and no capacity — a relay's seed, its root's
// cut (tier.NewRelay) — restores its books alone, into an empty ring of
// opts.Windows; a snapshot file always holds a window.
func RestoreAggregator(sk *csoutlier.Sketcher, opts AggregatorOptions, snap *Snapshot) (*Aggregator, error) {
	seed := snap.Capacity == 0 && len(snap.Windows) == 0
	if !seed && (snap.Capacity < 1 || len(snap.Windows) < 1 || len(snap.Windows) > snap.Capacity) {
		return nil, fmt.Errorf("stream: snapshot has %d windows for capacity %d", len(snap.Windows), snap.Capacity)
	}
	// Window IDs count from 1 and advance with every rotation, so a ring
	// holding len(Windows) windows implies Window ≥ len(Windows). The
	// counter is exported as the int64 stream_window gauge, so one past
	// MaxInt64 is refused too.
	if snap.Window < uint64(max(len(snap.Windows), 1)) || snap.Window > math.MaxInt64 {
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
	if !seed {
		opts.Windows = snap.Capacity
	}
	opts.Durable = true
	a, err := newAggregator(sk, opts, snap.AggEpoch+1)
	if err != nil {
		return nil, err
	}
	if !seed {
		err = a.in.ws.RestoreWindows(sketches)
	}
	if err != nil {
		err = fmt.Errorf("stream: snapshot restore: %w", err)
	} else {
		a.in.mu.Lock()
		a.in.bk.window, a.in.bk.version = snap.Window, snap.Membership
		err = a.in.bk.restore(snap.Nodes, time.Now())
		a.in.mu.Unlock()
	}
	if err == nil && opts.SnapshotPath != "" {
		err = a.WriteSnapshot(opts.SnapshotPath)
	}
	if err != nil {
		a.Close(context.Background())
		return nil, err
	}
	return a, nil
}
