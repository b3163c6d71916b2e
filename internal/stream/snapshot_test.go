package stream

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"csoutlier"
	"csoutlier/internal/xrand"
	"csoutlier/internal/xrand/xrandtest"
)

// randSnapshot builds a random-but-valid Snapshot: random window byte
// blobs (the codec does not interpret them), random node names, dedup
// marks, every state, and counter values across the int64 range.
func randSnapshot(rng *xrand.RNG) *Snapshot {
	s := &Snapshot{
		AggEpoch:   rng.Uint64(),
		Window:     rng.Uint64(),
		Membership: rng.Uint64(),
		Capacity:   1 + rng.Intn(12),
	}
	nwin := 1 + rng.Intn(s.Capacity)
	for i := 0; i < nwin; i++ {
		b := make([]byte, rng.Intn(64))
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		s.Windows = append(s.Windows, b)
	}
	states := []string{StateLive, StateLeft, stateEvicted}
	randNode := func(i int, tomb bool) SnapNode {
		sn := SnapNode{NodeStatus: NodeStatus{
			Node:  fmt.Sprintf("node%02d-%x", i, rng.Uint64()&0xffff),
			State: StateLive,
			Epoch: 1 + rng.Uint64()%1000,
		}}
		sn.Base = rng.Uint64() % 10000
		sn.LastWindow = rng.Uint64() % 100
		sn.Applied = int64(rng.Uint64())
		sn.Duplicates = int64(rng.Uint64())
		sn.Dropped = int64(rng.Uint64())
		sn.Rejected = int64(rng.Uint64())
		sn.Restarts = int64(rng.Uint64())
		sn.ShedFrames = int64(rng.Uint64())
		sn.ShedFolds = int64(rng.Uint64())
		if tomb {
			sn.State = states[1+rng.Intn(2)]
		}
		return sn
	}
	for i := rng.Intn(5); i > 0; i-- {
		s.Nodes = append(s.Nodes, randNode(len(s.Nodes), false))
	}
	for i := rng.Intn(3); i > 0; i-- {
		s.Nodes = append(s.Nodes, randNode(100+len(s.Nodes), true))
	}
	// Some nodes are relays and carry the merged cut of their leaves.
	for i := range s.Nodes {
		for j := rng.Intn(4) - 1; j > 0; j-- {
			leaf := SnapNode{NodeStatus: NodeStatus{Node: fmt.Sprintf("leaf%02d", len(s.Nodes[i].Cut)), Epoch: rng.Uint64()}, Base: rng.Uint64()}
			s.Nodes[i].Cut = append(s.Nodes[i].Cut, leaf)
		}
	}
	return s
}

// TestSnapshotCodecRoundTrip is the property test: encode→decode is the
// identity on Snapshot values, and decode→encode is the identity on the
// bytes (the encoding is canonical).
func TestSnapshotCodecRoundTrip(t *testing.T) {
	rng := xrandtest.New(t, 20260808)
	for i := 0; i < 200; i++ {
		want := randSnapshot(rng)
		data, err := want.MarshalBinary()
		if err != nil {
			t.Fatalf("case %d: MarshalBinary: %v", i, err)
		}
		got, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("case %d: DecodeSnapshot: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: decode mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("case %d: re-marshal: %v", i, err)
		}
		if string(again) != string(data) {
			t.Fatalf("case %d: re-encode differs from original bytes", i)
		}
	}
}

// TestSnapshotDecodeRejects pins the failure modes the codec must catch
// without panicking: truncation at every length, bit corruption
// everywhere (the CRC), trailing junk, and a blob of another version or
// of more nodes than a book holds, refused by that number.
func TestSnapshotDecodeRejects(t *testing.T) {
	rng := xrandtest.New(t, 99)
	snap := randSnapshot(rng)
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("single-bit corruption at byte %d decoded", i)
		}
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}

	// A name listed twice — what a live member and a tombstone of the
	// same name were in the two lists of version 3 — is refused, and so
	// is any other order but by name.
	twice := &Snapshot{AggEpoch: 1, Window: 1, Capacity: 1, Windows: [][]byte{{1}}}
	for _, state := range []string{StateLive, StateLeft} {
		twice.Nodes = append(twice.Nodes, SnapNode{NodeStatus: NodeStatus{Node: "alpha", State: state, Epoch: 1}})
	}
	if blob, err := twice.MarshalBinary(); err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	} else if _, err := DecodeSnapshot(blob); err == nil || !strings.Contains(err.Error(), `node "alpha" after "alpha"`) {
		t.Fatalf("a name listed twice: err %v, want it refused by name", err)
	}

	// So is a relay's cut that names a leaf twice.
	relay := &Snapshot{AggEpoch: 1, Window: 1, Capacity: 1, Windows: [][]byte{{1}}, Nodes: []SnapNode{{NodeStatus: NodeStatus{Node: "relay", Epoch: 1}}}}
	for seq := uint64(1); seq <= 2; seq++ {
		relay.Nodes[0].Cut = append(relay.Nodes[0].Cut, SnapNode{NodeStatus: NodeStatus{Node: "leaf", Epoch: 1}, Base: seq})
	}
	if blob, err := relay.MarshalBinary(); err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	} else if _, err := DecodeSnapshot(blob); err == nil || !strings.Contains(err.Error(), `node "leaf" after "leaf"`) {
		t.Fatalf("a cut naming a leaf twice: err %v, want it refused by name", err)
	}

	// More nodes than a book holds are refused by number before any is
	// read, so a restored book keeps its limit, and so are more leaves in
	// a cut: a blob ends count:u32 crc:u32 when the list it counts is
	// empty, the nodes of a node-less one or the cut of its last node.
	relay.Nodes[0].Cut = nil
	for _, snap := range []*Snapshot{{AggEpoch: 1, Window: 1, Capacity: 1, Windows: [][]byte{{1}}}, relay} {
		empty, err := snap.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		over := empty[:len(empty)-4]
		binary.LittleEndian.PutUint32(over[len(over)-4:], maxMembers+1)
		over = binary.LittleEndian.AppendUint32(over, crc32.ChecksumIEEE(over))
		want := fmt.Sprintf("stream: snapshot lists %d nodes (at most %d)", maxMembers+1, maxMembers)
		if _, err := DecodeSnapshot(over); err == nil || err.Error() != want {
			t.Fatalf("%d nodes in a list of %d members: err %v, want %q", maxMembers+1, len(snap.Nodes), err, want)
		}
	}

	// Versions 1 to 5, and the next, under a valid CRC are refused by
	// their number, whatever their layout (version 4 held integer
	// windows as float64s, version 5 an embedder blob and no cuts).
	for _, v := range []uint16{1, 2, 3, 4, 5, snapVersion + 1} {
		old := append([]byte(nil), data[:len(data)-4]...)
		binary.LittleEndian.PutUint16(old[4:], v)
		old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
		want := fmt.Sprintf("stream: snapshot version %d (supported: %d)", v, snapVersion)
		if _, err := DecodeSnapshot(old); err == nil || err.Error() != want {
			t.Fatalf("version %d: err %v, want %q", v, err, want)
		}
	}
}

// FuzzSnapshotDecode: no input may panic the decoder, and any accepted
// input must re-encode to the identical bytes (canonical form).
func FuzzSnapshotDecode(f *testing.F) {
	rng := xrand.New(7)
	for i := 0; i < 4; i++ {
		data, err := randSnapshot(rng).MarshalBinary()
		if err != nil {
			f.Fatalf("seed corpus: %v", err)
		}
		f.Add(data)
	}
	f.Add([]byte("CSNP"))
	f.Add([]byte{})
	// A version-3 blob (two node lists): refused by number.
	v3 := []byte("CSNP\x03\x00")
	f.Add(binary.LittleEndian.AppendUint32(v3, crc32.ChecksumIEEE(v3)))
	// A real aggregator's snapshot whose window holds integer counters,
	// in the sketch codec's integer form.
	sk := testSketcher(f, 128, 64, 7)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 2})
	if err != nil {
		f.Fatal(err)
	}
	req := pushRequest{Kind: pushDelta, Node: "alpha", Epoch: 1, Window: 1, Seq: 1, Folds: 1, Payload: uniformDelta(f, sk, 3)}
	if ack := agg.apply(req, new(csoutlier.Sketch)); ack.Err != "" {
		f.Fatalf("apply: %+v", ack)
	}
	snap, err := agg.Snapshot()
	agg.Close(context.Background())
	if err != nil || string(snap.Windows[0][:4]) != "CSKI" {
		f.Fatalf("integer window: %v, %q", err, snap.Windows[0][:4])
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	// A root's snapshot whose relay record carries a cut.
	snap.Nodes[0].Cut = []SnapNode{{NodeStatus: NodeStatus{Node: "leaf0", Epoch: 9}, Base: 4}, {NodeStatus: NodeStatus{Node: "leaf1", Epoch: 2}, Base: 1}}
	if data, err = snap.MarshalBinary(); err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		again, err := snap.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted blob failed to re-marshal: %v", err)
		}
		if string(again) != string(data) {
			t.Fatal("accepted blob is not canonical (re-encode differs)")
		}
	})
}

// testDelta marshals a delta sketch whose entries are all v — a payload
// whose fold contribution is recognizable in every window entry.
func uniformDelta(t testing.TB, sk *csoutlier.Sketcher, v float64) []byte {
	t.Helper()
	s := sk.ZeroSketch()
	for i := range s.Y {
		s.Y[i] = v
	}
	payload, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	return payload
}

// TestSnapshotRestoreExact folds real frames across rotations, writes a
// snapshot to disk, restores, and checks the restored aggregator is
// exact: windows Float64bits-identical, window counter and membership
// intact, node status carried over, epoch bumped — and the restored
// dedup books drop a replay of every pre-snapshot frame as a duplicate.
func TestSnapshotRestoreExact(t *testing.T) {
	sk := testSketcher(t, 128, 64, 7)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 4, Durable: true})
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	defer agg.Close(context.Background())

	var frames []pushRequest
	push := func(node string, window, seq uint64, v float64) {
		t.Helper()
		req := pushRequest{Kind: pushDelta, Node: node, Epoch: 1, Window: window, Seq: seq, Folds: 1, Payload: uniformDelta(t, sk, v)}
		frames = append(frames, req)
		if ack := agg.apply(req, new(csoutlier.Sketch)); ack.Err != "" || !ack.Applied {
			t.Fatalf("apply %s seq %d: %+v", node, seq, ack)
		}
	}
	push("alpha", 1, 1, 1)
	push("beta", 1, 1, 2)
	agg.Rotate()
	push("alpha", 2, 2, 3)
	push("beta", 1, 2, 4) // late frame into the sealed window
	agg.Rotate()
	push("alpha", 3, 3, 5)

	path := filepath.Join(t.TempDir(), "agg.snap")
	if err := agg.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	restored, err := RestoreAggregator(sk, AggregatorOptions{}, snap)
	if err != nil {
		t.Fatalf("RestoreAggregator: %v", err)
	}
	defer restored.Close(context.Background())

	if got := restored.Epoch(); got != 2 {
		t.Fatalf("restored AggEpoch = %d, want 2", got)
	}
	if got := restored.CurrentWindow(); got != 3 {
		t.Fatalf("restored window = %d, want 3", got)
	}
	if got := restored.AvailableWindows(); got != agg.AvailableWindows() {
		t.Fatalf("restored available windows = %d, want %d", got, agg.AvailableWindows())
	}
	for age := 0; age < agg.AvailableWindows(); age++ {
		want, err := agg.WindowSketch(age)
		if err != nil {
			t.Fatalf("original window age %d: %v", age, err)
		}
		got, err := restored.WindowSketch(age)
		if err != nil {
			t.Fatalf("restored window age %d: %v", age, err)
		}
		sameBits(t, fmt.Sprintf("window age %d", age), got, want)
	}
	// Restored live nodes carry a fresh LastSeen: the evict loop must
	// grant them a full grace period to reconnect, not retire the whole
	// membership on its first tick.
	if n := restored.EvictIdle(time.Minute); n != 0 {
		t.Fatalf("EvictIdle right after restore evicted %d nodes, want 0", n)
	}

	wantNodes := agg.Nodes()
	gotNodes := restored.Nodes()
	if len(gotNodes) != len(wantNodes) {
		t.Fatalf("restored %d nodes, want %d", len(gotNodes), len(wantNodes))
	}
	for i := range wantNodes {
		w, g := wantNodes[i], gotNodes[i]
		w.LastSeen, g.LastSeen = time.Time{}, time.Time{}
		// After a commit the original's Stable matches its base; the
		// restored node's Stable is the snapshot base by definition.
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("restored node %d status:\n got %+v\nwant %+v", i, g, w)
		}
	}

	// Replay every pre-snapshot frame: all must dedup, none may fold.
	before, _ := restored.WindowSketch(1)
	for _, req := range frames {
		ack := restored.apply(req, new(csoutlier.Sketch))
		if ack.Err != "" || ack.Status != StatusDuplicate {
			t.Fatalf("replayed frame %s seq %d: status %q err %q, want duplicate", req.Node, req.Seq, ack.Status, ack.Err)
		}
		if ack.AggEpoch != 2 {
			t.Fatalf("replay ack AggEpoch = %d, want 2", ack.AggEpoch)
		}
	}
	after, _ := restored.WindowSketch(1)
	sameBits(t, "window after duplicate replay", after, before)
}

// TestRestoreRefusesWindowCounter feeds RestoreAggregator snapshots
// whose window counter cannot describe their ring: one below the number
// of windows held (window IDs count from 1 and advance once per
// rotation) and one past MaxInt64. Both are refused before an
// aggregator exists, so nothing is left running; the same snapshot with
// its own counter restores.
func TestRestoreRefusesWindowCounter(t *testing.T) {
	sk := testSketcher(t, 128, 64, 7)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 4, Durable: true})
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	req := pushRequest{Kind: pushDelta, Node: "alpha", Epoch: 1, Window: 1, Seq: 1, Folds: 1, Payload: uniformDelta(t, sk, 1)}
	if ack := agg.apply(req, new(csoutlier.Sketch)); ack.Err != "" || !ack.Applied {
		t.Fatalf("apply: %+v", ack)
	}
	agg.Rotate()
	agg.Rotate()
	snap, err := agg.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := agg.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if snap.Window != 3 || len(snap.Windows) != 3 {
		t.Fatalf("snapshot window %d with %d windows, want 3 and 3", snap.Window, len(snap.Windows))
	}

	before := runtime.NumGoroutine()
	for _, w := range []uint64{2, math.MaxInt64 + 1} {
		bad := *snap
		bad.Window = w
		if a, err := RestoreAggregator(sk, AggregatorOptions{}, &bad); err == nil {
			a.Close(context.Background())
			t.Errorf("window counter %d restored into a ring of %d windows", w, len(bad.Windows))
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("refused restores left %d goroutines running", after-before)
	}
	a, err := RestoreAggregator(sk, AggregatorOptions{}, snap)
	if err != nil {
		t.Fatalf("RestoreAggregator with the snapshot's own counter: %v", err)
	}
	a.Close(context.Background())
}

// TestDuplicateReplayAfterRestore is the Close-then-restore regression:
// frames folded after the last snapshot are gone from the restored
// state, and a full replay of the whole history must re-fold exactly
// those — every pre-snapshot frame dedups — leaving the window
// bit-identical to an uninterrupted fold.
func TestDuplicateReplayAfterRestore(t *testing.T) {
	sk := testSketcher(t, 128, 64, 11)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 2, Durable: true})
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}

	const total = 7
	const snapAt = 5
	var frames []pushRequest
	for seq := uint64(1); seq <= total; seq++ {
		frames = append(frames, pushRequest{
			Kind: pushDelta, Node: "alpha", Epoch: 1, Window: 1, Seq: seq, Folds: 1,
			Payload: uniformDelta(t, sk, float64(seq)),
		})
	}
	var snap *Snapshot
	for i, req := range frames {
		if ack := agg.apply(req, new(csoutlier.Sketch)); !ack.Applied {
			t.Fatalf("apply seq %d: %+v", req.Seq, ack)
		}
		if i+1 == snapAt {
			s, err := agg.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			data, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			agg.Commit(s.Nodes)
			if snap, err = DecodeSnapshot(data); err != nil {
				t.Fatalf("DecodeSnapshot: %v", err)
			}
		}
	}
	uninterrupted, err := agg.WindowSketch(0)
	if err != nil {
		t.Fatalf("WindowSketch: %v", err)
	}
	if err := agg.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}

	restored, err := RestoreAggregator(sk, AggregatorOptions{}, snap)
	if err != nil {
		t.Fatalf("RestoreAggregator: %v", err)
	}
	defer restored.Close(context.Background())
	var dups, applied int
	for _, req := range frames {
		switch ack := restored.apply(req, new(csoutlier.Sketch)); {
		case ack.Status == StatusDuplicate:
			dups++
		case ack.Applied:
			applied++
		default:
			t.Fatalf("replay seq %d: %+v", req.Seq, ack)
		}
	}
	if dups != snapAt || applied != total-snapAt {
		t.Fatalf("replay folded %d and deduped %d frames, want %d/%d", applied, dups, total-snapAt, snapAt)
	}
	got, err := restored.WindowSketch(0)
	if err != nil {
		t.Fatalf("restored WindowSketch: %v", err)
	}
	sameBits(t, "window after crash/restore/replay", got, uninterrupted)
	st := restored.Nodes()[0]
	if st.Applied != total || st.Duplicates != int64(snapAt) {
		t.Fatalf("restored node status Applied=%d Duplicates=%d, want %d/%d", st.Applied, st.Duplicates, total, snapAt)
	}
}

// TestSnapshotWhileFolding hammers Snapshot concurrently with ingest
// and rotation (run under -race). Every delta adds 1.0 to all M window
// entries, so two invariants pin snapshot atomicity: each decoded
// window must be internally uniform (no torn ring read), and the total
// folded mass must equal the dedup book's frame count (the books and
// the ring are captured in the same critical section).
func TestSnapshotWhileFolding(t *testing.T) {
	sk := testSketcher(t, 64, 32, 3)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 64, Durable: true})
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	defer agg.Close(context.Background())

	payload := uniformDelta(t, sk, 1)
	const frames = 400
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for seq := uint64(1); seq <= frames; seq++ {
			req := pushRequest{
				Kind: pushDelta, Node: "alpha", Epoch: 1,
				Window: agg.CurrentWindow(), Seq: seq, Folds: 1, Payload: payload,
			}
			if ack := agg.apply(req, new(csoutlier.Sketch)); ack.Err != "" {
				t.Errorf("apply seq %d: %s", seq, ack.Err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			agg.Rotate()
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 50; i++ {
		snap, err := agg.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot %d: %v", i, err)
		}
		data, err := snap.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary %d: %v", i, err)
		}
		dec, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("DecodeSnapshot %d: %v", i, err)
		}
		var mass float64
		for w, b := range dec.Windows {
			s, err := csoutlier.DecodeSketch(b)
			if err != nil {
				t.Fatalf("snapshot %d window %d: %v", i, w, err)
			}
			for j := range s.Y {
				if math.Float64bits(s.Y[j]) != math.Float64bits(s.Y[0]) {
					t.Fatalf("snapshot %d window %d torn: Y[%d]=%v, Y[0]=%v", i, w, j, s.Y[j], s.Y[0])
				}
			}
			mass += s.Y[0]
		}
		var folded uint64
		for _, sn := range dec.Nodes {
			folded += sn.Base
		}
		if mass != float64(folded) {
			t.Fatalf("snapshot %d: window mass %v but dedup book covers %d frames", i, mass, folded)
		}
	}
	wg.Wait()
}

// TestConcurrentSnapshotCommitOrder hammers WriteSnapshot from two
// goroutines concurrently with folds (run under -race) and checks the
// serialization invariant: the snapshot on disk is always at least as
// new as the latest committed dedup base. Without WriteSnapshot's
// snapMu, an older capture's rename can land after a newer capture's
// rename+commit — nodes would trim retention to a watermark the disk
// snapshot does not cover, losing frames on the next restore.
func TestConcurrentSnapshotCommitOrder(t *testing.T) {
	sk := testSketcher(t, 64, 32, 13)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 2, Durable: true})
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	defer agg.Close(context.Background())
	path := filepath.Join(t.TempDir(), "agg.snap")
	payload := uniformDelta(t, sk, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			req := pushRequest{
				Kind: pushDelta, Node: "alpha", Epoch: 1,
				Window: agg.CurrentWindow(), Seq: seq, Folds: 1, Payload: payload,
			}
			if ack := agg.apply(req, new(csoutlier.Sketch)); ack.Err != "" {
				t.Errorf("apply seq %d: %s", seq, ack.Err)
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := agg.WriteSnapshot(path); err != nil {
					t.Errorf("WriteSnapshot: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		// Read the committed watermark BEFORE loading the disk snapshot:
		// the disk only moves forward, so base(disk, later) ≥ stable(now)
		// must hold even while writers race.
		var stable uint64
		for _, ns := range agg.Nodes() {
			if ns.Node == "alpha" {
				stable = ns.Stable
			}
		}
		snap, err := LoadSnapshot(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // nothing on disk yet
			}
			t.Fatalf("LoadSnapshot: %v", err)
		}
		var base uint64
		for _, sn := range snap.Nodes {
			if sn.Node == "alpha" {
				base = sn.Base
			}
		}
		if base < stable {
			t.Fatalf("disk snapshot covers seq %d but committed stable watermark is %d — a restore would lose frames", base, stable)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCloseReportsSnapshotFailure pins the durability signal: when the
// final shutdown snapshot cannot be written, Close must return the
// error instead of reporting a clean shutdown over stale state.
func TestCloseReportsSnapshotFailure(t *testing.T) {
	sk := testSketcher(t, 64, 32, 9)
	path := filepath.Join(t.TempDir(), "missing-dir", "agg.snap")
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 2, SnapshotPath: path})
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	if err := agg.Close(context.Background()); err == nil {
		t.Fatal("Close returned nil although the final snapshot could not be written")
	}
	if got := agg.Stats().SnapshotErrors; got < 1 {
		t.Fatalf("SnapshotErrors = %d, want ≥ 1", got)
	}
}

// TestWriteSnapshotAtomic checks the atomic-rename discipline: a
// snapshot file is never observed half-written, and rewriting leaves no
// temp droppings.
func TestWriteSnapshotAtomic(t *testing.T) {
	sk := testSketcher(t, 64, 32, 5)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 2, Durable: true})
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	defer agg.Close(context.Background())
	if ack := agg.apply(pushRequest{Kind: pushDelta, Node: "alpha", Epoch: 1, Window: 1, Seq: 1, Payload: uniformDelta(t, sk, 2)}, new(csoutlier.Sketch)); !ack.Applied {
		t.Fatalf("apply: %+v", ack)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "agg.snap")
	for i := 0; i < 3; i++ {
		if err := agg.WriteSnapshot(path); err != nil {
			t.Fatalf("WriteSnapshot %d: %v", i, err)
		}
		if _, err := LoadSnapshot(path); err != nil {
			t.Fatalf("LoadSnapshot %d: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 || entries[0].Name() != "agg.snap" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("snapshot dir holds %v, want only agg.snap", names)
	}
}

// TestSnapshotBytesGolden pins the snapshot encoding of two fixed fold
// histories, with and without a relay's cut: two nodes, a frame too old
// for the ring, three rotations. In the gap-free history beta folds seq
// 1 and 2 and its seq 3 is dropped as too old; in the gapped one beta
// skips seq 2. Its two empty windows travel in the sketch codec's
// integer form, the other two as float64s. A change to how a window or a
// dedup book reaches the blob must not move one byte of either.
func TestSnapshotBytesGolden(t *testing.T) {
	sk := testSketcher(t, 128, 64, 7)
	for _, tc := range []struct {
		betaSeqs [3]uint64 // beta's seqs: window 1, window 2, dropped as too old
		relay    bool      // beta is a relay: each of its frames carries a one-leaf cut
		want     string
	}{
		{[3]uint64{1, 2, 3}, false, "790a4d1c5c7708c409506133ecdb3116011a9c858c520a90049692448a1539e4"},
		{[3]uint64{1, 2, 3}, true, "7574d152b0f566b9c79bf56eda61d980661ce7c1e9a34d9a4aa3678d6f64b548"},
		{[3]uint64{1, 3, 4}, false, "70e2f7d0b8a1d161eec161ae51c412d5d44b160440cbabce363fe79795e55b56"},
		{[3]uint64{1, 3, 4}, true, "3c1538e654731b0b219b80592d5dabe42a3b8bad174894a44b567f4801f0562d"},
	} {
		agg, err := NewAggregator(sk, AggregatorOptions{Windows: 4, Durable: true})
		if err != nil {
			t.Fatalf("NewAggregator: %v", err)
		}
		fold := func(node string, window, seq uint64, v float64) {
			t.Helper()
			req := pushRequest{Kind: pushDelta, Node: node, Epoch: 1, Window: window, Seq: seq, Folds: 1, Payload: uniformDelta(t, sk, v)}
			if node == "beta" && tc.relay {
				req.Cut = []SnapNode{{NodeStatus: NodeStatus{Node: "leaf", Epoch: 5}, Base: 10 * seq}}
			}
			if ack := agg.apply(req, new(csoutlier.Sketch)); ack.Err != "" {
				t.Fatalf("apply %s seq %d: %+v", node, seq, ack)
			}
		}
		fold("alpha", 1, 1, 0.5)
		fold("beta", 1, tc.betaSeqs[0], -2)
		agg.Rotate()
		fold("alpha", 2, 2, 1.25)
		fold("beta", 2, tc.betaSeqs[1], 3)
		agg.Rotate()
		agg.Rotate()
		fold("alpha", 1, 3, 7) // age 3: the ring's oldest slot
		fold("alpha", 4, 4, math.Pi)
		agg.Rotate()
		fold("beta", 1, tc.betaSeqs[2], 9) // age 4: dropped as too old
		snap, err := agg.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		agg.Close(context.Background())
		data, err := snap.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.want {
			t.Errorf("snapshot (beta seqs %v, relay %v): %d bytes, sha256 %s, want %s", tc.betaSeqs, tc.relay, len(data), got, tc.want)
		}
	}
}

// TestRestoreTwiceAnnouncesHigherIncarnation: a restored aggregator
// with a SnapshotPath writes its bumped incarnation there before it
// serves, so a second crash before any other snapshot restores to a
// higher AggEpoch still. Both restores used to announce 2: a node whose
// frames the first restored incarnation had acked, but not yet
// snapshotted, saw no bump from the second and never replayed them.
func TestRestoreTwiceAnnouncesHigherIncarnation(t *testing.T) {
	sk := testSketcher(t, 64, 32, 5)
	path := filepath.Join(t.TempDir(), "agg.snap")
	first, err := NewAggregator(sk, AggregatorOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(context.Background()); err != nil { // writes the file
		t.Fatalf("Close: %v", err)
	}
	var epochs []uint64
	for crash := 0; crash < 2; crash++ {
		snap, err := LoadSnapshot(path)
		if err != nil {
			t.Fatalf("LoadSnapshot: %v", err)
		}
		agg, err := RestoreAggregator(sk, AggregatorOptions{SnapshotPath: path}, snap)
		if err != nil {
			t.Fatalf("RestoreAggregator: %v", err)
		}
		epochs = append(epochs, agg.Epoch()) // and it dies without a Close
	}
	if epochs[0] != 2 || epochs[1] != 3 {
		t.Fatalf("two restores from one file announced AggEpoch %v, want [2 3]", epochs)
	}
}
