package stream

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// nodeState is the one record the aggregator keeps per node: the
// idempotency tracker for the node's current epoch plus its NodeStatus
// (status.Stable is the durable watermark acked to the node: a durable
// aggregator advances it only when a snapshot covering the seq commits,
// any other keeps it at tracker.base). The same record lives on as a
// tombstone after a leave/eviction, so a late or replayed frame from a
// retired node still dedups instead of refolding.
type nodeState struct {
	tracker seqTracker
	status  NodeStatus
}

// stabilise raises the durable watermark to base, a dedup base of the
// node's current epoch that a commit covers. The caller holds ingest.mu.
func (ns *nodeState) stabilise(base uint64) {
	if base > ns.status.Stable {
		ns.status.Stable = base
	}
}

// maxTombstones bounds retired-node state: past it the oldest tombstone
// is forgotten (FIFO) and counted in stream_tombstones_forgotten_total.
// The trade is memory for exactly-once: a forgotten name that comes back
// at the same epoch gets a fresh dedup book, so a replay of a frame it
// folded before it left folds again.
const maxTombstones = 1024

// members is the membership: live nodes, tombstones of retired ones,
// and the join / resurrect / restart / retire rules. It has no lock of
// its own — it is a field of ingest and every method runs under
// ingest.mu.
type members struct {
	m        *aggMetrics
	version  uint64                // bumped on join/leave/evict
	nodes    map[string]*nodeState // live members
	tombs    map[string]*nodeState // retired members (left/evicted)
	tombFIFO []string              // tombstone insertion order, for the cap
}

func newMembers(m *aggMetrics) members {
	return members{m: m, nodes: make(map[string]*nodeState), tombs: make(map[string]*nodeState)}
}

func errStaleEpoch(node string, epoch, current uint64) error {
	return fmt.Errorf("stream: node %s epoch %d is stale (current incarnation is %d)", node, epoch, current)
}

// admit returns the live record for (node, epoch). First contact is a
// join; a retired node coming back is a join that resurrects its
// tombstone — at the same epoch the dedup book still describes this
// incarnation's sequence space exactly, so nothing can refold. A higher
// epoch, live or retired, is a restart: a fresh sequence space, and any
// un-acked frames of the old incarnation are gone with it. A lower one
// is refused: the successor already owns the sequence space.
func (ms *members) admit(node string, epoch uint64) (*nodeState, error) {
	ns, live := ms.nodes[node]
	retired := false
	if !live {
		ns, retired = ms.tombs[node]
	}
	switch {
	case ns == nil:
		ns = &nodeState{status: NodeStatus{Node: node, Epoch: epoch}}
	case epoch < ns.status.Epoch:
		return nil, errStaleEpoch(node, epoch, ns.status.Epoch)
	case epoch > ns.status.Epoch:
		ns.status.Epoch = epoch
		ns.status.Restarts++
		ns.status.Stable = 0
		ns.tracker = seqTracker{}
	}
	if retired {
		delete(ms.tombs, node)
		i := slices.Index(ms.tombFIFO, node)
		ms.tombFIFO = slices.Delete(ms.tombFIFO, i, i+1)
	}
	if !live {
		ns.status.State = StateLive
		ms.nodes[node] = ns
		ms.version++
		ms.m.joins.Inc()
	}
	return ns, nil
}

// retire moves a live node into the tombstone set as StateLeft or
// stateEvicted. The whole record survives — tombstones are what keep
// exactly-once exact across membership churn.
func (ms *members) retire(ns *nodeState, state string) {
	delete(ms.nodes, ns.status.Node)
	ns.status.State = state
	ms.entomb(ns)
	for len(ms.tombs) > maxTombstones {
		delete(ms.tombs, ms.tombFIFO[0])
		ms.tombFIFO = ms.tombFIFO[1:]
		ms.m.tombsForgotten.Inc()
	}
	ms.version++
	if state == stateEvicted {
		ms.m.evictions.Inc()
	} else {
		ms.m.leaves.Inc()
	}
}

func (ms *members) entomb(ns *nodeState) {
	ms.tombs[ns.status.Node] = ns
	ms.tombFIFO = append(ms.tombFIFO, ns.status.Node)
}

// hello registers/refreshes a node and returns the current window. A
// node the aggregator has never seen (or one coming back from a
// tombstone) joins the membership here — unless its hello names a
// consensus other than the aggregator's: that is refused before
// admission, and the node is neither joined nor refreshed.
func (a *Aggregator) hello(req pushRequest) Ack {
	a.metrics.hellos.Inc()
	var idErr error
	if len(req.ID) > 0 {
		idErr = a.sk.CheckIdentity(req.ID)
	}
	in := &a.in
	in.mu.Lock()
	defer in.mu.Unlock()
	ack := Ack{Window: in.window, Status: statusHello, AggEpoch: in.epoch}
	if idErr != nil {
		ack.Err = idErr.Error()
		return ack
	}
	ns, err := in.members.admit(req.Node, req.Epoch)
	if err != nil {
		ack.Err = err.Error()
		return ack
	}
	ns.status.LastSeen = time.Now()
	ack.Stable = ns.status.Stable
	return ack
}

// bye retires a node's membership gracefully. The dedup book moves to a
// tombstone: a late retry of an already-folded frame still dedups, and
// a same-epoch reappearance resurrects the state intact.
func (a *Aggregator) bye(req pushRequest) Ack {
	in := &a.in
	in.mu.Lock()
	defer in.mu.Unlock()
	ack := Ack{Window: in.window, Status: statusBye, AggEpoch: in.epoch}
	ns, ok := in.members.nodes[req.Node]
	if !ok {
		// Unknown or already retired: a bye is idempotent.
		return ack
	}
	if req.Epoch < ns.status.Epoch {
		ack.Err = errStaleEpoch(req.Node, req.Epoch, ns.status.Epoch).Error()
		return ack
	}
	in.members.retire(ns, StateLeft)
	ack.Stable = ns.status.Stable
	return ack
}

// EvictIdle retires every live node whose last frame is older than
// olderThan, returning how many were evicted. The background loop
// (AggregatorOptions.EvictAfter) calls it on a timer; tests call it
// directly for determinism.
func (a *Aggregator) EvictIdle(olderThan time.Duration) int {
	deadline := time.Now().Add(-olderThan)
	ms := &a.in.members
	a.in.mu.Lock()
	defer a.in.mu.Unlock()
	evicted := 0
	for _, ns := range ms.nodes {
		if ns.status.LastSeen.Before(deadline) {
			ms.retire(ns, stateEvicted) // deleting the ranged-over entry is allowed
			evicted++
		}
	}
	return evicted
}

// membershipVersion returns the membership configuration version —
// bumped on every join, leave and eviction.
func (a *Aggregator) membershipVersion() uint64 {
	a.in.mu.Lock()
	defer a.in.mu.Unlock()
	return a.in.members.version
}

// Nodes returns the liveness/lag table — live members plus retired
// (left/evicted) tombstones, distinguished by State — sorted by node
// name.
func (a *Aggregator) Nodes() []NodeStatus {
	ms := &a.in.members
	a.in.mu.Lock()
	defer a.in.mu.Unlock()
	out := make([]NodeStatus, 0, len(ms.nodes)+len(ms.tombs))
	for _, group := range []map[string]*nodeState{ms.nodes, ms.tombs} {
		for _, ns := range group {
			s := ns.status
			if s.LastWindow < a.in.window {
				s.Lag = a.in.window - s.LastWindow
			}
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// liveNodes returns how many nodes are current members.
func (a *Aggregator) liveNodes() int {
	a.in.mu.Lock()
	defer a.in.mu.Unlock()
	return len(a.in.members.nodes)
}

// snapNodes copies a group (nodes or tombs) into SnapNodes sorted by
// name. LastSeen and Stable are a running aggregator's view, not fold
// state: a snapshot carries neither, and restore sets both.
func snapNodes(group map[string]*nodeState) []SnapNode {
	out := make([]SnapNode, 0, len(group))
	for _, ns := range group {
		sn := SnapNode{NodeStatus: ns.status, Base: ns.tracker.base}
		sn.LastSeen, sn.Stable = time.Time{}, 0
		out = append(out, sn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// restore loads a snapshot's live members and tombstones into an empty
// membership. Everything in a snapshot is durable by definition, so
// Stable is the dedup base. LastSeen is not snapshotted (wall-clock
// state of a dead process is meaningless): live nodes are stamped with
// the restore time, so the evict loop gives each a full EvictAfter to
// reconnect instead of retiring it on the first tick — a cascade that
// could push dedup books replaying nodes still need past the tombstone
// cap.
func (ms *members) restore(snap *Snapshot) error {
	ms.version = snap.Membership
	now := time.Now()
	load := func(sn *SnapNode) *nodeState {
		ns := &nodeState{status: sn.NodeStatus, tracker: seqTracker{base: sn.Base}}
		ns.status.Stable = sn.Base
		return ns
	}
	for i := range snap.Nodes {
		ns := load(&snap.Nodes[i])
		ns.status.State = StateLive
		ns.status.LastSeen = now
		ms.nodes[ns.status.Node] = ns
	}
	for i := range snap.Tombs {
		ns := load(&snap.Tombs[i])
		switch {
		case ns.status.State == StateLive || ns.status.State == "":
			return fmt.Errorf("stream: snapshot tombstone %s marked live", ns.status.Node)
		case ms.nodes[ns.status.Node] != nil:
			return fmt.Errorf("stream: snapshot lists %s both live and tombstoned", ns.status.Node)
		}
		ms.entomb(ns)
	}
	return nil
}
