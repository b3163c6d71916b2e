package stream

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// book is the receiving end's book: every decision an aggregator makes
// about a push frame, and no I/O, clock (callers pass now), lock (the
// Aggregator holds it under ingest.mu) or metric (callers count what
// the verdicts say). It keeps the window counter, the incarnation and
// one record per node name ever admitted, up to limit, for its life;
// being retired (left or evicted) is a state of the record, so the
// dedup base outlives the membership and a late or replayed frame from
// a retired node still dedups instead of refolding.
type book struct {
	durable  bool   // Stable advances only at a commit
	capacity int    // the window ring's: a delta this many windows old is dropped
	window   uint64 // current window ID, from 1
	epoch    uint64 // aggregator incarnation; a restore bumps it
	version  uint64 // membership version: bumped on join, leave and evict
	members  map[string]*member
	retired  int // members not live
	limit    int // records admitted at most
}

// member is one node's record. Stable is the durable watermark acked to
// it (a durable book raises it only at a commit, any other keeps it at
// base) and base its dedup book, the highest seq processed this epoch:
// senders push stop-and-wait in ascending seq order, so every seq below
// base was processed or will never be sent. A relay's record also keeps
// the cut its frames carried, merged across its incarnations: the leaf
// folds this aggregator holds, which a new incarnation is given back.
type member struct {
	NodeStatus
	base   uint64
	folded uint64              // the highest seq folded this epoch: above it, base covers only seqs dropped as too old
	cut    map[string]SnapNode // by leaf name; nil for a node that never sent one
}

// fits reports whether merging cut keeps m's within maxMembers names.
func (m *member) fits(cut []SnapNode) bool {
	n := len(m.cut)
	for i := range cut {
		if _, ok := m.cut[cut[i].Node]; !ok {
			n++
		}
	}
	return n <= maxMembers
}

// merge folds a frame's cut into m's: per leaf, a higher epoch replaces
// the entry, and at the same epoch the higher seq wins.
func (m *member) merge(cut []SnapNode) {
	if len(cut) > 0 && m.cut == nil {
		m.cut = make(map[string]SnapNode, len(cut))
	}
	for _, sn := range cut {
		old, ok := m.cut[sn.Node]
		if !ok || sn.Epoch > old.Epoch || sn.Epoch == old.Epoch && sn.Base > old.Base {
			m.cut[sn.Node] = SnapNode{NodeStatus: NodeStatus{Node: sn.Node, Epoch: sn.Epoch}, Base: sn.Base}
		}
	}
}

// cutList is m's cut by name, nil when it has none.
func (m *member) cutList() []SnapNode {
	if len(m.cut) == 0 {
		return nil
	}
	out := make([]SnapNode, 0, len(m.cut))
	for _, sn := range m.cut {
		out = append(out, sn)
	}
	slices.SortFunc(out, func(x, y SnapNode) int { return strings.Compare(x.Node, y.Node) })
	return out
}

// maxMembers is a book's limit, a guard against hostile input.
const maxMembers = 4096

func newBook(durable bool, capacity int, epoch uint64) book {
	return book{durable: durable, capacity: capacity, window: 1, epoch: epoch, members: make(map[string]*member), limit: maxMembers}
}

func errStaleEpoch(node string, epoch, current uint64) error {
	return fmt.Errorf("stream: node %s epoch %d is stale (current incarnation is %d)", node, epoch, current)
}

// reply is an ack of status with the window and incarnation filled in.
func (b *book) reply(status string) Ack {
	return Ack{Window: b.window, Status: status, AggEpoch: b.epoch}
}

// admit returns the live record for (node, epoch), seen at now. First
// contact is a join (refused, changing nothing, at limit records), and
// so is a retired node's return, which revives its record: at the same
// epoch its base still describes this sequence space, so nothing can
// refold. A higher epoch is a restart, a fresh sequence space; a lower
// one is refused, the successor owns it. A restart keeps the record's
// cut: the folds it names are still in the windows.
func (b *book) admit(node string, epoch uint64, now time.Time) (m *member, joined bool, err error) {
	m = b.members[node]
	switch {
	case m == nil && len(b.members) >= b.limit:
		return nil, false, fmt.Errorf("stream: node %s refused: the aggregator holds %d node records, its limit", node, b.limit)
	case m == nil:
		m = &member{NodeStatus: NodeStatus{Node: node, Epoch: epoch, State: StateLive}}
		b.members[node] = m
		b.version++
		joined = true
	case epoch < m.Epoch:
		return nil, false, errStaleEpoch(node, epoch, m.Epoch)
	case epoch > m.Epoch:
		m.Epoch, m.Stable, m.base, m.folded = epoch, 0, 0, 0
		m.Restarts++
	}
	if m.State != StateLive {
		m.State = StateLive
		b.retired--
		b.version++
		joined = true
	}
	m.LastSeen = now
	return m, joined, nil
}

// retire moves a live member to state (StateLeft or stateEvicted).
func (b *book) retire(m *member, state string) {
	m.State = state
	b.retired++
	b.version++
}

// mark records seq as processed, folded or dropped as too old.
func (b *book) mark(m *member, seq uint64, folded bool) {
	m.base = max(m.base, seq)
	if folded {
		m.folded = m.base
	}
	b.settle(m)
}

// settle raises Stable to base where nothing above Stable could be lost:
// always in a book that never restores (acked is durable), and in a
// durable one once every seq it folded is durable — a seq dropped as too
// old held nothing a restart could lose, and at a relay no cut ever
// names it.
func (b *book) settle(m *member) {
	if !b.durable || m.Stable >= m.folded {
		m.Stable = m.base
	}
}

// hello admits (node, epoch) and answers with its Stable, and with its
// cut while it has folded nothing at this epoch — a relay's new
// incarnation, which seeds its books from it (an ack lost on the way
// is answered again on the redial); refused says the book was full for
// a name it holds no record of.
func (b *book) hello(node string, epoch uint64, now time.Time) (ack Ack, joined, refused bool) {
	ack = b.reply(statusHello)
	m, joined, err := b.admit(node, epoch, now)
	if err != nil {
		ack.Err = err.Error()
		return ack, false, b.members[node] == nil
	}
	ack.Stable = m.Stable
	if m.base == 0 {
		ack.Cut = m.cutList()
	}
	return ack, joined, false
}

// bye retires a live (node, epoch), whose record stays; for an unknown
// or retired node it changes nothing.
func (b *book) bye(node string, epoch uint64) (ack Ack, left bool) {
	ack = b.reply(statusBye)
	switch m := b.members[node]; {
	case m == nil || m.State != StateLive:
	case epoch < m.Epoch:
		ack.Err = errStaleEpoch(node, epoch, m.Epoch).Error()
	default:
		ack.Stable = m.Stable
		b.retire(m, StateLeft)
		return ack, true
	}
	return ack, false
}

// delta gives the verdict on a delta of (node, epoch): refused (Err), a
// duplicate (seq at or below base), dropped-old (its window left the
// ring) or new, which fold adds at its age. A delta processed, folded or
// dropped, merges its cut into the record's; one whose cut would take
// the record's past maxMembers names is refused. A delta tagged ahead of the
// counter (a non-durable aggregator restarted at window 1; nodes never
// adopt a lower window) folds into the open window, as a late one into
// its own. When fold fails (the payload did not decode, or the sum would
// overflow) the delta is refused and not marked, so the same seq sent
// again before any later one still folds.
func (b *book) delta(node string, epoch, window, seq uint64, folds uint32, cut []SnapNode, now time.Time, fold func(age int, window uint64) error) (Ack, bool) {
	ack := b.reply("")
	m, joined, err := b.admit(node, epoch, now)
	if err != nil {
		ack.Err = err.Error()
		return ack, false
	}
	w := min(window, b.window)
	switch age := b.window - w; {
	case seq == 0:
		err = fmt.Errorf("stream: delta frames number from seq 1")
	case seq <= m.base:
		ack.Status = StatusDuplicate
		m.Duplicates++
	case !m.fits(cut):
		err = fmt.Errorf("stream: node %s delta seq %d: its cut would name more than %d leaves", node, seq, maxMembers)
	case age >= uint64(b.capacity):
		// Too old to represent: acked and marked, so the node moves on.
		b.mark(m, seq, false)
		m.merge(cut)
		ack.Status = statusDroppedOld
		m.Dropped++
	default:
		if err = fold(int(age), w); err != nil {
			err = fmt.Errorf("stream: node %s delta seq %d: %v", node, seq, err)
			break
		}
		b.mark(m, seq, true)
		m.merge(cut)
		m.Applied++
		if folds > 1 { // a relay's sum of folds leaf deltas, so "captures folded" reconciles
			m.ShedFrames++
			m.ShedFolds += int64(folds - 1)
		}
		m.LastWindow = max(m.LastWindow, w)
		ack.Applied, ack.Status = true, statusApplied
	}
	if err != nil {
		ack.Err = err.Error()
		m.Rejected++
	}
	ack.Stable = m.Stable
	return ack, joined
}

// commit raises Stable to the cut's base for every member the cut names
// at its current epoch: a snapshot's cut once the file is down, or at a
// relay the cuts of upward frames its root declared durable.
func (b *book) commit(cut []SnapNode) {
	for _, sn := range cut {
		if m := b.members[sn.Node]; m != nil && m.Epoch == sn.Epoch {
			m.Stable = max(m.Stable, sn.Base)
			b.settle(m)
		}
	}
}

// evict retires every live member last seen before deadline; each
// record stays.
func (b *book) evict(deadline time.Time) (evicted int) {
	for _, m := range b.members {
		if m.State == StateLive && m.LastSeen.Before(deadline) {
			b.retire(m, stateEvicted)
			evicted++
		}
	}
	return evicted
}

// cut lists every member by name, with its base and its cut and
// without LastSeen and Stable, a running aggregator's view that restore
// sets.
func (b *book) cut() []SnapNode {
	out := make([]SnapNode, 0, len(b.members))
	for _, m := range b.members {
		sn := SnapNode{NodeStatus: m.NodeStatus, Base: m.base, Cut: m.cutList()}
		sn.LastSeen, sn.Stable = time.Time{}, 0
		out = append(out, sn)
	}
	slices.SortFunc(out, func(x, y SnapNode) int { return strings.Compare(x.Node, y.Node) })
	return out
}

// restore loads a cut into an empty book. What a cut holds is durable,
// so Stable is the base. Members are live unless the cut says otherwise
// (a relay's seed names no states), and live ones are stamped seen now,
// so eviction gives each a full EvictAfter to reconnect.
func (b *book) restore(nodes []SnapNode, now time.Time) error {
	for _, sn := range nodes {
		if b.members[sn.Node] != nil {
			return fmt.Errorf("stream: snapshot lists node %s twice", sn.Node)
		}
		m := &member{NodeStatus: sn.NodeStatus, base: sn.Base}
		m.merge(sn.Cut)
		m.State, m.Stable, m.LastSeen = cmp.Or(m.State, StateLive), sn.Base, now
		if m.State != StateLive {
			m.LastSeen = time.Time{}
			b.retired++
		}
		b.members[sn.Node] = m
	}
	return nil
}

// statuses lists every member's NodeStatus with its lag, by name.
func (b *book) statuses() []NodeStatus {
	out := make([]NodeStatus, 0, len(b.members))
	for _, sn := range b.cut() {
		s := b.members[sn.Node].NodeStatus
		if s.LastWindow < b.window {
			s.Lag = b.window - s.LastWindow
		}
		out = append(out, s)
	}
	return out
}
