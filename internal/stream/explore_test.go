package stream

import (
	"flag"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
	"time"
)

// The protocol explorer. Eq. 1 is a sum, so a delta folded twice or
// lost is a wrong answer with nothing to flag it; exactly-once is the
// push path's whole correctness story. The explorer walks, breadth-first
// and with state dedup, every ordering of a fixed set of events on two
// nodes, one relay and one root — n0 pushes to the relay, which forwards
// to the root, and n1 pushes to the root directly — driving the same
// book and outbox calls the product makes (book.go, outbox.go), with a
// payload that is the list of capture IDs it carries. After every step
// no capture may have been folded twice at the root; from every state
// reached, a canonical quiescence (every queue drained, one last capture
// per node, commits, heartbeats) must end with every capture folded at
// the root exactly once, in the window it was captured in (or an earlier
// one, after a window counter went back), or acked as dropped-old, or
// lost by design with a volatile root's restart, and with no sender
// holding a frame. The relay keeps no file: a restart (rwipe) is
// NewRelay, seeded from the cut its root gives back.
//
// A red run prints the shortest trace as one explore1 line, which
// -explore.replay replays:
//
//	go test ./internal/stream -run TestProtocolExplorer -explore.replay='explore1 config=durable events=flush1,lost1,crash'
var (
	exploreDepth  = flag.Int("explore.depth", 5, "event depth the protocol explorer walks in each configuration")
	exploreFloor  = flag.Int("explore.floor", 0, "fail when the explorer covers fewer distinct states than this, summed over its configurations")
	exploreReplay = flag.String("explore.replay", "", "replay one explore1 line instead of exploring")
)

// exploreWindows is the ring capacity of the relay and the root: two
// rotations make a delta dropped-old.
const exploreWindows = 2

// relayLimit and rootLimit are the books' limits: the names each
// receiver serves, n0 at the relay and the relay and n1 at the root.
// Both books run full, so after every step a stranger must be refused
// (step) while every rejoin is admitted (connect): a forgotten record
// fails one or the other.
const relayLimit, rootLimit = 1, 2

// config is one deployment the explorer walks; the configs vary the
// root. A durable root snapshots at every rotation, on snap and before
// it gives a relay its cut back, and a crash restores it; a volatile one
// acks every fold as durable, and its restart (wipe) loses its state.
type config struct {
	name    string
	durable bool
	budget  budget
}

// budget bounds how often each kind of event may happen in one run.
type budget struct {
	caps, lost, drops, byes, rots, evicts, crashes int
}

var configs = []config{
	{"durable", true, budget{caps: 2, lost: 1, drops: 1, byes: 1, rots: 2, evicts: 1, crashes: 1}},
	{"volatile", false, budget{caps: 2, lost: 1, drops: 1, byes: 1, rots: 2, evicts: 1, crashes: 1}},
}

// endpoint is a pushing end: a node's Sender, or a relay's upward one.
type endpoint struct {
	name      string
	epoch     uint64
	ob        outbox
	connected bool   // an admitted hello on a connection to the receiver's current incarnation
	window    uint64 // the owner's window view (a relay's is its book's)
}

// receiver is a receiving end: the relay's leaf-facing aggregator or the
// root. folded counts the folds of each capture in this incarnation.
type receiver struct {
	bk     book
	folded map[byte]int
	file   *image // the root's last committed snapshot (durable only)
}

// newReceiver is a fresh receiver whose book holds at most limit records.
func newReceiver(durable bool, epoch uint64, limit int) receiver {
	r := receiver{bk: newBook(durable, exploreWindows, epoch), folded: map[byte]int{}}
	r.bk.limit = limit
	return r
}

// image is the root's snapshot: its book and folds.
type image struct {
	cut                    []SnapNode
	window, version, epoch uint64
	folded                 map[byte]int
}

// accum is one of the relay's unstaged upward accumulators: the captures
// it sums and their cut, n0's epoch and highest seq.
type accum struct {
	caps []byte
	cut  []SnapNode
}

// world is one state of the explored system.
type world struct {
	cfg   *config
	nodes [2]endpoint // n0 under the relay, n1 under the root
	relay receiver    // its books are durable: Stable follows the root
	acc   map[uint64]*accum
	up    endpoint // the relay's upward sender
	root  receiver

	tags    []uint64      // tags[c-1]: the window capture c was observed in
	dropped map[byte]bool // acked dropped-old somewhere
	lost    map[byte]bool // may be missing: a volatile root's restart lost it
	behind  bool          // a window counter went back: a capture may fold into an earlier window
	used    budget
	trace   []string
	bad     string // the first violation
}

func newWorld(cfg *config) *world {
	w := &world{cfg: cfg, acc: map[uint64]*accum{}, dropped: map[byte]bool{}, lost: map[byte]bool{}}
	for i := range w.nodes {
		w.nodes[i] = endpoint{name: fmt.Sprintf("n%d", i), epoch: 1, ob: outbox{}, window: 1}
	}
	w.up = endpoint{name: "relay", epoch: 1, ob: outbox{}, window: 1}
	w.relay = newReceiver(true, 1, relayLimit)
	w.root = newReceiver(cfg.durable, 1, rootLimit)
	if cfg.durable {
		w.root.file = w.root.snapshot()
	}
	return w
}

func (w *world) failf(format string, args ...any) {
	if w.bad == "" {
		w.bad = fmt.Sprintf(format, args...)
	}
}

// to returns the receiver an endpoint pushes to.
func (w *world) to(e *endpoint) *receiver {
	if e == &w.nodes[0] {
		return &w.relay
	}
	return &w.root
}

// adopt is the Sender's window callback: a node adopts the window, the
// relay rotates its book up to it.
func (w *world) adopt(e *endpoint, window uint64) {
	if e == &w.up {
		for w.relay.bk.window < window {
			w.relay.bk.window++
		}
	}
	e.window = max(e.window, window)
}

// heard is Sender.noteAck: the relay commits the cuts its root declared
// durable (Relay.adoptRoot), then the owner adopts the window.
func (w *world) heard(e *endpoint, ack Ack, settles bool) {
	e.ob.heard(ack, settles)
	if durable := e.ob.durable; e == &w.up && durable != nil {
		w.relay.bk.commit(durable)
	}
	e.ob.durable = nil
	w.adopt(e, ack.Window)
}

// hello is Aggregator.hello: a durable root snapshots a cut before it
// gives it back.
func (w *world) hello(e *endpoint) Ack {
	r := w.to(e)
	ack, _, _ := r.bk.hello(e.name, e.epoch, time.Time{})
	if r == &w.root && len(ack.Cut) > 0 && w.cfg.durable {
		w.snapRoot()
	}
	return ack
}

// connect is Sender.connect: a hello on a fresh connection.
func (w *world) connect(e *endpoint) bool {
	if e.connected {
		return true
	}
	ack := w.hello(e)
	if ack.Err != "" {
		w.failf("%s's hello refused: %s", e.name, ack.Err)
		return false
	}
	e.connected = true
	w.heard(e, ack, false)
	return true
}

// attempt is one attempt of Sender.drain: connect, send what the outbox
// names, fold it at the receiver, hear the ack — unless lose, when the
// ack is lost and the connection with it.
func (w *world) attempt(e *endpoint, lose bool) {
	if !w.connect(e) {
		return
	}
	f := e.ob.send()
	if f == nil {
		return
	}
	r := w.to(e)
	ack, _, _ := r.bk.delta(e.name, e.epoch, f.Window, f.Seq, f.Folds, f.Cut, time.Time{}, func(age int, window uint64) error {
		for _, c := range f.Payload {
			if r.folded[c]++; r == &w.root {
				w.checkFold(c, window)
			}
		}
		if r == &w.relay { // Relay.onApplied
			a := w.acc[window]
			if a == nil {
				a = &accum{}
				w.acc[window] = a
			}
			a.caps = append(a.caps, f.Payload...)
			a.cut = []SnapNode{{NodeStatus: NodeStatus{Node: e.name, Epoch: e.epoch}, Base: f.Seq}}
		}
		return nil
	})
	if ack.Status == statusDroppedOld {
		for _, c := range f.Payload {
			w.dropped[c] = true
		}
	}
	if lose {
		e.connected = false
		return
	}
	w.heard(e, ack, true)
}

// checkFold is the invariant every step keeps: no capture folded twice
// at the root, and none into a window after the one it was observed in.
func (w *world) checkFold(c byte, window uint64) {
	n, tag := w.root.folded[c], w.tags[c-1]
	switch {
	case n > 1:
		w.failf("capture %d folded %d times at the root", c, n)
	case window > tag || window < tag && !w.behind:
		w.failf("capture %d observed in window %d folded into window %d", c, tag, window)
	}
}

// drain is Sender.drain: attempts until nothing is sendable.
func (w *world) drain(e *endpoint) {
	for i := 0; e.ob.head() != nil; i++ {
		if i == 32 || w.bad != "" {
			w.failf("%s's drain does not converge", e.name)
			return
		}
		w.attempt(e, false)
	}
}

// observe is a node's capture: one new capture ID, tagged with the
// node's window, pushed into its outbox as one frame.
func (w *world) observe(e *endpoint) {
	w.tags = append(w.tags, e.window)
	f := e.ob.alloc()
	*f = Frame{Window: e.window, Folds: 1, Payload: []byte{byte(len(w.tags))}}
	e.ob.push(f)
}

// forward is Relay.stage: every unstable window's accumulator becomes
// the next upward frame, with its cut, in ascending-window order.
func (w *world) forward() {
	windows := make([]uint64, 0, len(w.acc))
	for win := range w.acc {
		windows = append(windows, win)
	}
	slices.Sort(windows)
	for _, win := range windows {
		f := w.up.ob.alloc()
		*f = Frame{Window: win, Folds: uint32(len(w.acc[win].caps)), Cut: w.acc[win].cut, Payload: w.acc[win].caps}
		w.up.ob.push(f)
		delete(w.acc, win)
	}
}

func (r *receiver) snapshot() *image {
	return &image{cut: r.bk.cut(), window: r.bk.window, version: r.bk.version, epoch: r.bk.epoch, folded: cloneMap(r.folded)}
}

// restored is a receiver back from its last committed snapshot, as
// RestoreAggregator makes it.
func (r *receiver) restored() receiver {
	im := r.file
	n := newReceiver(true, im.epoch+1, r.bk.limit)
	n.folded, n.file = cloneMap(im.folded), im
	n.bk.window, n.bk.version = im.window, im.version
	if err := n.bk.restore(im.cut, time.Time{}); err != nil {
		panic(err)
	}
	return n
}

// event is one step the explorer may take.
type event struct {
	name string
	ok   func(w *world) bool // enabled in this state
	do   func(w *world)
}

func nodeEvents(i int) []event {
	n := func(w *world) *endpoint { return &w.nodes[i] }
	return []event{
		// flush is Node.Flush: drain, capture, drain.
		{fmt.Sprintf("flush%d", i), func(w *world) bool { return w.used.caps < 2*w.cfg.budget.caps }, func(w *world) {
			w.drain(n(w))
			w.used.caps++
			w.observe(n(w))
			w.drain(n(w))
		}},
		// lost: a capture (when drained) whose first attempt is folded
		// but whose ack never arrives.
		{fmt.Sprintf("lost%d", i), func(w *world) bool {
			return w.used.lost < w.cfg.budget.lost && (n(w).ob.head() != nil || w.used.caps < 2*w.cfg.budget.caps)
		}, func(w *world) {
			w.used.lost++
			if n(w).ob.head() == nil {
				w.used.caps++
				w.observe(n(w))
			}
			w.attempt(n(w), true)
		}},
		// drop: the connection goes away; the next exchange redials.
		{fmt.Sprintf("drop%d", i), func(w *world) bool { return w.used.drops < w.cfg.budget.drops && n(w).connected }, func(w *world) {
			w.used.drops++
			n(w).connected = false
		}},
		// bye is Node.Leave after its flush: drain, bye, hang up.
		{fmt.Sprintf("bye%d", i), func(w *world) bool { return w.used.byes < w.cfg.budget.byes }, func(w *world) {
			w.used.byes++
			e := n(w)
			w.drain(e)
			if w.connect(e) {
				if ack, _ := w.to(e).bk.bye(e.name, e.epoch); ack.Err != "" {
					w.failf("%s's bye refused: %s", e.name, ack.Err)
				}
			}
			e.connected = false
		}},
	}
}

// relayEvents: a relay forwards (rfwd) and drains (rpush) in two
// steps, so a leaf frame or a restart can fall between them.
func relayEvents() []event {
	return []event{
		{"rpush", func(w *world) bool { return w.up.ob.head() != nil }, func(w *world) { w.drain(&w.up) }},
		{"rlost", func(w *world) bool { return w.used.lost < w.cfg.budget.lost && w.up.ob.head() != nil }, func(w *world) {
			w.used.lost++
			w.attempt(&w.up, true)
		}},
		{"rfwd", func(w *world) bool { return len(w.acc) > 0 }, func(w *world) { w.forward() }},
		{"rwipe", func(w *world) bool { return w.used.crashes < 2*w.cfg.budget.crashes }, func(w *world) {
			w.used.crashes++
			w.wipeRelay()
		}},
	}
}

// wipeRelay is a relay's restart (NewRelay): no accumulators and an
// empty upward outbox under a higher upward epoch; its hello's ack gives
// back the root's cut, which seeds books of a fresh, higher AggEpoch at
// the root's window. n0 hears the bump and replays what it retains.
func (w *world) wipeRelay() {
	epoch := w.relay.bk.epoch + 1
	w.acc = map[uint64]*accum{}
	w.up = endpoint{name: "relay", epoch: w.up.epoch + 1, ob: outbox{}, window: 1}
	w.nodes[0].connected = false
	w.relay = newReceiver(true, epoch, relayLimit)
	ack := w.hello(&w.up)
	if ack.Err != "" {
		w.failf("the new relay's hello refused: %s", ack.Err)
		return
	}
	w.up.connected = true
	w.up.ob.heard(ack, false)
	w.up.window, w.relay.bk.window = ack.Window, ack.Window
	if err := w.relay.bk.restore(ack.Cut, time.Time{}); err != nil {
		w.failf("the new relay's seed: %v", err)
	}
	w.behind = true
}

func rootEvents(durable bool) []event {
	evs := []event{
		{"rot", func(w *world) bool { return w.used.rots < w.cfg.budget.rots }, func(w *world) {
			w.used.rots++
			w.root.bk.window++
			if durable {
				w.snapRoot() // a durable aggregator snapshots right after each rotation
			}
		}},
		{"evict", func(w *world) bool { return w.used.evicts < w.cfg.budget.evicts }, func(w *world) {
			w.used.evicts++
			w.root.bk.evict(time.Unix(1, 0))
		}},
	}
	if !durable {
		// wipe is a non-durable restart: a fresh root at window 1.
		return append(evs, event{"wipe", func(w *world) bool { return w.used.crashes < 2*w.cfg.budget.crashes }, func(w *world) {
			w.used.crashes++
			for c := range w.root.folded {
				w.lost[c] = true
			}
			w.root = newReceiver(false, 1, rootLimit)
			w.nodes[1].connected, w.up.connected = false, false
			w.behind = true
		}})
	}
	return append(evs,
		event{"snap", func(w *world) bool { return true }, func(w *world) { w.snapRoot() }},
		event{"crash", func(w *world) bool { return w.used.crashes < 2*w.cfg.budget.crashes }, func(w *world) {
			w.used.crashes++
			w.root = w.root.restored()
			w.snapRoot() // RestoreAggregator persists the new incarnation before it serves
			w.nodes[1].connected, w.up.connected = false, false
		}})
}

// snapRoot is WriteSnapshot on the root: capture, persist, commit.
func (w *world) snapRoot() {
	w.root.file = w.root.snapshot()
	w.root.bk.commit(w.root.file.cut)
}

func (cfg *config) events() []event {
	evs := append(nodeEvents(0), nodeEvents(1)...)
	evs = append(evs, relayEvents()...)
	return append(evs, rootEvents(cfg.durable)...)
}

// step applies one event, recording it in the trace, and then checks
// that a full book refuses a stranger's hello, which changes nothing.
func (w *world) step(ev event) {
	w.trace = append(w.trace, ev.name)
	defer func() {
		if p := recover(); p != nil {
			w.failf("panic: %v", p)
		}
	}()
	ev.do(w)
	for _, r := range []*receiver{&w.relay, &w.root} {
		if len(r.bk.members) < r.bk.limit {
			continue
		}
		if _, _, refused := r.bk.hello("stranger", 1, time.Time{}); !refused {
			w.failf("a book holding its limit of %d records admitted a stranger", r.bk.limit)
		}
	}
}

// quiesce brings a clone of the world to rest the canonical way and
// returns what is wrong with the end state.
func (w *world) quiesce() string {
	q := w.clone()
	q.step(event{name: "", do: func(q *world) {
		for i := range q.nodes {
			q.drain(&q.nodes[i])
			q.observe(&q.nodes[i])
			q.drain(&q.nodes[i])
		}
		for round := 0; round < 3; round++ {
			q.forward()
			q.drain(&q.up)
			if q.cfg.durable {
				q.snapRoot()
			}
			for _, e := range []*endpoint{&q.nodes[0], &q.nodes[1], &q.up} {
				e.connected = false // a heartbeat hello hears the latest Stable
				q.connect(e)
				q.drain(e)
			}
		}
	}})
	if q.bad != "" {
		return q.bad
	}
	for i := range q.tags {
		c := byte(i + 1)
		switch n := q.root.folded[c]; {
		case n == 0 && !q.dropped[c] && !q.lost[c]:
			return fmt.Sprintf("capture %d never folded at the root", c)
		case n > 1:
			return fmt.Sprintf("capture %d folded %d times at the root", c, n)
		}
	}
	for _, e := range []*endpoint{&q.nodes[0], &q.nodes[1], &q.up} {
		if len(e.ob.queue) != 0 {
			return fmt.Sprintf("%s still holds %d frames at rest", e.name, len(e.ob.queue))
		}
	}
	return ""
}

// key is the world's state, for dedup: everything a future event or the
// oracle reads, and none of the counters.
func (w *world) key() string {
	var b strings.Builder
	for _, e := range []*endpoint{&w.nodes[0], &w.nodes[1], &w.up} {
		o := &e.ob
		fmt.Fprintf(&b, "%s:%d/%t/%d|%d,%d,%d,", e.name, e.epoch, e.connected, e.window, o.seq, o.acked, o.aggEpoch)
		if o.sent != nil {
			fmt.Fprintf(&b, "s%d,", o.sent.Seq)
		}
		for _, f := range o.queue {
			fmt.Fprintf(&b, "%d.%d%v%s", f.Seq, f.Window, f.Payload, cutKey(f.Cut))
		}
		b.WriteByte(';')
	}
	for _, r := range []*receiver{&w.relay, &w.root} {
		r.key(&b)
		if r.file != nil {
			b.WriteString("file")
			r.file.key(&b)
		}
	}
	b.WriteString("acc")
	windows := make([]uint64, 0, len(w.acc))
	for win := range w.acc {
		windows = append(windows, win)
	}
	slices.Sort(windows)
	for _, win := range windows {
		fmt.Fprintf(&b, "%d:%v%s,", win, w.acc[win].caps, cutKey(w.acc[win].cut))
	}
	fmt.Fprintf(&b, " tags%v d%v l%v %t %+v", w.tags, w.dropped, w.lost, w.behind, w.used)
	return b.String()
}

func (r *receiver) key(b *strings.Builder) {
	fmt.Fprintf(b, "{%d,%d,%d:", r.bk.window, r.bk.epoch, r.bk.retired)
	for _, sn := range r.bk.cut() {
		fmt.Fprintf(b, "%s.%s.%d.%d.%d%s,", sn.Node, sn.State, sn.Epoch, sn.Base, r.bk.members[sn.Node].Stable, cutKey(sn.Cut))
	}
	fmt.Fprintf(b, "%v}", r.folded)
}

func (im *image) key(b *strings.Builder) {
	fmt.Fprintf(b, "{%d,%d,%d:%v", im.window, im.epoch, im.version, im.folded)
	for _, sn := range im.cut {
		fmt.Fprintf(b, "%s.%s.%d.%d%s,", sn.Node, sn.State, sn.Epoch, sn.Base, cutKey(sn.Cut))
	}
	b.WriteByte('}')
}

// cutKey is a cut's names, epochs and seqs.
func cutKey(cut []SnapNode) string {
	var b strings.Builder
	for _, sn := range cut {
		fmt.Fprintf(&b, "<%s.%d.%d>", sn.Node, sn.Epoch, sn.Base)
	}
	return b.String()
}

// clone deep-copies the world: books, outboxes and their frames (the
// sent frame mapped onto its copy), accumulators and the oracle.
func (w *world) clone() *world {
	c := *w
	for i := range c.nodes {
		c.nodes[i].ob = cloneOutbox(&w.nodes[i].ob)
	}
	c.up.ob = cloneOutbox(&w.up.ob)
	c.relay, c.root = w.relay.clone(), w.root.clone()
	c.acc = make(map[uint64]*accum, len(w.acc))
	for win, a := range w.acc {
		c.acc[win] = &accum{caps: slices.Clone(a.caps), cut: slices.Clone(a.cut)}
	}
	c.tags, c.trace = slices.Clone(w.tags), slices.Clone(w.trace)
	c.dropped, c.lost = cloneMap(w.dropped), cloneMap(w.lost)
	return &c
}

func (r *receiver) clone() receiver {
	c := *r
	c.bk.members = make(map[string]*member, len(r.bk.members))
	for name, m := range r.bk.members {
		cp := *m
		cp.cut = cloneMap(m.cut)
		c.bk.members[name] = &cp
	}
	c.folded = cloneMap(r.folded)
	return c
}

func cloneOutbox(o *outbox) outbox {
	c := *o
	c.queue = make([]*Frame, len(o.queue))
	for i, f := range o.queue {
		c.queue[i] = cloneFrame(f)
		if f == o.sent {
			c.sent = c.queue[i]
		}
	}
	if o.sent != nil && c.sent == o.sent {
		c.sent = cloneFrame(o.sent)
	}
	c.free = nil
	return c
}

func cloneFrame(f *Frame) *Frame {
	c := *f
	c.Payload = slices.Clone(f.Payload)
	return &c
}

func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	c := make(map[K]V, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// explore walks cfg breadth-first to depth and returns how many distinct
// states it covered and the first violation (with the shortest trace
// that reaches it), if any. A state is kept as the event indices that
// reach it and rebuilt when it is expanded, and deduped by a hash of its
// key, so memory grows by a few bytes per state.
func explore(cfg *config, depth int) (states int, bad *world) {
	evs := cfg.events()
	rebuild := func(path []byte) *world {
		w := newWorld(cfg)
		for _, i := range path {
			w.step(evs[i])
		}
		return w
	}
	seen := map[uint64]bool{hashKey(newWorld(cfg)): true}
	frontier := [][]byte{nil}
	for d := 0; d <= depth && len(frontier) > 0; d++ {
		var next [][]byte
		for _, path := range frontier {
			w := rebuild(path)
			if w.bad = w.quiesce(); w.bad != "" {
				return len(seen), w
			}
			if d == depth {
				continue
			}
			for i, ev := range evs {
				if !ev.ok(w) {
					continue
				}
				n := w.clone()
				n.step(ev)
				if n.bad != "" {
					return len(seen), n
				}
				if k := hashKey(n); !seen[k] {
					seen[k] = true
					next = append(next, append(slices.Clip(path), byte(i)))
				}
			}
		}
		frontier = next
	}
	return len(seen), nil
}

func hashKey(w *world) uint64 {
	h := fnv.New64a()
	h.Write([]byte(w.key()))
	return h.Sum64()
}

// line is w's trace as a replayable explore1 line.
func (w *world) line() string {
	return fmt.Sprintf("explore1 config=%s events=%s", w.cfg.name, strings.Join(w.trace, ","))
}

// replay runs one explore1 line and returns the world it ends in, with
// bad set when a step or the quiescence that follows it is wrong.
func replay(line string) (*world, error) {
	fields := strings.Fields(line)
	if len(fields) != 3 || fields[0] != "explore1" || !strings.HasPrefix(fields[1], "config=") || !strings.HasPrefix(fields[2], "events=") {
		return nil, fmt.Errorf("not an explore1 line: %q", line)
	}
	var cfg *config
	for i := range configs {
		if configs[i].name == strings.TrimPrefix(fields[1], "config=") {
			cfg = &configs[i]
		}
	}
	if cfg == nil {
		return nil, fmt.Errorf("unknown config in %q", line)
	}
	evs := cfg.events()
	w := newWorld(cfg)
	for _, name := range strings.Split(strings.TrimPrefix(fields[2], "events="), ",") {
		i := slices.IndexFunc(evs, func(ev event) bool { return ev.name == name })
		switch {
		case name == "":
			continue
		case i < 0:
			return nil, fmt.Errorf("unknown event %q in config %s", name, cfg.name)
		case !evs[i].ok(w):
			return nil, fmt.Errorf("event %q is not enabled after %v", name, w.trace)
		}
		if w.step(evs[i]); w.bad != "" {
			return w, nil
		}
		if w.bad = w.quiesce(); w.bad != "" {
			return w, nil
		}
	}
	return w, nil
}

// TestProtocolExplorer walks both configurations to -explore.depth and
// fails, printing each one's shortest trace to a violation.
func TestProtocolExplorer(t *testing.T) {
	if *exploreReplay != "" {
		w, err := replay(*exploreReplay)
		if err != nil {
			t.Fatal(err)
		}
		if w.bad != "" {
			t.Fatalf("%s\n%s", w.bad, w.line())
		}
		return
	}
	total := 0
	for i := range configs {
		cfg := &configs[i]
		states, bad := explore(cfg, *exploreDepth)
		total += states
		t.Logf("config %s: %d distinct states to depth %d", cfg.name, states, *exploreDepth)
		if bad != nil {
			t.Errorf("config %s: %s\n%s", cfg.name, bad.bad, bad.line())
		}
	}
	if total < *exploreFloor {
		t.Fatalf("the explorer covered %d distinct states, below the floor of %d", total, *exploreFloor)
	}
}

// FuzzProtocol drives the explorer's step function with random event
// strings, past the exhaustive depth: byte 0 picks the configuration,
// each later byte an event (disabled ones are skipped), and every step
// and the quiescence after the last one must hold.
func FuzzProtocol(f *testing.F) {
	f.Add([]byte{0, 0, 4, 9, 12, 14, 16})
	f.Add([]byte{1, 4, 1, 15, 0, 16, 13, 5, 0})
	f.Add([]byte("1y7b8y7b8")) // volatile: lost0,rfwd,rpush,rwipe twice — a capture once folded three times
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := configs[int(data[0])%len(configs)]
		cfg.budget = budget{caps: 4, lost: 3, drops: 3, byes: 2, rots: 3, evicts: 2, crashes: 2}
		evs := cfg.events()
		w := newWorld(&cfg)
		for _, b := range data[1:] {
			if ev := evs[int(b)%len(evs)]; ev.ok(w) {
				if w.step(ev); w.bad != "" {
					t.Fatalf("%s\n%s", w.bad, w.line())
				}
			}
		}
		if w.bad = w.quiesce(); w.bad != "" {
			t.Fatalf("%s\n%s", w.bad, w.line())
		}
	})
}
