package simtest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"csoutlier"
	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/stream"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// streamChunks is how many mid-window delta flushes the drive ships per
// node per window. The chaos budget sizing in the generators depends on
// it: more flushes per window means more guaranteed traffic per
// connection, which is what lets a generator promise every connection
// dies at least once without ever starving one.
const streamChunks = 3

// tierShards and tierRelays fix the tier topology: 2 shards, each a
// 2-tier tree of one root fed by 2 regional relays, leaf l homed on
// relay l%2 of every shard.
const (
	tierShards = 2
	tierRelays = 2
)

// MarkKind names one kind of scheduled fault.
type MarkKind int

// The fault vocabulary. Flush indices count a window's flushes from 0 in
// drive order (active node major, streamChunks per node); windows count
// from 1.
const (
	// MarkDup (dup=node): in every window, the node's last flush is
	// re-delivered verbatim straight to its aggregator and must be acked
	// as a duplicate.
	MarkDup MarkKind = iota
	// MarkNodeCrash (nodecrash=node@window): after its last flush of the
	// window the node observes a batch that dies with it (Abort), and a
	// successor dials as a new incarnation.
	MarkNodeCrash
	// MarkSnap (snap=window:flush): the aggregator writes a snapshot after
	// the flush completes.
	MarkSnap
	// MarkAggCrash (aggcrash=window:flush): the aggregator dies after the
	// flush and a successor restores from the snapshot on a new listener;
	// the nodes replay what the crash lost.
	MarkAggCrash
	// MarkJoin (join=window): an extra node, id L, participates from the
	// window on.
	MarkJoin
	// MarkLeave (leave=node@window): the node leaves gracefully after the
	// window.
	MarkLeave
	// MarkEvict (evict=node@window): after the window the node stays
	// silent until a liveness sweep retires it; its next sync resurrects
	// it with its dedup book intact.
	MarkEvict
	// MarkRelayKill (relaykill=shard@window:flush): relay 0 of the shard
	// is killed after the flush and restored from its own snapshot.
	MarkRelayKill
	// MarkProbe (probe=window): after the window's flushes, point queries
	// on the live aggregator over the newest window and the span so far.
	MarkProbe
)

// markKinds gives every kind its replay key and which of (node, window,
// flush) its value carries, written node@window:flush.
var markKinds = [...]struct {
	name                string
	node, window, flush bool
}{
	MarkDup:       {"dup", true, false, false},
	MarkNodeCrash: {"nodecrash", true, true, false},
	MarkSnap:      {"snap", false, true, true},
	MarkAggCrash:  {"aggcrash", false, true, true},
	MarkJoin:      {"join", false, true, false},
	MarkLeave:     {"leave", true, true, false},
	MarkEvict:     {"evict", true, true, false},
	MarkRelayKill: {"relaykill", true, true, true},
	MarkProbe:     {"probe", false, true, false},
}

// Mark is one scheduled fault. Node is a shard index for MarkRelayKill.
type Mark struct {
	Kind   MarkKind
	Node   int
	Window int
	Flush  int
}

// slots returns the value's scan format, its spelled-out shape, and the
// fields it fills, in order.
func (m *Mark) slots() (format, shape string, fields []*int) {
	k := markKinds[m.Kind]
	if k.node {
		format, shape, fields = "%d", "node", append(fields, &m.Node)
		if k.window {
			format, shape = format+"@", shape+"@"
		}
	}
	if k.window {
		format, shape, fields = format+"%d", shape+"window", append(fields, &m.Window)
	}
	if k.flush {
		format, shape, fields = format+":%d", shape+":flush", append(fields, &m.Flush)
	}
	return format, shape, fields
}

// String encodes the mark as its replay field.
func (m Mark) String() string {
	format, _, fields := m.slots()
	vals := make([]any, len(fields))
	for i, p := range fields {
		vals[i] = *p
	}
	return markKinds[m.Kind].name + "=" + fmt.Sprintf(format, vals...)
}

// parseMark decodes a mark's value; re-encoding must give the value
// back, which refuses trailing junk and non-canonical numbers.
func parseMark(kind MarkKind, val string) (Mark, error) {
	m := Mark{Kind: kind}
	format, shape, fields := m.slots()
	ptrs := make([]any, len(fields))
	for i, p := range fields {
		ptrs[i] = p
	}
	if _, err := fmt.Sscanf(val, format, ptrs...); err != nil || m.String() != markKinds[kind].name+"="+val {
		return m, fmt.Errorf("want %s", shape)
	}
	return m, nil
}

// StreamScenario is one fully specified streaming simulation: W windows
// of per-node data pushed as deltas into live aggregators, under a
// schedule of fault marks. Everything — data, split, kill budgets — is
// derived from the seed, and the marks are spelled out, so a failure
// replays from its one line.
//
// The outlier support is fixed across windows (magnitudes vary), so
// every window span is S-sparse around its own bias and the centralized
// oracle stays exact for every queried span, whatever the marks do.
type StreamScenario struct {
	Seed  uint64
	N     int     // key-space size
	S     int     // planted outliers (same positions every window)
	L     int     // base node count; a joiner gets id L
	W     int     // windows driven
	K     int     // outliers per span query
	Mode  float64 // base bias; per-window biases are seeded multiples
	Noise float64 // per-node zero-sum noise amplitude per window

	// Sizing is either M with an ensemble, or count-sketch Depth×Width
	// (then M = Depth·Width, per shard on the tier, and Ens is CountSketch).
	M     int
	Ens   csoutlier.Ensemble
	Depth int
	Width int

	// Tier selects the 2-shard × 2-relay tree; otherwise every node pushes
	// into one flat aggregator.
	Tier bool

	// ProxyMin/ProxyMax bound the per-connection chaos byte budget; 0:0
	// means no proxies, nodes dial their aggregator directly.
	ProxyMin int64
	ProxyMax int64

	Marks []Mark
}

// normalize puts the scenario in its canonical form: count-sketch sizing
// resolved and marks sorted, so equal scenarios are equal structs.
func (s *StreamScenario) normalize() {
	if s.Depth > 0 {
		s.Ens = csoutlier.CountSketch
		if s.M == 0 {
			s.M = s.Depth * s.Width
		}
	}
	sort.Slice(s.Marks, func(i, j int) bool {
		a, b := s.Marks[i], s.Marks[j]
		switch {
		case a.Window != b.Window:
			return a.Window < b.Window
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Node != b.Node:
			return a.Node < b.Node
		}
		return a.Flush < b.Flush
	})
}

// mark returns the scenario's mark of a kind validate admits at most
// one of, or nil.
func (s StreamScenario) mark(kind MarkKind) *Mark { return s.markAt(kind, 0) }

// markAt returns the mark of a kind due in window w (0: any), or nil.
func (s StreamScenario) markAt(kind MarkKind, w int) *Mark {
	for i := range s.Marks {
		if m := &s.Marks[i]; m.Kind == kind && (w == 0 || m.Window == w) {
			return m
		}
	}
	return nil
}

func (s StreamScenario) direct() bool { return s.ProxyMin == 0 && s.ProxyMax == 0 }

// pointQueries reports whether the scenario's aggregators answer point
// queries (the count-sketch ensemble does, Gaussian does not).
func (s StreamScenario) pointQueries() bool { return s.Ens == csoutlier.CountSketch }

// activeNodes returns the member ids participating in window w
// (1-based), ascending: the base nodes minus the leaver once it has
// left, plus the joiner from its join window on. An evicted node stays
// active — it is alive the whole time, just silent long enough to be
// evicted between two windows.
func (s StreamScenario) activeNodes(w int) []int {
	leave, join := s.mark(MarkLeave), s.mark(MarkJoin)
	var ids []int
	for l := 0; l < s.L; l++ {
		if leave != nil && l == leave.Node && w > leave.Window {
			continue
		}
		ids = append(ids, l)
	}
	if join != nil && w >= join.Window {
		ids = append(ids, s.L)
	}
	return ids
}

// proxyFrame is the most a fresh connection's first exchange puts on
// the wire: a hello, which names the node, and one delta of m
// measurements, which does not, each with its ack, sized from the push
// wire format's own overhead constants (a delta travels as pairs only
// when that is smaller than the sketch, so the sketch is the cap). A
// chaos budget below it could starve a node forever.
func proxyFrame(m int) int64 {
	return int64(csoutlier.EncodedSketchLen(m) + 2*stream.MaxDeltaOverhead + len(NodeID(0)))
}

// proxyBudgets draws a scenario's per-connection chaos byte budget
// bounds for sketches of m measurements, given how many delta flushes
// every connection's node is guaranteed to make. The minimum is one
// first exchange, so every connection makes progress; the maximum stays
// a full first exchange below the least those flushes can carry — each
// at least the smallest delta payload, one observation as a pair — and
// never below the minimum. With payloads that small the cap usually
// binds at the minimum itself: every connection then dies within a
// sketch's worth of traffic, which a run's flushes, hellos and acks
// exceed many times over, so the redial/retry/dedup path is still always
// exercised (the checker asserts Kills ≥ 1).
func proxyBudgets(m, flushes int) (min, max int64) {
	frame := proxyFrame(m)
	floorTotal := int64(flushes) * int64(stream.MinDeltaPayload+stream.MinDeltaOverhead)
	min, max = frame, 3*frame
	if cap := floorTotal - frame; max > cap {
		max = cap
	}
	if max < min {
		max = min
	}
	return min, max
}

// validate refuses scenarios the harness cannot run or cannot judge
// exactly. Three refusals are about exactness, not range:
//
//   - nodecrash and dup on one node: a duplicate carrying the dead
//     incarnation's epoch is rejected as stale, not deduplicated.
//   - aggcrash without a snap earlier in the same window: a restored
//     aggregator resumes at the snapshot's window and folds frames
//     tagged with a later one into it, where the per-window shadow
//     cannot judge them.
//   - nodecrash between the snap and the aggcrash: Abort discards the
//     node's retention buffer, so the frames the aggregator acked after
//     the snapshot die twice — lost by design, not a defect to find.
func (s StreamScenario) validate() error {
	shards, maxM := 1, s.N
	if s.Tier {
		shards, maxM = tierShards, s.N/4
	}
	switch {
	case s.N < 4*shards || s.S < 1 || s.S > s.N/(4*shards):
		return fmt.Errorf("simtest: stream scenario N=%d S=%d out of range (every shard needs S ≤ its keys/4 for a majority mode)", s.N, s.S)
	case s.L < 2:
		return fmt.Errorf("simtest: stream scenario needs ≥ 2 nodes, got %d", s.L)
	case s.W < 1:
		return fmt.Errorf("simtest: W=%d", s.W)
	case s.K < 1:
		return fmt.Errorf("simtest: K=%d", s.K)
	case s.Mode == 0:
		return fmt.Errorf("simtest: stream scenarios need a nonzero mode (every node must flush every window)")
	case (s.Depth != 0 || s.Width != 0) && (s.Depth < 1 || s.Depth > 64):
		return fmt.Errorf("simtest: depth %d outside [1, 64]", s.Depth)
	case s.Depth != 0 && s.Width < 2:
		return fmt.Errorf("simtest: width %d < 2", s.Width)
	case s.Depth != 0 && s.M != s.Depth*s.Width:
		return fmt.Errorf("simtest: M=%d is not depth %d × width %d", s.M, s.Depth, s.Width)
	case s.M < 2 || s.M > maxM:
		return fmt.Errorf("simtest: M=%d outside [2, %d] (no compression; on the tier a shard holds N/2 keys)", s.M, maxM)
	case !s.direct() && (s.ProxyMin < proxyFrame(s.M) || s.ProxyMax < s.ProxyMin):
		return fmt.Errorf("simtest: proxy budget [%d, %d] cannot pass a full frame", s.ProxyMin, s.ProxyMax)
	}
	for i, m := range s.Marks {
		k := markKinds[m.Kind]
		switch {
		case i > 0 && m == s.Marks[i-1], m.Kind != MarkProbe && s.mark(m.Kind) != &s.Marks[i]:
			return fmt.Errorf("simtest: more than one %s mark", k.name)
		case k.window && (m.Window < 1 || m.Window > s.W):
			return fmt.Errorf("simtest: %s window outside [1, %d]", m, s.W)
		case k.flush && (m.Flush < 0 || m.Flush >= len(s.activeNodes(m.Window))*streamChunks):
			return fmt.Errorf("simtest: %s flush outside [0, %d)", m, len(s.activeNodes(m.Window))*streamChunks)
		case k.node && m.Kind != MarkRelayKill && (m.Node < 0 || m.Node >= s.L):
			return fmt.Errorf("simtest: %s node outside [0, %d)", m, s.L)
		case s.Tier && m.Kind != MarkRelayKill && m.Kind != MarkProbe:
			return fmt.Errorf("simtest: %s on the tier topology (its roots are not durable and its leaves do not restart; only relaykill and probe run there)", m)
		case m.Kind == MarkProbe && !s.pointQueries():
			return fmt.Errorf("simtest: %s needs count-sketch sizing (d= and wid=); a Gaussian sketch answers no point query", m)
		}
	}
	crash, dup := s.mark(MarkNodeCrash), s.mark(MarkDup)
	snap, aggCrash := s.mark(MarkSnap), s.mark(MarkAggCrash)
	join, leave, evict := s.mark(MarkJoin), s.mark(MarkLeave), s.mark(MarkEvict)
	kill := s.mark(MarkRelayKill)
	switch {
	case crash != nil && dup != nil && crash.Node == dup.Node:
		return fmt.Errorf("simtest: crash and dup node coincide (a stale-epoch dup is rejected, not deduped)")
	case crash != nil && leave != nil && crash.Node == leave.Node && crash.Window > leave.Window:
		return fmt.Errorf("simtest: %s after the node left (%s)", crash, leave)
	case aggCrash != nil && (snap == nil || snap.Window != aggCrash.Window || snap.Flush >= aggCrash.Flush):
		return fmt.Errorf("simtest: %s needs a snap earlier in the same window (a restored aggregator resumes at the snapshot's window and folds later frames into it, which the per-window shadow cannot judge)", aggCrash)
	case (aggCrash != nil || kill != nil) && s.direct():
		return fmt.Errorf("simtest: a restore comes back on a new listener and only a chaos proxy can retarget a node; proxy=0:0 dials direct")
	case aggCrash != nil && crash != nil && crash.Window == snap.Window && s.gapCrash(*crash, *snap, *aggCrash):
		return fmt.Errorf("simtest: %s falls between %s and %s: Abort takes the node's retention buffer with it, so frames acked in that gap are lost by design", crash, snap, aggCrash)
	case (join != nil || leave != nil || evict != nil) && s.L < 3:
		return fmt.Errorf("simtest: membership churn needs ≥ 3 base nodes, got %d", s.L)
	case join != nil && join.Window < 2:
		return fmt.Errorf("simtest: join window %d outside [2, %d]", join.Window, s.W)
	case leave != nil && evict != nil && leave.Node == evict.Node:
		return fmt.Errorf("simtest: leave and evict node coincide")
	case evict != nil && evict.Window >= s.W:
		return fmt.Errorf("simtest: evict window %d outside [1, %d) (a window must follow the resurrection)", evict.Window, s.W)
	case kill != nil && !s.Tier:
		return fmt.Errorf("simtest: %s needs topo=tier", kill)
	case kill != nil && (kill.Node < 0 || kill.Node >= tierShards):
		return fmt.Errorf("simtest: kill shard %d outside [0, %d)", kill.Node, tierShards)
	case kill != nil && (kill.Window < 2 || kill.Flush < 1):
		return fmt.Errorf("simtest: %s loses nothing (window ≥ 2 so a forwarded window precedes the kill, flush ≥ 1 so the victim holds an unforwarded frame)", kill)
	}
	return nil
}

// gapCrash reports whether the node crash fires strictly between the
// snapshot and the aggregator crash of its window. A node's crash fires
// after its last flush; marks keyed by that flush fire first.
func (s StreamScenario) gapCrash(crash, snap, aggCrash Mark) bool {
	for i, id := range s.activeNodes(crash.Window) {
		if id == crash.Node {
			f := i*streamChunks + streamChunks - 1
			return snap.Flush < f && f < aggCrash.Flush
		}
	}
	return false
}

// String encodes the scenario as a replayable stream2 line.
func (s StreamScenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream2 seed=%d n=%d s=%d l=%d w=%d k=%d mode=%g noise=%g", s.Seed, s.N, s.S, s.L, s.W, s.K, s.Mode, s.Noise)
	if s.Depth > 0 {
		fmt.Fprintf(&b, " d=%d wid=%d", s.Depth, s.Width)
	} else {
		fmt.Fprintf(&b, " m=%d ens=%s", s.M, s.Ens)
	}
	if s.Tier {
		b.WriteString(" topo=tier")
	}
	if !s.direct() {
		fmt.Fprintf(&b, " proxy=%d:%d", s.ProxyMin, s.ProxyMax)
	}
	for _, m := range s.Marks {
		b.WriteString(" " + m.String())
	}
	return b.String()
}

// fields is the streaming replay grammar: the shared base keys, the
// streaming ones, and one key per mark kind.
func (s *StreamScenario) fields() fieldTable {
	t := baseFields(&s.Seed, &s.N, &s.S, &s.L, &s.M, &s.K, &s.Mode, &s.Noise, &s.Ens)
	t["w"] = intField(&s.W)
	t["d"] = intField(&s.Depth)
	t["wid"] = intField(&s.Width)
	t["topo"] = func(v string) error {
		if v != "flat" && v != "tier" {
			return fmt.Errorf("want flat or tier")
		}
		s.Tier = v == "tier"
		return nil
	}
	t["proxy"] = func(v string) error {
		lo, hi, ok := strings.Cut(v, ":")
		if !ok {
			return fmt.Errorf("want min:max")
		}
		var err error
		if s.ProxyMin, err = strconv.ParseInt(lo, 10, 64); err == nil {
			s.ProxyMax, err = strconv.ParseInt(hi, 10, 64)
		}
		return err
	}
	for kind := range markKinds {
		kind := MarkKind(kind)
		t[markKinds[kind].name] = func(v string) error {
			m, err := parseMark(kind, v)
			if err == nil {
				s.Marks = append(s.Marks, m)
			}
			return err
		}
	}
	return t
}

// ParseStreamScenario decodes a StreamScenario.String() line.
func ParseStreamScenario(line string) (StreamScenario, error) {
	var scn StreamScenario
	err := parseReplayLine(line, func(prefix string) (fieldTable, error) {
		if prefix != "stream2" {
			return nil, fmt.Errorf("simtest: unknown streaming scenario prefix %q", prefix)
		}
		return scn.fields(), nil
	})
	if err != nil {
		return StreamScenario{}, err
	}
	scn.normalize()
	return scn, scn.validate()
}

// StreamData is a StreamScenario's materialized world: per-window exact
// global aggregates (the oracle's ground truth) and their per-node
// splits.
type StreamData struct {
	Keys      []string
	Support   []int             // planted outlier positions, fixed across windows
	WinGlobal []linalg.Vector   // [w] exact global aggregate of window w+1
	WinSlices [][]linalg.Vector // [w][i] the share of window w+1's i-th active node
}

// BuildStream materializes the scenario deterministically: W windows of
// globally S-sparse data around a per-window bias, window w split among
// its active members — so the global per-window aggregates, and
// therefore the oracle, are independent of the churn.
func (s StreamScenario) BuildStream() (*StreamData, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(s.Seed)
	d := &StreamData{Keys: make([]string, s.N)}
	for i := range d.Keys {
		d.Keys[i] = fmt.Sprintf("key%06d", i)
	}
	d.Support = pickDistinct(rng, s.N, s.S)
	mag0 := 100 + 900*rng.Float64()
	for w := 1; w <= s.W; w++ {
		wmode := s.Mode * (0.6 + 0.8*rng.Float64())
		global := make(linalg.Vector, s.N)
		global.Fill(wmode)
		for _, j := range d.Support {
			mag := mag0 * (1 + 9*rng.Float64())
			if rng.Float64() < 0.5 {
				mag = -mag
			}
			global[j] = wmode + mag
		}
		d.WinGlobal = append(d.WinGlobal, global)
		d.WinSlices = append(d.WinSlices, workload.SplitZeroSumNoise(global, len(s.activeNodes(w)), s.Noise, rng.Uint64()))
	}
	return d, nil
}

// spanTruth is the exact centralized ground truth for one window span:
// the uncompressed aggregate and its exact majority mode.
type spanTruth struct {
	sum  linalg.Vector
	mode float64
}

// truthFor sums windows [wFrom, wTo] (1-based, inclusive).
func (d *StreamData) truthFor(wFrom, wTo int) (spanTruth, error) {
	sum := make(linalg.Vector, len(d.Keys))
	for w := wFrom; w <= wTo; w++ {
		sum.Add(d.WinGlobal[w-1])
	}
	mode, ok := outlier.Mode(sum)
	if !ok {
		return spanTruth{}, fmt.Errorf("simtest: span [%d,%d] has no exact majority mode", wFrom, wTo)
	}
	return spanTruth{sum: sum, mode: mode}, nil
}

// streamSpanOracle is the centralized exact oracle every streaming
// scenario is judged by: the k-outlier answer on the concatenation of
// windows [wFrom, wTo].
func streamSpanOracle(k int, d *StreamData, wFrom, wTo int) (*OracleAnswer, error) {
	tr, err := d.truthFor(wFrom, wTo)
	if err != nil {
		return nil, err
	}
	ans := &OracleAnswer{Mode: tr.mode}
	for _, kv := range outlier.TopK(tr.sum, tr.mode, k) {
		ans.Outliers = append(ans.Outliers, csoutlier.Outlier{Key: d.Keys[kv.Index], Value: kv.Value})
	}
	return ans, nil
}
