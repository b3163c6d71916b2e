package simtest

import (
	"context"
	"fmt"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"csoutlier"
	"csoutlier/internal/sensing"
	"csoutlier/internal/stream"
	"csoutlier/internal/xrand"
)

// StreamChurnScenario is a dynamic-membership soak: the base L nodes
// are joined mid-run by an extra node (id L), one base node leaves
// gracefully, and another goes silent long enough to be evicted — then
// comes back and is resurrected with its dedup book intact. All of it
// runs under the usual chaos TCP proxies. The per-window data split
// follows the active member set, so the centralized oracle stays exact
// for every window span, and the checker holds the pipeline to the same
// bit-identical window standard as the steady-state soak plus a
// conservation invariant: every capture on every node is folded exactly
// once (no shedding is configured, so shed counters must stay zero).
type StreamChurnScenario struct {
	Seed  uint64
	N     int     // key-space size
	S     int     // planted outliers (same positions every window)
	L     int     // base node count; the joiner gets id L
	W     int     // windows driven
	M     int     // measurement budget
	K     int     // outliers per query
	Mode  float64 // base bias; per-window biases are seeded multiples
	Noise float64 // per-node zero-sum noise amplitude per window
	Ens   csoutlier.Ensemble

	JoinWindow  int // window (1-based, ≥ 2) the joiner participates from
	LeaveNode   int // base node that leaves gracefully after LeaveWindow
	LeaveWindow int
	EvictNode   int // base node evicted after EvictWindow, resurrected next window
	EvictWindow int // < W, so a window always follows the resurrection

	ProxyMin int64 // per-connection chaos byte budget bounds
	ProxyMax int64
}

// GenerateStreamChurn derives membership-churn scenario index from the
// base seed.
func GenerateStreamChurn(base uint64, index int) StreamChurnScenario {
	rng := xrand.New(base).Split(uint64(index) + 0xc41712a7)
	scn := StreamChurnScenario{Seed: rng.Uint64()}
	scn.S = 1 + rng.Intn(5)
	scn.N = 120 + rng.Intn(321)
	margin := drawMargin(rng)
	for {
		scn.M = measurementsFor(scn.N, scn.S, margin)
		if scn.M <= scn.N*3/5 || scn.S == 1 {
			break
		}
		scn.S--
	}
	scn.K = 1 + rng.Intn(scn.S+1)
	scn.Mode = 100 + 4900*rng.Float64()
	if rng.Float64() < 0.5 {
		scn.Mode = -scn.Mode
	}
	if rng.Float64() < 0.6 {
		scn.Noise = (math.Abs(scn.Mode) + 500) * (0.1 + rng.Float64())
	}
	scn.L = 4 + rng.Intn(3)
	scn.W = 3 + rng.Intn(2)
	scn.JoinWindow = 2 + rng.Intn(scn.W-1)
	scn.LeaveNode = rng.Intn(scn.L)
	scn.LeaveWindow = 1 + rng.Intn(scn.W)
	scn.EvictNode = (scn.LeaveNode + 1 + rng.Intn(scn.L-1)) % scn.L
	scn.EvictWindow = 1 + rng.Intn(scn.W-1)
	minPart := scn.LeaveWindow
	if joinPart := scn.W - scn.JoinWindow + 1; joinPart < minPart {
		minPart = joinPart
	}
	scn.ProxyMin, scn.ProxyMax = proxyBudgets(scn.M, streamChunks*minPart)
	return scn
}

func (s StreamChurnScenario) validate() error {
	switch {
	case s.N < 4 || s.S < 1 || s.S > s.N/4:
		return fmt.Errorf("simtest: churn scenario N=%d S=%d out of range", s.N, s.S)
	case s.L < 3:
		return fmt.Errorf("simtest: churn scenario needs ≥ 3 base nodes, got %d", s.L)
	case s.W < 2:
		return fmt.Errorf("simtest: churn scenario needs ≥ 2 windows, got %d", s.W)
	case s.M < 2 || s.M > s.N:
		return fmt.Errorf("simtest: M=%d outside [2, N]", s.M)
	case s.K < 1:
		return fmt.Errorf("simtest: K=%d", s.K)
	case s.Mode == 0:
		return fmt.Errorf("simtest: churn scenarios need a nonzero mode")
	case s.JoinWindow < 2 || s.JoinWindow > s.W:
		return fmt.Errorf("simtest: join window %d outside [2, %d]", s.JoinWindow, s.W)
	case s.LeaveNode < 0 || s.LeaveNode >= s.L || s.EvictNode < 0 || s.EvictNode >= s.L:
		return fmt.Errorf("simtest: churn nodes %d/%d outside [0, %d)", s.LeaveNode, s.EvictNode, s.L)
	case s.LeaveNode == s.EvictNode:
		return fmt.Errorf("simtest: leave and evict node coincide")
	case s.LeaveWindow < 1 || s.LeaveWindow > s.W:
		return fmt.Errorf("simtest: leave window %d outside [1, %d]", s.LeaveWindow, s.W)
	case s.EvictWindow < 1 || s.EvictWindow >= s.W:
		return fmt.Errorf("simtest: evict window %d outside [1, %d) (a window must follow the resurrection)", s.EvictWindow, s.W)
	case s.ProxyMin < proxyFrame(s.M) || s.ProxyMax < s.ProxyMin:
		return fmt.Errorf("simtest: proxy budget [%d, %d] cannot pass a full frame", s.ProxyMin, s.ProxyMax)
	}
	return nil
}

// String encodes the scenario as a replayable one-liner.
func (s StreamChurnScenario) String() string {
	return fmt.Sprintf("streamchurn1 seed=%d n=%d s=%d l=%d w=%d m=%d k=%d mode=%g noise=%g ens=%s join=%d leave=%d@%d evict=%d@%d proxy=%d:%d",
		s.Seed, s.N, s.S, s.L, s.W, s.M, s.K, s.Mode, s.Noise, s.Ens,
		s.JoinWindow, s.LeaveNode, s.LeaveWindow, s.EvictNode, s.EvictWindow, s.ProxyMin, s.ProxyMax)
}

// ParseStreamChurnScenario decodes a StreamChurnScenario.String() line.
func ParseStreamChurnScenario(line string) (StreamChurnScenario, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 || fields[0] != "streamchurn1" {
		return StreamChurnScenario{}, fmt.Errorf("simtest: churn scenario line must start with %q", "streamchurn1")
	}
	var scn StreamChurnScenario
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return StreamChurnScenario{}, fmt.Errorf("simtest: malformed field %q", f)
		}
		var err error
		switch key {
		case "seed":
			scn.Seed, err = strconv.ParseUint(val, 10, 64)
		case "n":
			scn.N, err = strconv.Atoi(val)
		case "s":
			scn.S, err = strconv.Atoi(val)
		case "l":
			scn.L, err = strconv.Atoi(val)
		case "w":
			scn.W, err = strconv.Atoi(val)
		case "m":
			scn.M, err = strconv.Atoi(val)
		case "k":
			scn.K, err = strconv.Atoi(val)
		case "mode":
			scn.Mode, err = strconv.ParseFloat(val, 64)
		case "noise":
			scn.Noise, err = strconv.ParseFloat(val, 64)
		case "ens":
			scn.Ens, err = sensing.ParseKind(val)
		case "join":
			scn.JoinWindow, err = strconv.Atoi(val)
		case "leave":
			node, win, ok := strings.Cut(val, "@")
			if !ok {
				err = fmt.Errorf("want node@window")
				break
			}
			if scn.LeaveNode, err = strconv.Atoi(node); err == nil {
				scn.LeaveWindow, err = strconv.Atoi(win)
			}
		case "evict":
			node, win, ok := strings.Cut(val, "@")
			if !ok {
				err = fmt.Errorf("want node@window")
				break
			}
			if scn.EvictNode, err = strconv.Atoi(node); err == nil {
				scn.EvictWindow, err = strconv.Atoi(win)
			}
		case "proxy":
			lo, hi, ok := strings.Cut(val, ":")
			if !ok {
				err = fmt.Errorf("want min:max")
				break
			}
			if scn.ProxyMin, err = strconv.ParseInt(lo, 10, 64); err == nil {
				scn.ProxyMax, err = strconv.ParseInt(hi, 10, 64)
			}
		default:
			err = fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return StreamChurnScenario{}, fmt.Errorf("simtest: field %q: %v", f, err)
		}
	}
	return scn, scn.validate()
}

// activeNodes returns the member ids participating in window w
// (1-based), ascending: the base nodes minus the leaver once it has
// left, plus the joiner from its join window on. The evicted node stays
// active — it is alive the whole time, just silent long enough to be
// evicted between two windows.
func (s StreamChurnScenario) activeNodes(w int) []int {
	var ids []int
	for l := 0; l < s.L; l++ {
		if l == s.LeaveNode && w > s.LeaveWindow {
			continue
		}
		ids = append(ids, l)
	}
	if w >= s.JoinWindow {
		ids = append(ids, s.L)
	}
	sort.Ints(ids)
	return ids
}

// BuildStream materializes the scenario deterministically: window w is
// split among its active member count, so the global per-window
// aggregates — and therefore the oracle — are independent of the churn.
func (s StreamChurnScenario) BuildStream() (*StreamData, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	splits := make([]int, s.W)
	for w := range splits {
		splits[w] = len(s.activeNodes(w + 1))
	}
	return buildStreamData(s.Seed, s.N, s.S, s.Mode, s.Noise, splits), nil
}

// StreamChurnResult is what RunStreamChurn hands to the checker.
type StreamChurnResult struct {
	Agg      *stream.Aggregator
	Sk       *csoutlier.Sketcher
	Expected []csoutlier.Sketch // [w] bit-exact shadow of the fold sequence
	Kills    int64              // chaos-proxy connection kills
	Captured int64              // total captures across every participant
}

// RunStreamChurn executes the churn pipeline: the base nodes drive
// windows as usual; the joiner dials in at its window, the leaver
// flushes and announces a bye, and the evictee goes silent after its
// last flush of EvictWindow until a liveness sweep retires it — its
// next-window sync resurrects it, dedup book intact.
func RunStreamChurn(scn StreamChurnScenario, data *StreamData) (*StreamChurnResult, error) {
	sk, err := csoutlier.NewSketcher(data.Keys, csoutlier.Config{
		M:             scn.M,
		Seed:          scn.Seed ^ 0x9e3779b97f4a7c15,
		MaxIterations: recoveryBudget(scn.S, scn.K),
		Ensemble:      scn.Ens,
	})
	if err != nil {
		return nil, err
	}
	agg, err := stream.NewAggregator(sk, stream.AggregatorOptions{Windows: scn.W})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go agg.Serve(ln)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	closeAgg := func() {
		cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
		agg.Close(cctx)
		ccancel()
	}

	P := scn.L + 1 // base nodes plus the joiner
	proxies := make([]*chaosProxy, P)
	proxySeed := xrand.New(scn.Seed).Split(0x9097)
	for l := range proxies {
		p, err := startChaosProxy(ln.Addr().String(), proxySeed.Uint64(), scn.ProxyMin, scn.ProxyMax)
		if err != nil {
			closeAgg()
			return nil, err
		}
		defer p.Stop()
		proxies[l] = p
	}

	dial := func(l int) (*stream.Node, error) {
		return stream.Dial(ctx, proxies[l].Addr(), sk, NodeID(l), stream.NodeOptions{
			Epoch:       1,
			PushTimeout: 2 * time.Second,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			BackoffSeed: xrand.New(scn.Seed).Split(0xbac0ff ^ uint64(l)<<8).Uint64(),
		})
	}
	nodes := make([]*stream.Node, P)
	shadow := make([]*csoutlier.Updater, P)
	left := make([]bool, P)
	for l := 0; l < scn.L; l++ {
		n, err := dial(l)
		if err != nil {
			closeAgg()
			return nil, fmt.Errorf("simtest: dial node %d: %w", l, err)
		}
		nodes[l] = n
		shadow[l] = sk.NewUpdater()
	}
	shadow[scn.L] = sk.NewUpdater()

	res := &StreamChurnResult{Agg: agg, Sk: sk}
	scratch := sk.ZeroSketch()
	for w := 1; w <= scn.W; w++ {
		if w == scn.JoinWindow {
			n, err := dial(scn.L)
			if err != nil {
				closeAgg()
				return nil, fmt.Errorf("simtest: dial joiner: %w", err)
			}
			nodes[scn.L] = n
		}
		active := scn.activeNodes(w)
		expected := sk.ZeroSketch()
		for i, id := range active {
			slice := data.WinSlices[w-1][i]
			for c := 0; c < streamChunks; c++ {
				lo, hi := len(slice)*c/streamChunks, len(slice)*(c+1)/streamChunks
				for idx := lo; idx < hi; idx++ {
					v := slice[idx]
					if v == 0 {
						continue
					}
					if err := nodes[id].Observe(data.Keys[idx], v); err != nil {
						closeAgg()
						return nil, fmt.Errorf("simtest: node %d observe: %w", id, err)
					}
					if err := shadow[id].Observe(data.Keys[idx], v); err != nil {
						closeAgg()
						return nil, err
					}
				}
				if err := nodes[id].Flush(ctx); err != nil {
					closeAgg()
					return nil, fmt.Errorf("simtest: node %d flush (window %d): %w", id, w, err)
				}
				if _, err := shadow[id].DrainInto(scratch); err != nil {
					closeAgg()
					return nil, err
				}
				if err := expected.Add(scratch); err != nil {
					closeAgg()
					return nil, err
				}
			}
		}
		res.Expected = append(res.Expected, expected)

		if w == scn.LeaveWindow {
			// Graceful leave; the bye exchange runs through chaos, so retry
			// (Leave is idempotent) until it lands.
			var lerr error
			for attempt := 0; attempt < 20; attempt++ {
				if lerr = nodes[scn.LeaveNode].Leave(ctx); lerr == nil {
					break
				}
			}
			if lerr != nil {
				closeAgg()
				return nil, fmt.Errorf("simtest: node %d leave: %w", scn.LeaveNode, lerr)
			}
			left[scn.LeaveNode] = true
		}
		if w == scn.EvictWindow {
			if err := evictDeterministically(ctx, agg, nodes, left, scn.EvictNode); err != nil {
				closeAgg()
				return nil, err
			}
		}
		if w < scn.W {
			agg.Rotate()
			for id := range nodes {
				if nodes[id] == nil || left[id] {
					continue
				}
				// The evictee's sync is its comeback: the hello resurrects
				// its tombstone, dedup book intact.
				if err := nodes[id].Sync(ctx); err != nil {
					closeAgg()
					return nil, fmt.Errorf("simtest: node %d sync: %w", id, err)
				}
			}
		}
	}

	for id := range nodes {
		if nodes[id] == nil || left[id] {
			continue
		}
		if err := nodes[id].Close(ctx); err != nil {
			closeAgg()
			return nil, fmt.Errorf("simtest: node %d close: %w", id, err)
		}
	}
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = agg.Close(cctx)
	ccancel()
	if err != nil {
		return nil, err
	}
	for id := range nodes {
		if nodes[id] != nil {
			res.Captured += nodes[id].Stats().Captured
		}
	}
	for _, p := range proxies {
		res.Kills += p.Kills()
	}
	return res, nil
}

// evictDeterministically retires exactly the target node via the
// liveness sweep: it refreshes every other live node's LastSeen, reads
// the aggregator's own liveness table, and calls EvictIdle with a
// threshold that provably separates the silent target from the
// just-refreshed rest — retrying (the target only gets older) until the
// separation holds with margin.
func evictDeterministically(ctx context.Context, agg *stream.Aggregator, nodes []*stream.Node, left []bool, target int) error {
	targetID := NodeID(target)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("simtest: could not separate node %d for eviction", target)
		}
		for id := range nodes {
			if nodes[id] == nil || left[id] || id == target {
				continue
			}
			if err := nodes[id].Sync(ctx); err != nil {
				return fmt.Errorf("simtest: node %d pre-evict sync: %w", id, err)
			}
		}
		var targetSeen time.Time
		freshest := time.Duration(math.MaxInt64)
		staleOther := time.Duration(0)
		for _, ns := range agg.Nodes() {
			if ns.State != stream.StateLive {
				continue
			}
			age := time.Since(ns.LastSeen)
			if ns.Node == targetID {
				targetSeen = ns.LastSeen
				continue
			}
			if age < freshest {
				freshest = age
			}
			if age > staleOther {
				staleOther = age
			}
		}
		if targetSeen.IsZero() {
			return fmt.Errorf("simtest: evict target %s not live", targetID)
		}
		threshold := time.Since(targetSeen) / 2
		// Proceed only when every other node is fresher than a quarter of
		// the threshold — enough margin that the sweep below cannot
		// misfire even if this goroutine stalls briefly.
		if threshold >= 20*time.Millisecond && staleOther < threshold/4 {
			if got := agg.EvictIdle(threshold); got != 1 {
				return fmt.Errorf("simtest: EvictIdle(%v) evicted %d nodes, want exactly the silent target", threshold, got)
			}
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// CheckStreamChurnScenario materializes and runs one membership-churn
// scenario, then checks: (1) bit-identical per-window sketches against
// the shadow fold; (2) span outliers vs the exact centralized oracle;
// (3) the membership ledger — join/leave/evict/resurrect counts, final
// states, tombstones — and the conservation invariant that every
// capture was folded exactly once.
func CheckStreamChurnScenario(scn StreamChurnScenario) error {
	data, err := scn.BuildStream()
	if err != nil {
		return err
	}
	res, err := RunStreamChurn(scn, data)
	if err != nil {
		return err
	}
	if res.Kills < 1 {
		return fmt.Errorf("chaos proxies killed no connections; budgets [%d, %d] too generous for this schedule",
			scn.ProxyMin, scn.ProxyMax)
	}

	// (1) Bit-identical per-window global sketches.
	for w := 1; w <= scn.W; w++ {
		age := scn.W - w
		got, err := res.Agg.WindowSketch(age)
		if err != nil {
			return fmt.Errorf("window %d (age %d): %w", w, age, err)
		}
		want := res.Expected[w-1]
		for i := range got.Y {
			if math.Float64bits(got.Y[i]) != math.Float64bits(want.Y[i]) {
				return fmt.Errorf("window %d sketch diverges from shadow fold at Y[%d]: %v != %v (bit-exact)",
					w, i, got.Y[i], want.Y[i])
			}
		}
	}

	// (2) Span outliers vs the exact centralized oracle.
	for from := 0; from < scn.W; from++ {
		for to := from; to < scn.W; to++ {
			rep, err := res.Agg.Outliers(from, to, scn.K)
			if err != nil {
				return fmt.Errorf("span [%d,%d]: %w", from, to, err)
			}
			ans, err := streamSpanOracle(scn.N, scn.K, data, scn.W-to, scn.W-from)
			if err != nil {
				return err
			}
			if err := compareReport(rep, ans); err != nil {
				return fmt.Errorf("span [%d,%d] differential oracle: %w", from, to, err)
			}
		}
	}

	// (3) Membership ledger and conservation.
	stats := res.Agg.Stats()
	if stats.Frames != stats.Applied+stats.Duplicates+stats.Dropped+stats.Rejected {
		return fmt.Errorf("frame identity violated: %d frames != %d applied + %d dup + %d dropped + %d rejected",
			stats.Frames, stats.Applied, stats.Duplicates, stats.Dropped, stats.Rejected)
	}
	// Conservation: no shedding is configured, so applied frames must
	// account for every capture on every participant — each folded
	// exactly once, none dropped, none silently lost to the churn.
	switch {
	case stats.ShedFrames != 0 || stats.ShedFolds != 0:
		return fmt.Errorf("shed counters moved without shedding configured: %+v", stats)
	case stats.Dropped != 0:
		return fmt.Errorf("%d frames dropped as older than the ring; churn must not lose deltas", stats.Dropped)
	case stats.Applied != res.Captured:
		return fmt.Errorf("conservation violated: %d frames applied, %d captures taken across all nodes",
			stats.Applied, res.Captured)
	}
	wantJoins := int64(scn.L) + 2 // initial joins + the joiner + the evictee's resurrection
	switch {
	case stats.Joins != wantJoins:
		return fmt.Errorf("joins = %d, want %d (base %d + joiner + resurrection)", stats.Joins, wantJoins, scn.L)
	case stats.Leaves != 1:
		return fmt.Errorf("leaves = %d, want 1", stats.Leaves)
	case stats.Evictions != 1:
		return fmt.Errorf("evictions = %d, want 1", stats.Evictions)
	case stats.Tombstones != 1:
		return fmt.Errorf("tombstones = %d, want 1 (the leaver; the evictee was resurrected)", stats.Tombstones)
	case stats.Membership != uint64(wantJoins)+2:
		return fmt.Errorf("membership version = %d, want %d (every join, leave and eviction bumps it)",
			stats.Membership, wantJoins+2)
	case stats.AggEpoch != 1:
		return fmt.Errorf("aggregator epoch = %d, want 1 (no restore in this scenario)", stats.AggEpoch)
	}
	sts := res.Agg.Nodes()
	if len(sts) != scn.L+1 {
		return fmt.Errorf("%d nodes in liveness table, want %d", len(sts), scn.L+1)
	}
	for _, ns := range sts {
		id := -1
		fmt.Sscanf(ns.Node, "node%d", &id)
		if id == scn.LeaveNode {
			if ns.State != stream.StateLeft {
				return fmt.Errorf("leaver status %+v, want state %q", ns, stream.StateLeft)
			}
			continue
		}
		switch {
		case ns.State != stream.StateLive:
			return fmt.Errorf("node %s state %q at quiescence, want live", ns.Node, ns.State)
		case ns.Epoch != 1:
			return fmt.Errorf("node %s status %+v, want epoch 1", ns.Node, ns)
		case ns.Lag != 0:
			return fmt.Errorf("node %s still lags after final sync: %+v", ns.Node, ns)
		}
	}
	return nil
}
