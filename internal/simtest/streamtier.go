package simtest

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"csoutlier"
	"csoutlier/internal/stream"
	"csoutlier/internal/tier"
	"csoutlier/internal/xrand"
)

// tierShards and tierRelays fix the streamtier1 topology: 2 shards,
// each a 2-tier tree of one root fed by 2 regional relays, leaf l
// homed on relay l%2 of every shard.
const (
	tierShards = 2
	tierRelays = 2
)

// tierCleanProbes is how many non-planted keys the final watch list
// carries alongside the planted outliers.
const tierCleanProbes = 24

// StreamTierScenario is one fully specified hierarchical-tier soak: L
// leaf data centers pushing count-sketch deltas through chaos TCP
// proxies into a 2-tier × 2-shard tree (per shard: 2 regional relays
// feeding one root), with a mid-run kill/restore of one relay. The
// checker demands each shard root's windows be bit-identical to a flat
// shadow fold of the same deltas, the routed span and point answers
// exact against the centralized oracle, and every leaf capture folded
// at its root exactly once.
type StreamTierScenario struct {
	Seed  uint64
	N     int     // global key-space size (split near-evenly across shards)
	S     int     // planted outliers (same positions every window)
	L     int     // leaf data centers
	W     int     // windows driven
	Depth int     // count-sketch hash rows (per-shard M = Depth·Width)
	Width int     // count-sketch buckets per row
	K     int     // outliers per global span top-k query
	Mode  float64 // base bias; per-window biases are seeded multiples
	Noise float64 // per-node zero-sum noise amplitude per window

	// The fault: relay 0 of shard KillShard is killed (no graceful
	// flush) after global flush KillFlush (0-based, l-major over the
	// window's L·streamChunks flushes) of window KillWindow, then
	// restored from its own snapshot on a fresh listener. KillWindow ≥ 2
	// so at least one forwarded window precedes the crash; KillFlush ≥ 1
	// so the victim holds at least one unforwarded leaf frame (flush 1
	// is leaf 0's middle chunk, which straddles both shards).
	KillShard  int
	KillWindow int
	KillFlush  int

	ProxyMin int64 // per-connection chaos byte budget bounds
	ProxyMax int64
}

// M is the per-shard measurement budget: Depth hash rows of Width
// buckets each.
func (s StreamTierScenario) M() int { return s.Depth * s.Width }

// GenerateStreamTier derives tier scenario index from the base seed.
// Sizing follows the point-query soak (count-sketch wide enough that
// clean medians stay exact) with N ≥ 4M so each shard of N/2 keys
// keeps the ≥ 2× compression floor.
func GenerateStreamTier(base uint64, index int) StreamTierScenario {
	rng := xrand.New(base).Split(uint64(index) + 0x71e2aa01)
	scn := StreamTierScenario{Seed: rng.Uint64()}
	scn.S = 1 + rng.Intn(3)
	scn.Depth = 7
	scn.Width = 96 + 32*rng.Intn(2) // 96 or 128 buckets
	m := scn.M()
	scn.N = 4*m + rng.Intn(m+1)
	scn.K = 1 + rng.Intn(scn.S+1)
	scn.Mode = 100 + 4900*rng.Float64()
	if rng.Float64() < 0.5 {
		scn.Mode = -scn.Mode
	}
	if rng.Float64() < 0.6 {
		scn.Noise = (math.Abs(scn.Mode) + 500) * (0.1 + rng.Float64())
	}
	scn.L = 4 + rng.Intn(2)
	scn.W = 2 + rng.Intn(2)
	scn.KillShard = rng.Intn(tierShards)
	scn.KillWindow = 2 + rng.Intn(scn.W-1)
	scn.KillFlush = 1 + rng.Intn(scn.L*streamChunks-1)
	scn.ProxyMin, scn.ProxyMax = proxyBudgets(m, streamChunks*scn.W)
	return scn
}

func (s StreamTierScenario) validate() error {
	switch {
	case s.N < 8 || s.S < 1 || s.S > s.N/8:
		return fmt.Errorf("simtest: tier scenario N=%d S=%d out of range (need S ≤ N/8 for per-shard majority)", s.N, s.S)
	case s.L < 2:
		return fmt.Errorf("simtest: tier scenario needs ≥ 2 leaves, got %d", s.L)
	case s.W < 2:
		return fmt.Errorf("simtest: tier scenario needs ≥ 2 windows (one forwarded before the kill), got %d", s.W)
	case s.Depth < 1 || s.Depth > 64:
		return fmt.Errorf("simtest: depth %d outside [1, 64]", s.Depth)
	case s.Width < 2:
		return fmt.Errorf("simtest: width %d < 2", s.Width)
	case s.M() > s.N/4:
		return fmt.Errorf("simtest: per-shard M=%d exceeds half the shard key space N/2=%d", s.M(), s.N/2)
	case s.K < 1:
		return fmt.Errorf("simtest: K=%d", s.K)
	case s.Mode == 0:
		return fmt.Errorf("simtest: tier scenarios need a nonzero mode")
	case s.KillShard < 0 || s.KillShard >= tierShards:
		return fmt.Errorf("simtest: kill shard %d outside [0, %d)", s.KillShard, tierShards)
	case s.KillWindow < 2 || s.KillWindow > s.W:
		return fmt.Errorf("simtest: kill window %d outside [2, %d]", s.KillWindow, s.W)
	case s.KillFlush < 1 || s.KillFlush >= s.L*streamChunks:
		return fmt.Errorf("simtest: kill flush %d outside [1, %d)", s.KillFlush, s.L*streamChunks)
	case s.ProxyMin < proxyFrame(s.M()) || s.ProxyMax < s.ProxyMin:
		return fmt.Errorf("simtest: proxy budget [%d, %d] cannot pass a full frame", s.ProxyMin, s.ProxyMax)
	}
	return nil
}

// String encodes the scenario as a replayable one-liner.
func (s StreamTierScenario) String() string {
	return fmt.Sprintf("streamtier1 seed=%d n=%d s=%d l=%d w=%d d=%d wid=%d k=%d mode=%g noise=%g ks=%d kw=%d kf=%d proxy=%d:%d",
		s.Seed, s.N, s.S, s.L, s.W, s.Depth, s.Width, s.K, s.Mode, s.Noise,
		s.KillShard, s.KillWindow, s.KillFlush, s.ProxyMin, s.ProxyMax)
}

// ParseStreamTierScenario decodes a StreamTierScenario.String() line.
func ParseStreamTierScenario(line string) (StreamTierScenario, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 || fields[0] != "streamtier1" {
		return StreamTierScenario{}, fmt.Errorf("simtest: tier scenario line must start with %q", "streamtier1")
	}
	var scn StreamTierScenario
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return StreamTierScenario{}, fmt.Errorf("simtest: malformed field %q", f)
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
		case "d":
			scn.Depth, err = strconv.Atoi(val)
		case "wid":
			scn.Width, err = strconv.Atoi(val)
		case "k":
			scn.K, err = strconv.Atoi(val)
		case "mode":
			scn.Mode, err = strconv.ParseFloat(val, 64)
		case "noise":
			scn.Noise, err = strconv.ParseFloat(val, 64)
		case "ks":
			scn.KillShard, err = strconv.Atoi(val)
		case "kw":
			scn.KillWindow, err = strconv.Atoi(val)
		case "kf":
			scn.KillFlush, err = strconv.Atoi(val)
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
			return StreamTierScenario{}, fmt.Errorf("simtest: field %q: %v", f, err)
		}
	}
	return scn, scn.validate()
}

// BuildStream materializes the scenario deterministically.
func (s StreamTierScenario) BuildStream() (*StreamData, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	splits := make([]int, s.W)
	for w := range splits {
		splits[w] = s.L
	}
	return buildStreamData(s.Seed, s.N, s.S, s.Mode, s.Noise, splits), nil
}

// StreamTierResult is what RunStreamTier hands to the checker. Roots
// are still serving (the checker queries them over the wire and closes
// them).
type StreamTierResult struct {
	Map       *tier.ShardMap
	Sks       []*csoutlier.Sketcher
	Roots     []*stream.Aggregator
	RootAddrs []string
	Expected  [][]csoutlier.Sketch // [shard][w] bit-exact shadow of each root's fold
	Captured  []int64              // [shard] total leaf captures bound for that shard
	Relays    [][]tier.RelayStats  // [shard][relay] final relay books
	Kills     int64                // chaos-proxy connection kills
	Replayed  int64                // leaf frames requeued at the relay restore
}

// CloseRoots shuts the shard roots down (idempotent enough for a
// deferred call after an error mid-check).
func (r *StreamTierResult) CloseRoots() {
	for _, root := range r.Roots {
		if root == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		root.Close(ctx)
		cancel()
	}
}

// RunStreamTier executes the hierarchical pipeline: per shard one root
// and two durable relays, every leaf holding one sharded connection
// set through per-(leaf, shard) chaos proxies to relay l%2. The drive
// is leaf-major inside each window — the order a post-restore replay
// reproduces (each leaf's retained frames replay consecutively, leaves
// in id order) — with relays forwarded and the tree re-synced at every
// window boundary. At the seeded kill point relay 0 of KillShard dies
// without a snapshot (everything since its last Forward is lost),
// restores from its own snapshot file, replays its retained upward
// frames against the root's dedup books, and the victim leaves replay
// the lost leaf frames against its restored books.
func RunStreamTier(scn StreamTierScenario, data *StreamData) (*StreamTierResult, error) {
	spec := tier.Spec{
		M:             scn.M(),
		BaseSeed:      scn.Seed ^ 0x9e3779b97f4a7c15,
		MaxIterations: recoveryBudget(scn.S, scn.K),
		Ensemble:      csoutlier.CountSketch,
		Depth:         scn.Depth,
	}
	m, err := tier.NewShardMap(data.Keys, tierShards, spec, 1)
	if err != nil {
		return nil, err
	}
	sks, err := m.Sketchers()
	if err != nil {
		return nil, err
	}
	res := &StreamTierResult{Map: m, Sks: sks}

	snapDir, err := os.MkdirTemp("", "csstream-tier-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(snapDir)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Shard roots, non-durable (the durability story under test is the
	// relays'; the crash soak covers root restarts).
	for s := 0; s < tierShards; s++ {
		root, err := stream.NewAggregator(sks[s], stream.AggregatorOptions{Windows: scn.W})
		if err != nil {
			res.CloseRoots()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			res.CloseRoots()
			return nil, err
		}
		go root.Serve(ln)
		res.Roots = append(res.Roots, root)
		res.RootAddrs = append(res.RootAddrs, ln.Addr().String())
	}

	// Regional relays: durable, each owning a snapshot file.
	relays := make([][]*tier.Relay, tierShards)
	relayOpts := make([][]tier.RelayOptions, tierShards)
	relayAddrs := make([][]string, tierShards)
	seedRng := xrand.New(scn.Seed)
	closeRelays := func() {
		for s := range relays {
			for r := range relays[s] {
				if relays[s][r] == nil {
					continue
				}
				cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
				relays[s][r].Close(cctx)
				ccancel()
			}
		}
	}
	fail := func(err error) (*StreamTierResult, error) {
		closeRelays()
		res.CloseRoots()
		return nil, err
	}
	serveRelay := func(rel *tier.Relay) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		go rel.Serve(ln)
		return ln.Addr().String(), nil
	}
	for s := 0; s < tierShards; s++ {
		relays[s] = make([]*tier.Relay, tierRelays)
		relayOpts[s] = make([]tier.RelayOptions, tierRelays)
		relayAddrs[s] = make([]string, tierRelays)
		for r := 0; r < tierRelays; r++ {
			opts := tier.RelayOptions{
				ID:           fmt.Sprintf("r%d", r),
				Shard:        s,
				Upstream:     res.RootAddrs[s],
				SnapshotPath: filepath.Join(snapDir, fmt.Sprintf("relay-%d-%d.snap", s, r)),
				PushTimeout:  2 * time.Second,
				BaseBackoff:  time.Millisecond,
				MaxBackoff:   20 * time.Millisecond,
				BackoffSeed:  seedRng.Split(0x8e1a1 ^ uint64(s)<<16 ^ uint64(r)<<8).Uint64(),
				Agg:          stream.AggregatorOptions{Windows: scn.W},
			}
			relayOpts[s][r] = opts
			rel, err := tier.NewRelay(ctx, sks[s], opts)
			if err != nil {
				return fail(fmt.Errorf("simtest: relay %d/%d: %w", s, r, err))
			}
			relays[s][r] = rel
			if relayAddrs[s][r], err = serveRelay(rel); err != nil {
				return fail(err)
			}
		}
	}

	// Chaos proxies: one per (leaf, shard) connection, pointed at the
	// leaf's home relay for that shard.
	proxies := make([][]*chaosProxy, scn.L)
	proxySeed := xrand.New(scn.Seed).Split(0x9097)
	for l := range proxies {
		proxies[l] = make([]*chaosProxy, tierShards)
		for s := 0; s < tierShards; s++ {
			p, err := startChaosProxy(relayAddrs[s][l%tierRelays], proxySeed.Uint64(), scn.ProxyMin, scn.ProxyMax)
			if err != nil {
				return fail(err)
			}
			defer p.Stop()
			proxies[l][s] = p
		}
	}

	// Leaves: one sharded connection set each, plus per-shard shadow
	// updaters mirroring exactly what each shard-node folds.
	leaves := make([]*tier.ShardedNode, scn.L)
	shadow := make([][]*csoutlier.Updater, scn.L)
	for l := range leaves {
		addrs := make([]string, tierShards)
		for s := 0; s < tierShards; s++ {
			addrs[s] = proxies[l][s].Addr()
		}
		sn, err := tier.DialSharded(ctx, m, sks, addrs, NodeID(l), stream.NodeOptions{
			Epoch:       1,
			PushTimeout: 2 * time.Second,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			BackoffSeed: xrand.New(scn.Seed).Split(0xbac0ff ^ uint64(l)<<8).Uint64(),
		})
		if err != nil {
			return fail(fmt.Errorf("simtest: dial leaf %d: %w", l, err))
		}
		leaves[l] = sn
		shadow[l] = make([]*csoutlier.Updater, tierShards)
		for s := 0; s < tierShards; s++ {
			shadow[l][s] = sks[s].NewUpdater()
		}
	}

	scratch := make([]csoutlier.Sketch, tierShards)
	for s := range scratch {
		scratch[s] = sks[s].ZeroSketch()
	}
	res.Expected = make([][]csoutlier.Sketch, tierShards)

	doKill := func() error {
		ks := scn.KillShard
		victim := relays[ks][0]
		if err := victim.Kill(ctx); err != nil {
			return fmt.Errorf("simtest: kill relay: %w", err)
		}
		snap, err := stream.LoadSnapshot(relayOpts[ks][0].SnapshotPath)
		if err != nil {
			return fmt.Errorf("simtest: load relay snapshot: %w", err)
		}
		restored, err := tier.RestoreRelay(ctx, sks[ks], relayOpts[ks][0], snap)
		if err != nil {
			return fmt.Errorf("simtest: restore relay: %w", err)
		}
		relays[ks][0] = restored
		addr, err := serveRelay(restored)
		if err != nil {
			return err
		}
		for l := 0; l < scn.L; l++ {
			if l%tierRelays == 0 {
				proxies[l][ks].Retarget(addr)
			}
		}
		// The restored relay syncs first: it must adopt the root's
		// current window (its snapshot predates the latest rotations) and
		// replay its retained upward frames before any leaf frame
		// arrives. Then the leaves sync in id order — reproducing the
		// l-major order of the frames the crash destroyed.
		if err := restored.Sync(ctx); err != nil {
			return fmt.Errorf("simtest: restored relay sync: %w", err)
		}
		for l := 0; l < scn.L; l++ {
			if err := leaves[l].Sync(ctx); err != nil {
				return fmt.Errorf("simtest: leaf %d post-restore sync: %w", l, err)
			}
		}
		return nil
	}

	for w := 1; w <= scn.W; w++ {
		// Per-window upward accumulators mirroring each relay's unstable
		// state: touched tracks whether the relay applied any frame this
		// window (and will therefore stage one).
		acc := make([][]csoutlier.Sketch, tierShards)
		touched := make([][]bool, tierShards)
		for s := 0; s < tierShards; s++ {
			acc[s] = make([]csoutlier.Sketch, tierRelays)
			touched[s] = make([]bool, tierRelays)
			for r := 0; r < tierRelays; r++ {
				acc[s][r] = sks[s].ZeroSketch()
			}
		}
		for l := 0; l < scn.L; l++ {
			slice := data.WinSlices[w-1][l]
			for c := 0; c < streamChunks; c++ {
				lo, hi := len(slice)*c/streamChunks, len(slice)*(c+1)/streamChunks
				for idx := lo; idx < hi; idx++ {
					v := slice[idx]
					if v == 0 {
						continue
					}
					if err := leaves[l].Observe(data.Keys[idx], v); err != nil {
						return fail(fmt.Errorf("simtest: leaf %d observe: %w", l, err))
					}
					if err := shadow[l][m.Route(data.Keys[idx])].Observe(data.Keys[idx], v); err != nil {
						return fail(err)
					}
				}
				if err := leaves[l].Flush(ctx); err != nil {
					return fail(fmt.Errorf("simtest: leaf %d flush (window %d): %w", l, w, err))
				}
				for s := 0; s < tierShards; s++ {
					cnt, err := shadow[l][s].DrainInto(scratch[s])
					if err != nil {
						return fail(err)
					}
					if cnt == 0 {
						continue // empty drain: the node captured no frame either
					}
					if err := acc[s][l%tierRelays].Add(scratch[s]); err != nil {
						return fail(err)
					}
					touched[s][l%tierRelays] = true
				}
				if w == scn.KillWindow && l*streamChunks+c == scn.KillFlush {
					if err := doKill(); err != nil {
						return fail(err)
					}
				}
			}
		}
		// Window boundary: every relay forwards its folded window upward
		// as one frame, in (shard, relay) order — the root's fold order,
		// which the expected sketch mirrors.
		for s := 0; s < tierShards; s++ {
			expected := sks[s].ZeroSketch()
			for r := 0; r < tierRelays; r++ {
				if err := relays[s][r].Forward(ctx); err != nil {
					return fail(fmt.Errorf("simtest: relay %d/%d forward (window %d): %w", s, r, w, err))
				}
				if !touched[s][r] {
					continue
				}
				if err := expected.Add(acc[s][r]); err != nil {
					return fail(err)
				}
			}
			res.Expected[s] = append(res.Expected[s], expected)
		}
		if w < scn.W {
			for s := 0; s < tierShards; s++ {
				res.Roots[s].Rotate()
			}
			for s := 0; s < tierShards; s++ {
				for r := 0; r < tierRelays; r++ {
					if err := relays[s][r].Sync(ctx); err != nil {
						return fail(fmt.Errorf("simtest: relay %d/%d sync: %w", s, r, err))
					}
				}
			}
			for l := 0; l < scn.L; l++ {
				if err := leaves[l].Sync(ctx); err != nil {
					return fail(fmt.Errorf("simtest: leaf %d sync: %w", l, err))
				}
			}
		}
	}

	// Quiesce: leaves close (flushing nothing new), relays close (a
	// final Forward of empty residue), books settle.
	res.Captured = make([]int64, tierShards)
	for l := range leaves {
		if err := leaves[l].Close(ctx); err != nil {
			return fail(fmt.Errorf("simtest: leaf %d close: %w", l, err))
		}
		for s := 0; s < tierShards; s++ {
			st := leaves[l].Node(s).Stats()
			res.Captured[s] += st.Captured
			res.Replayed += st.Replayed
		}
	}
	res.Relays = make([][]tier.RelayStats, tierShards)
	for s := range relays {
		res.Relays[s] = make([]tier.RelayStats, tierRelays)
		for r := range relays[s] {
			if err := relays[s][r].Close(ctx); err != nil {
				return fail(fmt.Errorf("simtest: relay %d/%d close: %w", s, r, err))
			}
			res.Relays[s][r] = relays[s][r].Stats()
		}
	}
	for l := range proxies {
		for s := range proxies[l] {
			res.Kills += proxies[l][s].Kills()
		}
	}
	return res, nil
}

// CheckStreamTierScenario materializes and runs one hierarchical-tier
// scenario, then checks: (1) each shard root's windows are bit-identical
// to the flat shadow fold — the extra hop and the relay crash changed
// nothing; (2) routed global span top-k answers match the exact
// centralized oracle on every window span, and a routed point watch
// list over the wire matches it key by key; (3) conservation — every
// leaf capture is folded at its shard root exactly once — plus clean
// relay and root books (no rejects, duplicates only where replay says
// they must exist).
func CheckStreamTierScenario(scn StreamTierScenario) error {
	data, err := scn.BuildStream()
	if err != nil {
		return err
	}
	res, err := RunStreamTier(scn, data)
	if err != nil {
		return err
	}
	defer res.CloseRoots()
	if res.Kills < 1 {
		return fmt.Errorf("chaos proxies killed no connections; budgets [%d, %d] too generous for this schedule",
			scn.ProxyMin, scn.ProxyMax)
	}
	if res.Replayed < 1 {
		return fmt.Errorf("relay kill lost no leaf frames (kill window %d flush %d); the scenario is vacuous",
			scn.KillWindow, scn.KillFlush)
	}

	// (1) Bit-identical windows at every shard root.
	for s := 0; s < tierShards; s++ {
		for w := 1; w <= scn.W; w++ {
			age := scn.W - w
			got, err := res.Roots[s].WindowSketch(age)
			if err != nil {
				return fmt.Errorf("shard %d window %d (age %d): %w", s, w, age, err)
			}
			want := res.Expected[s][w-1]
			for i := range got.Y {
				if math.Float64bits(got.Y[i]) != math.Float64bits(want.Y[i]) {
					return fmt.Errorf("shard %d window %d diverges from flat shadow fold at Y[%d]: %v != %v (bit-exact)",
						s, w, i, got.Y[i], want.Y[i])
				}
			}
		}
	}

	// (2) Routed global answers vs the centralized oracle. Span queries
	// fan out in process; point queries go over the wire (the query RPC
	// on each root's push listener).
	targets := make([]tier.Target, tierShards)
	for s := 0; s < tierShards; s++ {
		rp := stream.NewRemotePoint(res.RootAddrs[s], 5*time.Second)
		defer rp.Close()
		targets[s] = tier.Target{Span: res.Roots[s], Point: rp}
	}
	router, err := tier.NewRouter(res.Map, targets)
	if err != nil {
		return err
	}
	for from := 0; from < scn.W; from++ {
		for to := from; to < scn.W; to++ {
			rep, err := router.Outliers(from, to, scn.K)
			if err != nil {
				return fmt.Errorf("routed span [%d,%d]: %w", from, to, err)
			}
			ans, err := streamSpanOracle(scn.N, scn.K, data, scn.W-to, scn.W-from)
			if err != nil {
				return err
			}
			if err := compareReport(rep, ans); err != nil {
				return fmt.Errorf("routed span [%d,%d] differential oracle: %w", from, to, err)
			}
		}
	}
	probes := append([]int(nil), data.Support...)
	probes = append(probes, tierCleanProbeIdx(scn.Seed, scn.N, data)...)
	watch := make([]string, len(probes))
	for i, idx := range probes {
		watch[i] = data.Keys[idx]
	}
	for _, span := range [][2]int{{0, scn.W - 1}, {0, 0}} {
		fromAge, toAge := span[0], span[1]
		truth, err := pointTruthFor(scn.N, data, scn.W-toAge, scn.W-fromAge)
		if err != nil {
			return err
		}
		answers, err := router.PointQueryMulti(fromAge, toAge, watch, pointThreshold)
		if err != nil {
			return fmt.Errorf("routed point span [%d,%d]: %w", fromAge, toAge, err)
		}
		for i, idx := range probes {
			if err := checkPointAnswer(truth, idx, answers[i]); err != nil {
				return fmt.Errorf("routed point span [%d,%d]: %w", fromAge, toAge, err)
			}
		}
	}

	// (3) Conservation and clean books, per shard.
	for s := 0; s < tierShards; s++ {
		st := res.Roots[s].Stats()
		if st.Applied+st.ShedFolds != res.Captured[s] {
			return fmt.Errorf("shard %d conservation: root applied %d + shed folds %d != leaf captures %d",
				s, st.Applied, st.ShedFolds, res.Captured[s])
		}
		if st.Frames != st.Applied+st.Duplicates+st.Dropped+st.Rejected {
			return fmt.Errorf("shard %d frame identity violated: %d frames != %d applied + %d dup + %d dropped + %d rejected",
				s, st.Frames, st.Applied, st.Duplicates, st.Dropped, st.Rejected)
		}
		if st.Rejected != 0 || st.Dropped != 0 {
			return fmt.Errorf("shard %d root rejected %d / dropped %d upward frames", s, st.Rejected, st.Dropped)
		}
		if s == scn.KillShard && st.Duplicates < 1 {
			return fmt.Errorf("kill-shard root saw no duplicates; the restored relay's upward replay should dedup: %+v", st)
		}
		for r := 0; r < tierRelays; r++ {
			rs := res.Relays[s][r]
			if rs.ForwardErrors != 0 || rs.Rejected != 0 || rs.Dropped != 0 {
				return fmt.Errorf("relay %d/%d books: %+v", s, r, rs)
			}
			if rs.Queued != 0 || rs.Staged != 0 || rs.Unstable != 0 {
				return fmt.Errorf("relay %d/%d not drained at close: %+v", s, r, rs)
			}
		}
	}
	return nil
}

// tierCleanProbeIdx picks non-planted key indices for the watch list,
// seeded the same way as the point-query soak's clean probes.
func tierCleanProbeIdx(seed uint64, n int, d *StreamData) []int {
	hot := make(map[int]bool, len(d.Support))
	for _, j := range d.Support {
		hot[j] = true
	}
	rng := xrand.New(seed).Split(0x9b0be5)
	seen := make(map[int]bool, tierCleanProbes)
	out := make([]int, 0, tierCleanProbes)
	for len(out) < tierCleanProbes {
		j := rng.Intn(n)
		if hot[j] || seen[j] {
			continue
		}
		seen[j] = true
		out = append(out, j)
	}
	return out
}
