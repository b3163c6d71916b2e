package simtest

import (
	"context"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"time"

	"csoutlier"
	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/sensing"
	"csoutlier/internal/stream"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// streamChunks is how many mid-window delta flushes RunStream ships per
// node per window. The chaos budget sizing in GenerateStream depends on
// it: more flushes per window means more guaranteed traffic per
// connection, which is what lets the generator promise every connection
// dies at least once without ever starving one.
const streamChunks = 3

// StreamScenario is one fully specified streaming simulation: W windows
// of per-node data pushed as deltas through chaos TCP proxies into a
// live stream.Aggregator, with one node crash/restart and injected
// duplicate flushes. Everything — data, split, kill budgets, fault
// placement — derives from the seed, so a failure replays exactly.
//
// The outlier support is fixed across windows (magnitudes vary), so
// every window span is S-sparse around its own bias and the centralized
// oracle stays exact for every queried span.
type StreamScenario struct {
	Seed  uint64
	N     int     // key-space size
	S     int     // planted outliers (same positions every window)
	L     int     // node count (≥ 4 in generated scenarios)
	W     int     // windows driven
	M     int     // measurement budget
	K     int     // outliers per query
	Mode  float64 // base bias; per-window biases are seeded multiples
	Noise float64 // per-node zero-sum noise amplitude per window
	Ens   csoutlier.Ensemble

	CrashNode   int // node that crashes (loses unflushed data) and restarts
	CrashWindow int // window (1-based) in which the crash happens
	DupNode     int // node whose flushes are re-delivered verbatim

	ProxyMin int64 // per-connection chaos byte budget bounds
	ProxyMax int64
}

// GenerateStream derives streaming scenario index from the base seed.
// Chaos is always on: every scenario has a crash/restart, duplicate
// injection, and byte-budgeted proxies.
func GenerateStream(base uint64, index int) StreamScenario {
	rng := xrand.New(base).Split(uint64(index) + 0x57ea3517)
	scn := StreamScenario{Seed: rng.Uint64()}
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
	scn.Mode = 100 + 4900*rng.Float64() // nonzero: every node flushes every window
	if rng.Float64() < 0.5 {
		scn.Mode = -scn.Mode
	}
	if rng.Float64() < 0.6 {
		scn.Noise = (math.Abs(scn.Mode) + 500) * (0.1 + rng.Float64())
	}
	scn.L = 4 + rng.Intn(3)
	scn.W = 2 + rng.Intn(3)
	scn.CrashNode = rng.Intn(scn.L)
	scn.CrashWindow = 1 + rng.Intn(scn.W)
	scn.DupNode = (scn.CrashNode + 1 + rng.Intn(scn.L-1)) % scn.L
	scn.ProxyMin, scn.ProxyMax = proxyBudgets(scn.M, streamChunks*scn.W)
	return scn
}

// proxyFrame is the most a fresh connection's first exchange puts on
// the wire: a hello and one delta of m measurements, each with its ack,
// sized from the push wire format's own overhead constants (a delta
// travels as pairs only when that is smaller than the sketch, so the
// sketch is the cap). A chaos budget below it could starve a node
// forever.
func proxyFrame(m int) int64 {
	return int64(csoutlier.EncodedSketchLen(m) + 2*(stream.MaxDeltaOverhead+len(NodeID(0))))
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
// exercised (the checkers assert Kills ≥ 1).
func proxyBudgets(m, flushes int) (min, max int64) {
	frame := proxyFrame(m)
	floorTotal := int64(flushes) * int64(stream.MinDeltaPayload+stream.MinDeltaOverhead+len(NodeID(0)))
	min, max = frame, 3*frame
	if cap := floorTotal - frame; max > cap {
		max = cap
	}
	if max < min {
		max = min
	}
	return min, max
}

func (s StreamScenario) validate() error {
	switch {
	case s.N < 4 || s.S < 1 || s.S > s.N/4:
		return fmt.Errorf("simtest: stream scenario N=%d S=%d out of range", s.N, s.S)
	case s.L < 2:
		return fmt.Errorf("simtest: stream scenario needs ≥ 2 nodes, got %d", s.L)
	case s.W < 1:
		return fmt.Errorf("simtest: W=%d", s.W)
	case s.M < 2 || s.M > s.N:
		return fmt.Errorf("simtest: M=%d outside [2, N]", s.M)
	case s.K < 1:
		return fmt.Errorf("simtest: K=%d", s.K)
	case s.Mode == 0:
		return fmt.Errorf("simtest: stream scenarios need a nonzero mode")
	case s.CrashNode < 0 || s.CrashNode >= s.L || s.DupNode < 0 || s.DupNode >= s.L:
		return fmt.Errorf("simtest: fault nodes %d/%d outside [0, %d)", s.CrashNode, s.DupNode, s.L)
	case s.CrashNode == s.DupNode:
		return fmt.Errorf("simtest: crash and dup node coincide (a stale-epoch dup is rejected, not deduped)")
	case s.CrashWindow < 1 || s.CrashWindow > s.W:
		return fmt.Errorf("simtest: crash window %d outside [1, %d]", s.CrashWindow, s.W)
	case s.ProxyMin < proxyFrame(s.M) || s.ProxyMax < s.ProxyMin:
		return fmt.Errorf("simtest: proxy budget [%d, %d] cannot pass a full frame", s.ProxyMin, s.ProxyMax)
	}
	return nil
}

// String encodes the scenario as a replayable one-liner.
func (s StreamScenario) String() string {
	return fmt.Sprintf("stream1 seed=%d n=%d s=%d l=%d w=%d m=%d k=%d mode=%g noise=%g ens=%s crash=%d@%d dup=%d proxy=%d:%d",
		s.Seed, s.N, s.S, s.L, s.W, s.M, s.K, s.Mode, s.Noise, s.Ens,
		s.CrashNode, s.CrashWindow, s.DupNode, s.ProxyMin, s.ProxyMax)
}

// ParseStreamScenario decodes a StreamScenario.String() line.
func ParseStreamScenario(line string) (StreamScenario, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 || fields[0] != "stream1" {
		return StreamScenario{}, fmt.Errorf("simtest: stream scenario line must start with %q", "stream1")
	}
	var scn StreamScenario
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return StreamScenario{}, fmt.Errorf("simtest: malformed field %q", f)
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
		case "crash":
			node, win, ok := strings.Cut(val, "@")
			if !ok {
				err = fmt.Errorf("want node@window")
				break
			}
			if scn.CrashNode, err = strconv.Atoi(node); err == nil {
				scn.CrashWindow, err = strconv.Atoi(win)
			}
		case "dup":
			scn.DupNode, err = strconv.Atoi(val)
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
			return StreamScenario{}, fmt.Errorf("simtest: field %q: %v", f, err)
		}
	}
	return scn, scn.validate()
}

// StreamData is a StreamScenario's materialized world: per-window exact
// global aggregates (the oracle's ground truth) and their per-node
// splits.
type StreamData struct {
	Keys      []string
	Support   []int             // planted outlier positions, fixed across windows
	WinGlobal []linalg.Vector   // [w] exact global aggregate of window w+1
	WinSlices [][]linalg.Vector // [w][l] node l's share of window w+1
}

// BuildStream materializes the scenario deterministically.
func (s StreamScenario) BuildStream() (*StreamData, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	splits := make([]int, s.W)
	for w := range splits {
		splits[w] = s.L
	}
	return buildStreamData(s.Seed, s.N, s.S, s.Mode, s.Noise, splits), nil
}

// buildStreamData materializes W windows of globally S-sparse data
// around a per-window bias, splitting window w among splits[w] nodes —
// the shared world builder for every streaming scenario flavor (the
// churn flavor varies the split count as membership changes).
func buildStreamData(seed uint64, n, sOut int, mode, noise float64, splits []int) *StreamData {
	rng := xrand.New(seed)
	d := &StreamData{Keys: make([]string, n)}
	for i := range d.Keys {
		d.Keys[i] = fmt.Sprintf("key%06d", i)
	}
	d.Support = pickDistinct(rng, n, sOut)
	mag0 := 100 + 900*rng.Float64()
	for w := 0; w < len(splits); w++ {
		wmode := mode * (0.6 + 0.8*rng.Float64())
		global := make(linalg.Vector, n)
		global.Fill(wmode)
		for _, j := range d.Support {
			mag := mag0 * (1 + 9*rng.Float64())
			if rng.Float64() < 0.5 {
				mag = -mag
			}
			global[j] = wmode + mag
		}
		d.WinGlobal = append(d.WinGlobal, global)
		d.WinSlices = append(d.WinSlices, workload.SplitZeroSumNoise(global, splits[w], noise, rng.Uint64()))
	}
	return d
}

// spanOracle answers the k-outlier query on the exact concatenation of
// windows [wFrom, wTo] (1-based, inclusive).
func (s StreamScenario) spanOracle(d *StreamData, wFrom, wTo int) (*OracleAnswer, error) {
	return streamSpanOracle(s.N, s.K, d, wFrom, wTo)
}

// streamSpanOracle is the centralized exact oracle all streaming
// scenario flavors share: the k-outlier answer on the concatenation of
// windows [wFrom, wTo] (1-based, inclusive).
func streamSpanOracle(n, k int, d *StreamData, wFrom, wTo int) (*OracleAnswer, error) {
	sum := make(linalg.Vector, n)
	for w := wFrom; w <= wTo; w++ {
		sum.Add(d.WinGlobal[w-1])
	}
	mode, ok := outlier.Mode(sum)
	if !ok {
		return nil, fmt.Errorf("simtest: span [%d,%d] has no exact majority mode", wFrom, wTo)
	}
	ans := &OracleAnswer{Mode: mode}
	for _, kv := range outlier.TopK(sum, mode, k) {
		ans.Outliers = append(ans.Outliers, csoutlier.Outlier{Key: d.Keys[kv.Index], Value: kv.Value})
	}
	return ans, nil
}

// StreamResult is what RunStream hands to the checker: the live
// aggregator (already drained and closed), the consensus sketcher, and
// the expected per-window global sketches built by a shadow mirror of
// the exact fold sequence.
type StreamResult struct {
	Agg      *stream.Aggregator
	Sk       *csoutlier.Sketcher
	Expected []csoutlier.Sketch // [w] bit-exact expected sketch of window w+1
	Kills    int64              // chaos-proxy connection kills observed
}

// RunStream executes the streaming pipeline for real: a TCP
// stream.Aggregator, one stream.Node per simulated node connected
// through its own chaos proxy, W windows driven tick by tick. Per
// window, every node observes its slice key by key and flushes a delta;
// the dup node's flush is re-delivered verbatim through a raw client;
// at the crash window, the crash node flushes its share, observes an
// extra batch that dies with it (Abort), and a successor re-dials with
// a bumped epoch. Windows rotate manually between ticks, and every node
// syncs into the new window, so the fold sequence — and therefore every
// per-window sketch — is deterministic down to the bit.
func RunStream(scn StreamScenario, data *StreamData) (*StreamResult, error) {
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
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	closeAgg := func() {
		cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
		agg.Close(cctx)
		ccancel()
	}

	proxies := make([]*chaosProxy, scn.L)
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

	nodeOpts := func(l int, epoch uint64) stream.NodeOptions {
		return stream.NodeOptions{
			Epoch:       epoch,
			PushTimeout: 2 * time.Second,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			// Reconnect jitter derives from the scenario seed, so a soak
			// failure's backoff timing replays from its scenario line.
			BackoffSeed: xrand.New(scn.Seed).Split(0xbac0ff ^ uint64(l)<<8 ^ epoch).Uint64(),
		}
	}
	nodes := make([]*stream.Node, scn.L)
	shadow := make([]*csoutlier.Updater, scn.L)
	for l := range nodes {
		n, err := stream.Dial(ctx, proxies[l].Addr(), sk, NodeID(l), nodeOpts(l, 1))
		if err != nil {
			closeAgg()
			return nil, fmt.Errorf("simtest: dial node %d: %w", l, err)
		}
		nodes[l] = n
		shadow[l] = sk.NewUpdater()
	}

	// A raw client straight to the aggregator (no chaos) for verbatim
	// duplicate injection: the shadow drain bytes are bit-identical to
	// what the node pushed, so re-delivering them with the node's own
	// (epoch, window, seq) tags is an exact wire-level duplicate.
	dupClient, err := stream.DialClient(ctx, ln.Addr().String(), 5*time.Second)
	if err != nil {
		closeAgg()
		return nil, err
	}
	defer dupClient.Close()

	res := &StreamResult{Agg: agg, Sk: sk}
	scratch := sk.ZeroSketch()
	for w := 1; w <= scn.W; w++ {
		expected := sk.ZeroSketch()
		for l := 0; l < scn.L; l++ {
			// Each window ships as several mid-window delta flushes, not
			// one snapshot: that is the protocol's real shape, and the
			// extra frames guarantee every connection outlives its chaos
			// budget at least once per run.
			slice := data.WinSlices[w-1][l]
			for c := 0; c < streamChunks; c++ {
				lo, hi := len(slice)*c/streamChunks, len(slice)*(c+1)/streamChunks
				for idx := lo; idx < hi; idx++ {
					v := slice[idx]
					if v == 0 {
						continue
					}
					if err := nodes[l].Observe(data.Keys[idx], v); err != nil {
						closeAgg()
						return nil, fmt.Errorf("simtest: node %d observe: %w", l, err)
					}
					if err := shadow[l].Observe(data.Keys[idx], v); err != nil {
						closeAgg()
						return nil, err
					}
				}
				if err := nodes[l].Flush(ctx); err != nil {
					closeAgg()
					return nil, fmt.Errorf("simtest: node %d flush (window %d): %w", l, w, err)
				}
				if _, err := shadow[l].DrainInto(scratch); err != nil {
					closeAgg()
					return nil, err
				}
				if err := expected.Add(scratch); err != nil {
					closeAgg()
					return nil, err
				}
			}

			if l == scn.DupNode {
				// Re-deliver the flush verbatim: must be acked as a
				// duplicate and fold nothing.
				payload, err := scratch.MarshalBinary()
				if err != nil {
					closeAgg()
					return nil, err
				}
				st := nodes[l].Stats()
				ack, err := dupClient.PushDelta(NodeID(l), 1, st.Window, st.Seq, 1, payload)
				if err != nil {
					closeAgg()
					return nil, fmt.Errorf("simtest: dup injection: %w", err)
				}
				if ack.Applied || ack.Status != stream.StatusDuplicate {
					closeAgg()
					return nil, fmt.Errorf("simtest: duplicate flush was not deduplicated: %+v", ack)
				}
			}
			if l == scn.CrashNode && w == scn.CrashWindow {
				// The crash loses everything observed since the last flush:
				// an extra anomalous batch that must never reach the
				// aggregate. The successor re-dials with a bumped epoch.
				if err := nodes[l].Observe(data.Keys[data.Support[0]], 123456); err != nil {
					closeAgg()
					return nil, err
				}
				nodes[l].Abort()
				n, err := stream.Dial(ctx, proxies[l].Addr(), sk, NodeID(l), nodeOpts(l, 2))
				if err != nil {
					closeAgg()
					return nil, fmt.Errorf("simtest: restart node %d: %w", l, err)
				}
				nodes[l] = n
			}
		}
		res.Expected = append(res.Expected, expected)
		if w < scn.W {
			agg.Rotate()
			for l := range nodes {
				if err := nodes[l].Sync(ctx); err != nil {
					closeAgg()
					return nil, fmt.Errorf("simtest: node %d sync: %w", l, err)
				}
			}
		}
	}

	// Graceful shutdown: every node drains (final flushes are empty),
	// then the aggregator folds whatever its queue still holds. Its
	// window store stays queryable for the checker.
	for l := range nodes {
		if err := nodes[l].Close(ctx); err != nil {
			closeAgg()
			return nil, fmt.Errorf("simtest: node %d close: %w", l, err)
		}
	}
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = agg.Close(cctx)
	ccancel()
	if err != nil {
		return nil, err
	}
	for _, p := range proxies {
		res.Kills += p.Kills()
	}
	return res, nil
}

// CheckStreamScenario is the streaming harness's unit of work:
// materialize the scenario, run the real push pipeline through chaos
// proxies with the scheduled crash and duplicate injection, then check
// (1) every per-window aggregator sketch is bit-identical to the shadow
// mirror of the exact fold sequence, (2) the recovered outliers match
// the exact centralized oracle for every contiguous window span, and
// (3) the liveness/idempotency bookkeeping saw what the schedule did.
func CheckStreamScenario(scn StreamScenario) error {
	data, err := scn.BuildStream()
	if err != nil {
		return err
	}
	res, err := RunStream(scn, data)
	if err != nil {
		return err
	}
	// The chaos budgets are sized so every run loses at least one
	// connection mid-exchange; if none died, the faults this harness
	// exists to exercise never happened.
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

	// (2) Every contiguous span's recovered outliers match the oracle.
	queries := 0
	for from := 0; from < scn.W; from++ {
		for to := from; to < scn.W; to++ {
			rep, err := res.Agg.Outliers(from, to, scn.K)
			queries++
			if err != nil {
				return fmt.Errorf("span [%d,%d]: %w", from, to, err)
			}
			ans, err := scn.spanOracle(data, scn.W-to, scn.W-from)
			if err != nil {
				return err
			}
			if err := compareReport(rep, ans); err != nil {
				return fmt.Errorf("span [%d,%d] differential oracle: %w", from, to, err)
			}
		}
	}
	// A repeated standing query must come from the recovery cache.
	if _, err := res.Agg.Outliers(0, scn.W-1, scn.K); err != nil {
		return err
	}
	queries++
	if s := res.Agg.Stats(); s.CacheHits < 1 {
		return fmt.Errorf("repeated standing query missed the cache: %+v", s)
	}

	// Counter identities at quiescence: every frame landed in exactly one
	// outcome bucket, and every query either hit or missed the cache.
	stats := res.Agg.Stats()
	if stats.Frames != stats.Applied+stats.Duplicates+stats.Dropped+stats.Rejected {
		return fmt.Errorf("frame identity violated: %d frames != %d applied + %d dup + %d dropped + %d rejected",
			stats.Frames, stats.Applied, stats.Duplicates, stats.Dropped, stats.Rejected)
	}
	if got := stats.CacheHits + stats.CacheMisses; got != int64(queries) {
		return fmt.Errorf("cache hits+misses = %d, issued %d queries", got, queries)
	}
	// The registry is the same books as the AggStats snapshot.
	if reg := res.Agg.MetricsRegistry(); reg != nil {
		for _, c := range []struct {
			name string
			want int64
		}{
			{"stream_frames_total", stats.Frames},
			{"stream_rotations_total", stats.Rotations},
			{"stream_hellos_total", stats.Hellos},
			{"stream_connections_total", stats.Conns},
		} {
			if got := reg.Counter(c.name, "").Value(); got != c.want {
				return fmt.Errorf("registry %s = %d, AggStats says %d", c.name, got, c.want)
			}
		}
		outcomes := reg.CounterVec("stream_frame_outcomes_total", "", "outcome")
		for _, c := range []struct {
			label string
			want  int64
		}{
			{"applied", stats.Applied},
			{"duplicate", stats.Duplicates},
			{"dropped", stats.Dropped},
			{"rejected", stats.Rejected},
		} {
			if got := outcomes.With(c.label).Value(); got != c.want {
				return fmt.Errorf("registry frame outcome %s = %d, AggStats says %d", c.label, got, c.want)
			}
		}
	}

	// (3) Liveness and idempotency bookkeeping.
	sts := res.Agg.Nodes()
	if len(sts) != scn.L {
		return fmt.Errorf("%d nodes in liveness table, want %d", len(sts), scn.L)
	}
	for _, ns := range sts {
		i := -1
		fmt.Sscanf(ns.Node, "node%d", &i)
		switch {
		case i == scn.CrashNode && (ns.Epoch != 2 || ns.Restarts != 1):
			return fmt.Errorf("crash node status %+v, want epoch 2 after 1 restart", ns)
		case i != scn.CrashNode && ns.Epoch != 1:
			return fmt.Errorf("node %s status %+v, want epoch 1", ns.Node, ns)
		case ns.Lag != 0:
			return fmt.Errorf("node %s still lags after final sync: %+v", ns.Node, ns)
		case ns.Applied < int64(scn.W)-1:
			return fmt.Errorf("node %s applied only %d deltas over %d windows", ns.Node, ns.Applied, scn.W)
		}
	}
	if s := res.Agg.Stats(); s.Duplicates < int64(scn.W) {
		return fmt.Errorf("aggregator saw %d duplicates, injected %d", s.Duplicates, scn.W)
	}
	// Per-node outcome counters sum to the aggregate ones. Rejected is
	// >=: a stale-epoch frame is refused before any node state is
	// charged, so it counts aggregator-wide only.
	var applied, dups, dropped, rejected int64
	for _, ns := range sts {
		applied += ns.Applied
		dups += ns.Duplicates
		dropped += ns.Dropped
		rejected += ns.Rejected
	}
	switch {
	case applied != stats.Applied, dups != stats.Duplicates, dropped != stats.Dropped:
		return fmt.Errorf("per-node sums (applied %d, dup %d, dropped %d) disagree with aggregate (%d, %d, %d)",
			applied, dups, dropped, stats.Applied, stats.Duplicates, stats.Dropped)
	case rejected > stats.Rejected:
		return fmt.Errorf("per-node rejected sum %d exceeds aggregate %d", rejected, stats.Rejected)
	}
	return nil
}
