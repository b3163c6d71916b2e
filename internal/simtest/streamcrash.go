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
	"csoutlier/internal/sensing"
	"csoutlier/internal/stream"
	"csoutlier/internal/xrand"
)

// StreamCrashScenario is a crash-restart soak: the same chaos-TCP
// streaming pipeline as StreamScenario, but the fault is on the
// aggregator side. At a seeded flush inside CrashWindow the aggregator
// writes a snapshot; at a later seeded flush it dies (every frame
// folded since the snapshot is lost with it). A successor restores from
// the snapshot on a fresh listener, the proxies retarget, and the nodes
// replay their retained frames. The checker demands the post-restore
// windows be bit-identical to an uninterrupted run's — restore plus
// replay must reconstruct the exact fold sequence, not an approximation
// of it.
type StreamCrashScenario struct {
	Seed  uint64
	N     int     // key-space size
	S     int     // planted outliers (same positions every window)
	L     int     // node count
	W     int     // windows driven
	M     int     // measurement budget
	K     int     // outliers per query
	Mode  float64 // base bias; per-window biases are seeded multiples
	Noise float64 // per-node zero-sum noise amplitude per window
	Ens   csoutlier.Ensemble

	// Flush indices inside CrashWindow (0-based over the window's
	// L*streamChunks flushes, l-major): the snapshot is taken after flush
	// SnapFlush completes, the aggregator dies after flush CrashFlush.
	// Every frame in (SnapFlush, CrashFlush] is folded, acked, and then
	// lost — exactly the frames node-side retention must replay.
	CrashWindow int
	SnapFlush   int
	CrashFlush  int

	ProxyMin int64 // per-connection chaos byte budget bounds
	ProxyMax int64
}

// GenerateStreamCrash derives crash-restart scenario index from the
// base seed.
func GenerateStreamCrash(base uint64, index int) StreamCrashScenario {
	rng := xrand.New(base).Split(uint64(index) + 0xc4a54a11)
	scn := StreamCrashScenario{Seed: rng.Uint64()}
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
	scn.W = 2 + rng.Intn(3)
	scn.CrashWindow = 1 + rng.Intn(scn.W)
	flushes := scn.L * streamChunks
	scn.SnapFlush = rng.Intn(flushes - 1)
	scn.CrashFlush = scn.SnapFlush + 1 + rng.Intn(flushes-1-scn.SnapFlush)
	scn.ProxyMin, scn.ProxyMax = proxyBudgets(scn.M, streamChunks*scn.W)
	return scn
}

func (s StreamCrashScenario) validate() error {
	switch {
	case s.N < 4 || s.S < 1 || s.S > s.N/4:
		return fmt.Errorf("simtest: crash scenario N=%d S=%d out of range", s.N, s.S)
	case s.L < 2:
		return fmt.Errorf("simtest: crash scenario needs ≥ 2 nodes, got %d", s.L)
	case s.W < 1:
		return fmt.Errorf("simtest: W=%d", s.W)
	case s.M < 2 || s.M > s.N:
		return fmt.Errorf("simtest: M=%d outside [2, N]", s.M)
	case s.K < 1:
		return fmt.Errorf("simtest: K=%d", s.K)
	case s.Mode == 0:
		return fmt.Errorf("simtest: crash scenarios need a nonzero mode")
	case s.CrashWindow < 1 || s.CrashWindow > s.W:
		return fmt.Errorf("simtest: crash window %d outside [1, %d]", s.CrashWindow, s.W)
	case s.SnapFlush < 0 || s.CrashFlush <= s.SnapFlush || s.CrashFlush >= s.L*streamChunks:
		return fmt.Errorf("simtest: flush schedule snap=%d crash=%d outside 0 ≤ snap < crash < %d",
			s.SnapFlush, s.CrashFlush, s.L*streamChunks)
	case s.ProxyMin < proxyFrame(s.M) || s.ProxyMax < s.ProxyMin:
		return fmt.Errorf("simtest: proxy budget [%d, %d] cannot pass a full frame", s.ProxyMin, s.ProxyMax)
	}
	return nil
}

// String encodes the scenario as a replayable one-liner.
func (s StreamCrashScenario) String() string {
	return fmt.Sprintf("streamcrash1 seed=%d n=%d s=%d l=%d w=%d m=%d k=%d mode=%g noise=%g ens=%s cw=%d snap=%d crash=%d proxy=%d:%d",
		s.Seed, s.N, s.S, s.L, s.W, s.M, s.K, s.Mode, s.Noise, s.Ens,
		s.CrashWindow, s.SnapFlush, s.CrashFlush, s.ProxyMin, s.ProxyMax)
}

// ParseStreamCrashScenario decodes a StreamCrashScenario.String() line.
func ParseStreamCrashScenario(line string) (StreamCrashScenario, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 || fields[0] != "streamcrash1" {
		return StreamCrashScenario{}, fmt.Errorf("simtest: crash scenario line must start with %q", "streamcrash1")
	}
	var scn StreamCrashScenario
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return StreamCrashScenario{}, fmt.Errorf("simtest: malformed field %q", f)
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
		case "cw":
			scn.CrashWindow, err = strconv.Atoi(val)
		case "snap":
			scn.SnapFlush, err = strconv.Atoi(val)
		case "crash":
			scn.CrashFlush, err = strconv.Atoi(val)
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
			return StreamCrashScenario{}, fmt.Errorf("simtest: field %q: %v", f, err)
		}
	}
	return scn, scn.validate()
}

// BuildStream materializes the scenario deterministically.
func (s StreamCrashScenario) BuildStream() (*StreamData, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	splits := make([]int, s.W)
	for w := range splits {
		splits[w] = s.L
	}
	return buildStreamData(s.Seed, s.N, s.S, s.Mode, s.Noise, splits), nil
}

// StreamCrashResult is what RunStreamCrash hands to the checker.
type StreamCrashResult struct {
	Agg      *stream.Aggregator // the restored aggregator (drained, closed)
	Sk       *csoutlier.Sketcher
	Expected []csoutlier.Sketch // [w] bit-exact shadow of the uninterrupted fold
	Kills    int64              // chaos-proxy connection kills
	Replayed int64              // retained frames the nodes requeued at restore
	Epoch    uint64             // restored aggregator's incarnation
}

// RunStreamCrash executes the crash-restart pipeline: a durable
// aggregator, one chaos proxy per node, the usual l-major flush drive —
// and at the seeded (SnapFlush, CrashFlush) points inside CrashWindow a
// snapshot write and an aggregator death. The restored successor comes
// up on a new listener with a bumped incarnation, the proxies retarget,
// and every node syncs (in node order, reproducing the l-major order of
// the lost frames) so retention replay re-folds exactly the frames the
// crash destroyed. A pre-snapshot frame is then re-delivered verbatim:
// the restored dedup books must refuse it.
func RunStreamCrash(scn StreamCrashScenario, data *StreamData) (*StreamCrashResult, error) {
	sk, err := csoutlier.NewSketcher(data.Keys, csoutlier.Config{
		M:             scn.M,
		Seed:          scn.Seed ^ 0x9e3779b97f4a7c15,
		MaxIterations: recoveryBudget(scn.S, scn.K),
		Ensemble:      scn.Ens,
	})
	if err != nil {
		return nil, err
	}
	snapDir, err := os.MkdirTemp("", "csstream-crash-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(snapDir)
	snapPath := filepath.Join(snapDir, "agg.snap")

	agg, err := stream.NewAggregator(sk, stream.AggregatorOptions{Windows: scn.W, Durable: true})
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

	nodes := make([]*stream.Node, scn.L)
	shadow := make([]*csoutlier.Updater, scn.L)
	for l := range nodes {
		n, err := stream.Dial(ctx, proxies[l].Addr(), sk, NodeID(l), stream.NodeOptions{
			Epoch:       1,
			PushTimeout: 2 * time.Second,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			BackoffSeed: xrand.New(scn.Seed).Split(0xbac0ff ^ uint64(l)<<8).Uint64(),
		})
		if err != nil {
			closeAgg()
			return nil, fmt.Errorf("simtest: dial node %d: %w", l, err)
		}
		nodes[l] = n
		shadow[l] = sk.NewUpdater()
	}

	res := &StreamCrashResult{Sk: sk}
	var snap *stream.Snapshot
	var dupPayload []byte
	var dupWindow, dupSeq uint64
	scratch := sk.ZeroSketch()
	for w := 1; w <= scn.W; w++ {
		expected := sk.ZeroSketch()
		for l := 0; l < scn.L; l++ {
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

				if w != scn.CrashWindow {
					continue
				}
				// The f==0 / SnapFlush / CrashFlush marks are not mutually
				// exclusive (SnapFlush may be 0), so each is its own check.
				f := l*streamChunks + c
				if f == 0 {
					// Remember a snapshot-covered frame verbatim for the
					// post-restore duplicate probe.
					if dupPayload, err = scratch.MarshalBinary(); err != nil {
						closeAgg()
						return nil, err
					}
					st := nodes[l].Stats()
					dupWindow, dupSeq = st.Window, st.Seq
				}
				if f == scn.SnapFlush {
					// Durability point: everything flushed so far is folded
					// (acks follow folds), so the snapshot covers exactly
					// flushes [0, SnapFlush] of this window plus all earlier
					// windows.
					if err := agg.WriteSnapshot(snapPath); err != nil {
						closeAgg()
						return nil, fmt.Errorf("simtest: snapshot at flush %d: %w", f, err)
					}
					if snap, err = stream.LoadSnapshot(snapPath); err != nil {
						closeAgg()
						return nil, fmt.Errorf("simtest: load snapshot: %w", err)
					}
				}
				if f == scn.CrashFlush {
					// The crash: the aggregator dies with (SnapFlush,
					// CrashFlush] folded but not snapshotted. The successor
					// restores, bumps its incarnation, and the nodes' syncs —
					// in node order, matching the l-major flush order of the
					// lost frames — replay retention so the fold sequence
					// continues exactly where the shadow says it should.
					closeAgg()
					ln2, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						return nil, err
					}
					agg2, err := stream.RestoreAggregator(sk, stream.AggregatorOptions{Windows: scn.W, Durable: true}, snap)
					if err != nil {
						ln2.Close()
						return nil, fmt.Errorf("simtest: restore: %w", err)
					}
					agg = agg2
					go agg.Serve(ln2)
					for _, p := range proxies {
						p.Retarget(ln2.Addr().String())
					}
					for ll := 0; ll < scn.L; ll++ {
						if err := nodes[ll].Sync(ctx); err != nil {
							closeAgg()
							return nil, fmt.Errorf("simtest: node %d post-restore sync: %w", ll, err)
						}
					}
					// Replay-of-the-replayed: a frame the snapshot covers,
					// re-delivered verbatim, must dedup against the restored
					// books and fold nothing.
					dc, err := stream.DialClient(ctx, ln2.Addr().String(), 5*time.Second)
					if err != nil {
						closeAgg()
						return nil, err
					}
					ack, err := dc.PushDelta(NodeID(0), 1, dupWindow, dupSeq, 1, dupPayload)
					dc.Close()
					if err != nil {
						closeAgg()
						return nil, fmt.Errorf("simtest: post-restore duplicate probe: %w", err)
					}
					if ack.Applied || ack.Status != stream.StatusDuplicate {
						closeAgg()
						return nil, fmt.Errorf("simtest: snapshot-covered frame refolded after restore: %+v", ack)
					}
				}
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

	for l := range nodes {
		if err := nodes[l].Close(ctx); err != nil {
			closeAgg()
			return nil, fmt.Errorf("simtest: node %d close: %w", l, err)
		}
		res.Replayed += nodes[l].Stats().Replayed
	}
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = agg.Close(cctx)
	ccancel()
	if err != nil {
		return nil, err
	}
	res.Agg = agg
	res.Epoch = agg.Epoch()
	for _, p := range proxies {
		res.Kills += p.Kills()
	}
	return res, nil
}

// CheckStreamCrashScenario materializes and runs one crash-restart
// scenario, then checks: (1) every per-window sketch of the restored
// aggregator is bit-identical to the shadow mirror of an uninterrupted
// fold — snapshot restore plus retention replay reconstructed the exact
// sequence; (2) recovered outliers match the exact centralized oracle
// on every window span; (3) the incarnation bumped, the lost frames
// were replayed, and the frame books balance.
func CheckStreamCrashScenario(scn StreamCrashScenario) error {
	data, err := scn.BuildStream()
	if err != nil {
		return err
	}
	res, err := RunStreamCrash(scn, data)
	if err != nil {
		return err
	}
	if res.Kills < 1 {
		return fmt.Errorf("chaos proxies killed no connections; budgets [%d, %d] too generous for this schedule",
			scn.ProxyMin, scn.ProxyMax)
	}
	if res.Epoch != 2 {
		return fmt.Errorf("restored aggregator incarnation %d, want 2", res.Epoch)
	}
	// Every frame folded in (SnapFlush, CrashFlush] died with the first
	// incarnation; retention replay is the only way it got back in.
	if lost := int64(scn.CrashFlush - scn.SnapFlush); res.Replayed < lost {
		return fmt.Errorf("nodes replayed %d retained frames, crash lost %d", res.Replayed, lost)
	}

	// (1) Bit-identical per-window global sketches across the restart.
	for w := 1; w <= scn.W; w++ {
		age := scn.W - w
		got, err := res.Agg.WindowSketch(age)
		if err != nil {
			return fmt.Errorf("window %d (age %d): %w", w, age, err)
		}
		want := res.Expected[w-1]
		for i := range got.Y {
			if math.Float64bits(got.Y[i]) != math.Float64bits(want.Y[i]) {
				return fmt.Errorf("window %d sketch diverges from uninterrupted shadow at Y[%d]: %v != %v (bit-exact)",
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

	// (3) Books balance on the restored aggregator: the duplicate probe
	// and the deduped replays are accounted, nothing dropped or rejected,
	// and the liveness table holds every node, caught up, on epoch 1.
	stats := res.Agg.Stats()
	if stats.Frames != stats.Applied+stats.Duplicates+stats.Dropped+stats.Rejected {
		return fmt.Errorf("frame identity violated: %d frames != %d applied + %d dup + %d dropped + %d rejected",
			stats.Frames, stats.Applied, stats.Duplicates, stats.Dropped, stats.Rejected)
	}
	if stats.Duplicates < 1 {
		return fmt.Errorf("restored aggregator saw no duplicates; the probe and pre-snapshot replays should dedup: %+v", stats)
	}
	sts := res.Agg.Nodes()
	if len(sts) != scn.L {
		return fmt.Errorf("%d nodes in liveness table, want %d", len(sts), scn.L)
	}
	for _, ns := range sts {
		switch {
		case ns.State != stream.StateLive:
			return fmt.Errorf("node %s state %q after restore, want live", ns.Node, ns.State)
		case ns.Epoch != 1:
			return fmt.Errorf("node %s status %+v, want epoch 1", ns.Node, ns)
		case ns.Lag != 0:
			return fmt.Errorf("node %s still lags after final sync: %+v", ns.Node, ns)
		}
	}
	return nil
}
