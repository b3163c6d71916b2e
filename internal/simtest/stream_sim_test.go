package simtest

import (
	"flag"
	"strings"
	"testing"
)

var (
	flagStreamCount = flag.Int("sim.streamcount", 3,
		"number of randomized streaming scenarios TestStreamSoak checks")
	flagStreamCrashCount = flag.Int("sim.streamcrashcount", 2,
		"number of randomized crash-restart scenarios TestStreamCrashSoak checks")
	flagStreamChurnCount = flag.Int("sim.streamchurncount", 2,
		"number of randomized membership-churn scenarios TestStreamChurnSoak checks")
	flagStreamPointQCount = flag.Int("sim.streampointqcount", 2,
		"number of randomized point-query scenarios TestStreamPointQSoak checks")
	flagStreamTierCount = flag.Int("sim.streamtiercount", 2,
		"number of randomized hierarchical-tier scenarios TestStreamTierSoak checks")
	flagStreamReplay = flag.String("sim.streamreplay", "",
		"replay a single streaming scenario from its failure-message one-liner (any flavor: stream1, streamcrash1, streamchurn1, streampointq1, streamtier1)")
)

// replayStream dispatches a -sim.streamreplay line to the scenario
// flavor its prefix names. Returns false if the line is empty.
func replayStream(t *testing.T, line string) bool {
	t.Helper()
	if line == "" {
		return false
	}
	prefix, _, _ := strings.Cut(strings.TrimSpace(line), " ")
	var err error
	switch prefix {
	case "stream1":
		var scn StreamScenario
		if scn, err = ParseStreamScenario(line); err == nil {
			err = CheckStreamScenario(scn)
		}
	case "streamcrash1":
		var scn StreamCrashScenario
		if scn, err = ParseStreamCrashScenario(line); err == nil {
			err = CheckStreamCrashScenario(scn)
		}
	case "streamchurn1":
		var scn StreamChurnScenario
		if scn, err = ParseStreamChurnScenario(line); err == nil {
			err = CheckStreamChurnScenario(scn)
		}
	case "streampointq1":
		var scn StreamPointQScenario
		if scn, err = ParseStreamPointQScenario(line); err == nil {
			err = CheckStreamPointQScenario(scn)
		}
	case "streamtier1":
		var scn StreamTierScenario
		if scn, err = ParseStreamTierScenario(line); err == nil {
			err = CheckStreamTierScenario(scn)
		}
	default:
		t.Fatalf("unknown streaming scenario prefix %q", prefix)
	}
	if err != nil {
		t.Fatalf("replayed streaming scenario failed: %v\nscenario: %s", err, line)
	}
	return true
}

// TestStreamSoak is the streaming harness entry point: randomized
// scenarios of ≥ 4 nodes pushing window-tagged deltas through chaos TCP
// proxies into a live aggregator, with a scheduled node crash/restart
// and injected duplicate flushes. Each scenario's per-window aggregator
// sketches must be bit-identical to a shadow mirror of the exact fold
// sequence, and the recovered outliers must match the exact centralized
// oracle for every contiguous window span.
func TestStreamSoak(t *testing.T) {
	if replayStream(t, *flagStreamReplay) {
		return
	}
	base := baseSeed(t)
	for i := 0; i < *flagStreamCount; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			scn := GenerateStream(base, i)
			if err := CheckStreamScenario(scn); err != nil {
				t.Fatalf("streaming scenario %d (base seed %d) failed: %v\n"+
					"replay: go test ./internal/simtest -run 'TestStreamSoak$' -sim.streamreplay='%s'",
					i, base, err, scn)
			}
		})
	}
}

// TestStreamCrashSoak is the crash-restart soak entry point: randomized
// scenarios where the aggregator snapshots at a seeded flush, dies at a
// later one, and is restored on a fresh listener with node-side
// retention replay. Post-restore windows must be bit-identical to an
// uninterrupted run and the outliers exact on every window span.
func TestStreamCrashSoak(t *testing.T) {
	if replayStream(t, *flagStreamReplay) {
		return
	}
	base := baseSeed(t)
	for i := 0; i < *flagStreamCrashCount; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			scn := GenerateStreamCrash(base, i)
			if err := CheckStreamCrashScenario(scn); err != nil {
				t.Fatalf("crash-restart scenario %d (base seed %d) failed: %v\n"+
					"replay: go test ./internal/simtest -run 'TestStreamCrashSoak$' -sim.streamreplay='%s'",
					i, base, err, scn)
			}
		})
	}
}

// TestStreamChurnSoak is the membership-churn soak entry point:
// randomized scenarios with a mid-run join, a graceful leave, and a
// liveness eviction with resurrection, all under chaos TCP. Windows
// must stay bit-identical to the shadow fold and every capture must be
// folded exactly once (conservation).
func TestStreamChurnSoak(t *testing.T) {
	if replayStream(t, *flagStreamReplay) {
		return
	}
	base := baseSeed(t)
	for i := 0; i < *flagStreamChurnCount; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			scn := GenerateStreamChurn(base, i)
			if err := CheckStreamChurnScenario(scn); err != nil {
				t.Fatalf("membership-churn scenario %d (base seed %d) failed: %v\n"+
					"replay: go test ./internal/simtest -run 'TestStreamChurnSoak$' -sim.streamreplay='%s'",
					i, base, err, scn)
			}
		})
	}
}

// TestStreamPointQSoak is the point-query soak entry point: randomized
// scenarios pushing window-tagged deltas into a live count-sketch
// aggregator, with recovery-free point queries issued both mid-run and
// over every window span at the end. Every answer must agree with the
// exact centralized oracle: planted outliers recovered to matchTol and
// flagged, clean keys on the mode and unflagged; the hybrid span top-k
// path must stay exact on the same ring.
func TestStreamPointQSoak(t *testing.T) {
	if replayStream(t, *flagStreamReplay) {
		return
	}
	base := baseSeed(t)
	for i := 0; i < *flagStreamPointQCount; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			scn := GenerateStreamPointQ(base, i)
			if err := CheckStreamPointQScenario(scn); err != nil {
				t.Fatalf("point-query scenario %d (base seed %d) failed: %v\n"+
					"replay: go test ./internal/simtest -run 'TestStreamPointQSoak$' -sim.streamreplay='%s'",
					i, base, err, scn)
			}
		})
	}
}

// TestStreamTierSoak is the hierarchical-tier soak entry point:
// randomized 2-tier × 2-shard scenarios — per shard, leaf data centers
// pushing count-sketch deltas through chaos TCP proxies into regional
// relays that forward folded windows to a shard root — with a mid-run
// relay kill/restore. Each shard root's windows must be bit-identical
// to a flat shadow fold, routed span and point answers exact against
// the centralized oracle, and every leaf capture folded at its root
// exactly once.
func TestStreamTierSoak(t *testing.T) {
	if replayStream(t, *flagStreamReplay) {
		return
	}
	base := baseSeed(t)
	for i := 0; i < *flagStreamTierCount; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			scn := GenerateStreamTier(base, i)
			if err := CheckStreamTierScenario(scn); err != nil {
				t.Fatalf("hierarchical-tier scenario %d (base seed %d) failed: %v\n"+
					"replay: go test ./internal/simtest -run 'TestStreamTierSoak$' -sim.streamreplay='%s'",
					i, base, err, scn)
			}
		})
	}
}

// TestStreamTierScenarioRoundTrip covers the tier scenario codec and
// generator invariants.
func TestStreamTierScenarioRoundTrip(t *testing.T) {
	base := baseSeed(t)
	for i := 0; i < 8; i++ {
		scn := GenerateStreamTier(base, i)
		if err := scn.validate(); err != nil {
			t.Fatalf("scenario %d invalid: %v\n%s", i, err, scn)
		}
		if scn.M() > scn.N/4 {
			t.Fatalf("scenario %d loses the per-shard ≥2× compression floor: %s", i, scn)
		}
		if scn.KillWindow < 2 || scn.KillFlush < 1 {
			t.Fatalf("scenario %d kill point loses nothing: %s", i, scn)
		}
		rt, err := ParseStreamTierScenario(scn.String())
		if err != nil {
			t.Fatalf("scenario %d does not round-trip: %v\n%s", i, err, scn)
		}
		if rt.String() != scn.String() {
			t.Fatalf("round-trip changed scenario:\n%s\n%s", scn, rt)
		}
		if b := GenerateStreamTier(base, i); b.String() != scn.String() {
			t.Fatalf("GenerateStreamTier(%d, %d) not deterministic", base, i)
		}
	}
	for _, bad := range []string{
		"",
		"streamtier1 seed=1",
		"streamtier1 seed=1 n=1000 s=2 l=4 w=2 d=7 wid=96 k=2 mode=50 noise=0 ks=0 kw=2 kf=1 proxy=6000:12000", // M > N/4
		"streamtier1 seed=1 n=3000 s=2 l=4 w=2 d=7 wid=96 k=2 mode=50 noise=0 ks=0 kw=1 kf=1 proxy=6000:12000", // kill before any forward
		"streamtier1 seed=1 n=3000 s=2 l=4 w=2 d=7 wid=96 k=2 mode=50 noise=0 ks=0 kw=2 kf=0 proxy=6000:12000", // nothing lost
		"streamtier1 seed=1 n=3000 s=2 l=4 w=2 d=7 wid=96 k=2 mode=50 noise=0 ks=2 kw=2 kf=1 proxy=6000:12000", // shard out of range
		"streamtier1 seed=1 n=3000 s=2 l=4 w=2 d=7 wid=96 k=2 mode=0 noise=0 ks=0 kw=2 kf=1 proxy=6000:12000",  // zero mode
	} {
		if _, err := ParseStreamTierScenario(bad); err == nil {
			t.Errorf("ParseStreamTierScenario(%q) accepted invalid line", bad)
		}
	}
}

// TestStreamPointQScenarioRoundTrip covers the point-query scenario
// codec and generator invariants.
func TestStreamPointQScenarioRoundTrip(t *testing.T) {
	base := baseSeed(t)
	for i := 0; i < 8; i++ {
		scn := GenerateStreamPointQ(base, i)
		if err := scn.validate(); err != nil {
			t.Fatalf("scenario %d invalid: %v\n%s", i, err, scn)
		}
		if scn.M() != scn.Depth*scn.Width || scn.M() > scn.N/2 {
			t.Fatalf("scenario %d loses the ≥2× compression floor: %s", i, scn)
		}
		rt, err := ParseStreamPointQScenario(scn.String())
		if err != nil {
			t.Fatalf("scenario %d does not round-trip: %v\n%s", i, err, scn)
		}
		if rt.String() != scn.String() {
			t.Fatalf("round-trip changed scenario:\n%s\n%s", scn, rt)
		}
		if b := GenerateStreamPointQ(base, i); b.String() != scn.String() {
			t.Fatalf("GenerateStreamPointQ(%d, %d) not deterministic", base, i)
		}
	}
	for _, bad := range []string{
		"",
		"streampointq1 seed=1",
		"streampointq1 seed=1 n=100 s=2 l=3 w=2 d=7 wid=96 k=2 mode=50 noise=0",  // M > N
		"streampointq1 seed=1 n=2000 s=2 l=3 w=2 d=0 wid=96 k=2 mode=50 noise=0", // depth 0
		"streampointq1 seed=1 n=2000 s=2 l=3 w=2 d=7 wid=96 k=2 mode=0 noise=0",  // zero mode
	} {
		if _, err := ParseStreamPointQScenario(bad); err == nil {
			t.Errorf("ParseStreamPointQScenario(%q) accepted invalid line", bad)
		}
	}
}

// TestStreamCrashScenarioRoundTrip covers the crash scenario codec and
// generator invariants.
func TestStreamCrashScenarioRoundTrip(t *testing.T) {
	base := baseSeed(t)
	for i := 0; i < 8; i++ {
		scn := GenerateStreamCrash(base, i)
		if err := scn.validate(); err != nil {
			t.Fatalf("scenario %d invalid: %v\n%s", i, err, scn)
		}
		if scn.CrashFlush <= scn.SnapFlush {
			t.Fatalf("scenario %d loses no frames: %s", i, scn)
		}
		rt, err := ParseStreamCrashScenario(scn.String())
		if err != nil {
			t.Fatalf("scenario %d does not round-trip: %v\n%s", i, err, scn)
		}
		if rt.String() != scn.String() {
			t.Fatalf("round-trip changed scenario:\n%s\n%s", scn, rt)
		}
		if b := GenerateStreamCrash(base, i); b.String() != scn.String() {
			t.Fatalf("GenerateStreamCrash(%d, %d) not deterministic", base, i)
		}
	}
	for _, bad := range []string{
		"",
		"stream1 seed=1",
		"streamcrash1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 ens=gaussian cw=9 snap=0 crash=1 proxy=4096:8192",  // crash window
		"streamcrash1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 ens=gaussian cw=1 snap=3 crash=3 proxy=4096:8192",  // nothing lost
		"streamcrash1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 ens=gaussian cw=1 snap=0 crash=12 proxy=4096:8192", // flush out of range
	} {
		if _, err := ParseStreamCrashScenario(bad); err == nil {
			t.Errorf("ParseStreamCrashScenario(%q) accepted invalid line", bad)
		}
	}
}

// TestStreamChurnScenarioRoundTrip covers the churn scenario codec and
// generator invariants.
func TestStreamChurnScenarioRoundTrip(t *testing.T) {
	base := baseSeed(t)
	for i := 0; i < 8; i++ {
		scn := GenerateStreamChurn(base, i)
		if err := scn.validate(); err != nil {
			t.Fatalf("scenario %d invalid: %v\n%s", i, err, scn)
		}
		if scn.LeaveNode == scn.EvictNode {
			t.Fatalf("scenario %d leave and evict coincide: %s", i, scn)
		}
		rt, err := ParseStreamChurnScenario(scn.String())
		if err != nil {
			t.Fatalf("scenario %d does not round-trip: %v\n%s", i, err, scn)
		}
		if rt.String() != scn.String() {
			t.Fatalf("round-trip changed scenario:\n%s\n%s", scn, rt)
		}
		if b := GenerateStreamChurn(base, i); b.String() != scn.String() {
			t.Fatalf("GenerateStreamChurn(%d, %d) not deterministic", base, i)
		}
	}
	for _, bad := range []string{
		"",
		"streamchurn1 seed=1 n=200 s=3 l=4 w=3 m=80 k=3 mode=50 ens=gaussian join=1 leave=0@1 evict=1@1 proxy=4096:8192", // join before window 2
		"streamchurn1 seed=1 n=200 s=3 l=4 w=3 m=80 k=3 mode=50 ens=gaussian join=2 leave=0@1 evict=0@1 proxy=4096:8192", // leave==evict
		"streamchurn1 seed=1 n=200 s=3 l=4 w=3 m=80 k=3 mode=50 ens=gaussian join=2 leave=0@1 evict=1@3 proxy=4096:8192", // evict too late
	} {
		if _, err := ParseStreamChurnScenario(bad); err == nil {
			t.Errorf("ParseStreamChurnScenario(%q) accepted invalid line", bad)
		}
	}
}

// TestStreamScenarioRoundTrip covers the streaming scenario codec and
// generator invariants: generated scenarios always include ≥ 4 nodes,
// a crash, a distinct dup node, and proxy budgets that pass a frame.
func TestStreamScenarioRoundTrip(t *testing.T) {
	base := baseSeed(t)
	for i := 0; i < 8; i++ {
		scn := GenerateStream(base, i)
		if scn.L < 4 {
			t.Fatalf("scenario %d has %d nodes, want ≥ 4: %s", i, scn.L, scn)
		}
		if scn.CrashNode == scn.DupNode {
			t.Fatalf("scenario %d crash and dup coincide: %s", i, scn)
		}
		if err := scn.validate(); err != nil {
			t.Fatalf("scenario %d invalid: %v\n%s", i, err, scn)
		}
		rt, err := ParseStreamScenario(scn.String())
		if err != nil {
			t.Fatalf("scenario %d does not round-trip: %v\n%s", i, err, scn)
		}
		if rt.String() != scn.String() {
			t.Fatalf("round-trip changed scenario:\n%s\n%s", scn, rt)
		}
		b := GenerateStream(base, i)
		if b.String() != scn.String() {
			t.Fatalf("GenerateStream(%d, %d) not deterministic", base, i)
		}
	}
	for _, bad := range []string{
		"",
		"v1 seed=1",
		"stream1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=0 ens=gaussian crash=0@1 dup=1 proxy=4096:8192",  // zero mode
		"stream1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 ens=gaussian crash=1@1 dup=1 proxy=4096:8192", // crash==dup
		"stream1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 ens=gaussian crash=0@9 dup=1 proxy=4096:8192", // crash window
		"stream1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 ens=gaussian crash=0@1 dup=1 proxy=16:32",     // budget < frame
	} {
		if _, err := ParseStreamScenario(bad); err == nil {
			t.Errorf("ParseStreamScenario(%q) accepted invalid line", bad)
		}
	}
}
