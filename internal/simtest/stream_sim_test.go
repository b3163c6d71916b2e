package simtest

import (
	"bufio"
	"flag"
	"os"
	"reflect"
	"strconv"
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
		"replay a single streaming scenario from its failure-message one-liner (stream2, or any legacy flavor: stream1, streamcrash1, streamchurn1, streampointq1, streamtier1)")
)

// soak is every streaming soak: count seeded scenarios of one flavor
// through CheckStreamScenario, or the one -sim.streamreplay names.
func soak(t *testing.T, flavor string, count int) {
	if line := *flagStreamReplay; line != "" {
		scn, err := ParseStreamScenario(line)
		if err == nil {
			err = CheckStreamScenario(scn)
		}
		if err != nil {
			t.Fatalf("replayed streaming scenario failed: %v\nscenario: %s", err, line)
		}
		return
	}
	base := baseSeed(t)
	for i := 0; i < count; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			scn := GenerateStream(flavor, base, i)
			if err := CheckStreamScenario(scn); err != nil {
				t.Fatalf("%s scenario %d (base seed %d) failed: %v\n"+
					"replay: go test ./internal/simtest -run '%s$' -sim.streamreplay='%s'",
					flavor, i, base, err, strings.SplitN(t.Name(), "/", 2)[0], scn)
			}
		})
	}
}

// TestStreamSoak: ≥ 4 nodes pushing window-tagged deltas through chaos
// TCP proxies into a live aggregator, with a scheduled node
// crash/restart and injected duplicate flushes.
func TestStreamSoak(t *testing.T) { soak(t, "stream1", *flagStreamCount) }

// TestStreamCrashSoak: the aggregator snapshots at a seeded flush, dies
// at a later one, and is restored on a fresh listener with node-side
// retention replay.
func TestStreamCrashSoak(t *testing.T) { soak(t, "streamcrash1", *flagStreamCrashCount) }

// TestStreamChurnSoak: a mid-run join, a graceful leave, and a liveness
// eviction with resurrection, all under chaos TCP.
func TestStreamChurnSoak(t *testing.T) { soak(t, "streamchurn1", *flagStreamChurnCount) }

// TestStreamPointQSoak: a live count-sketch aggregator answering
// recovery-free point queries mid-run and over every window span.
func TestStreamPointQSoak(t *testing.T) { soak(t, "streampointq1", *flagStreamPointQCount) }

// TestStreamTierSoak: the 2-tier × 2-shard tree — leaves through chaos
// proxies into regional relays that forward folded windows to a shard
// root — with a mid-run relay kill/restore.
func TestStreamTierSoak(t *testing.T) { soak(t, "streamtier1", *flagStreamTierCount) }

// roundTrips is the per-flavor half of the codec tests: the invariant a
// flavor's generator promises beyond validate, and lines its grammar
// must refuse.
var roundTrips = map[string]struct {
	invariant func(StreamScenario) string
	bad       []string
}{
	"stream1": {
		// Generated scenarios always include ≥ 4 nodes, a crash, a distinct
		// dup node, and proxy budgets that pass a frame.
		func(s StreamScenario) string {
			switch {
			case s.L < 4:
				return "fewer than 4 nodes"
			case s.mark(MarkNodeCrash).Node == s.mark(MarkDup).Node:
				return "crash and dup coincide"
			}
			return ""
		},
		[]string{
			"",
			"v1 seed=1",
			"stream1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=0 ens=gaussian crash=0@1 dup=1 proxy=4096:8192",  // zero mode
			"stream1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 ens=gaussian crash=1@1 dup=1 proxy=4096:8192", // crash==dup
			"stream1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 ens=gaussian crash=0@9 dup=1 proxy=4096:8192", // crash window
			"stream1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 ens=gaussian crash=0@1 dup=1 proxy=16:32",     // budget < frame
		},
	},
	"streamcrash1": {
		func(s StreamScenario) string {
			if s.mark(MarkAggCrash).Flush <= s.mark(MarkSnap).Flush {
				return "loses no frames"
			}
			return ""
		},
		[]string{
			"",
			"stream1 seed=1",
			"streamcrash1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 ens=gaussian cw=9 snap=0 crash=1 proxy=4096:8192",  // crash window
			"streamcrash1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 ens=gaussian cw=1 snap=3 crash=3 proxy=4096:8192",  // nothing lost
			"streamcrash1 seed=1 n=200 s=3 l=4 w=2 m=80 k=3 mode=50 ens=gaussian cw=1 snap=0 crash=12 proxy=4096:8192", // flush out of range
		},
	},
	"streamchurn1": {
		func(s StreamScenario) string {
			if s.mark(MarkLeave).Node == s.mark(MarkEvict).Node {
				return "leave and evict coincide"
			}
			return ""
		},
		[]string{
			"",
			"streamchurn1 seed=1 n=200 s=3 l=4 w=3 m=80 k=3 mode=50 ens=gaussian join=1 leave=0@1 evict=1@1 proxy=4096:8192", // join before window 2
			"streamchurn1 seed=1 n=200 s=3 l=4 w=3 m=80 k=3 mode=50 ens=gaussian join=2 leave=0@1 evict=0@1 proxy=4096:8192", // leave==evict
			"streamchurn1 seed=1 n=200 s=3 l=4 w=3 m=80 k=3 mode=50 ens=gaussian join=2 leave=0@1 evict=1@3 proxy=4096:8192", // evict too late
		},
	},
	"streampointq1": {
		func(s StreamScenario) string {
			if s.M != s.Depth*s.Width || s.M > s.N/2 {
				return "loses the ≥2× compression floor"
			}
			return ""
		},
		[]string{
			"",
			"streampointq1 seed=1",
			"streampointq1 seed=1 n=100 s=2 l=3 w=2 d=7 wid=96 k=2 mode=50 noise=0",  // M > N
			"streampointq1 seed=1 n=2000 s=2 l=3 w=2 d=0 wid=96 k=2 mode=50 noise=0", // depth 0
			"streampointq1 seed=1 n=2000 s=2 l=3 w=2 d=7 wid=96 k=2 mode=0 noise=0",  // zero mode
		},
	},
	"streamtier1": {
		func(s StreamScenario) string {
			switch kill := s.mark(MarkRelayKill); {
			case s.M > s.N/4:
				return "loses the per-shard ≥2× compression floor"
			case kill.Window < 2 || kill.Flush < 1:
				return "kill point loses nothing"
			}
			return ""
		},
		[]string{
			"",
			"streamtier1 seed=1",
			"streamtier1 seed=1 n=1000 s=2 l=4 w=2 d=7 wid=96 k=2 mode=50 noise=0 ks=0 kw=2 kf=1 proxy=6000:12000", // M > N/4
			"streamtier1 seed=1 n=3000 s=2 l=4 w=2 d=7 wid=96 k=2 mode=50 noise=0 ks=0 kw=1 kf=1 proxy=6000:12000", // kill before any forward
			"streamtier1 seed=1 n=3000 s=2 l=4 w=2 d=7 wid=96 k=2 mode=50 noise=0 ks=0 kw=2 kf=0 proxy=6000:12000", // nothing lost
			"streamtier1 seed=1 n=3000 s=2 l=4 w=2 d=7 wid=96 k=2 mode=50 noise=0 ks=2 kw=2 kf=1 proxy=6000:12000", // shard out of range
			"streamtier1 seed=1 n=3000 s=2 l=4 w=2 d=7 wid=96 k=2 mode=0 noise=0 ks=0 kw=2 kf=1 proxy=6000:12000",  // zero mode
		},
	},
}

// roundTrip covers one flavor's codec and generator invariants.
func roundTrip(t *testing.T, flavor string) {
	base := baseSeed(t)
	rt := roundTrips[flavor]
	for i := 0; i < 8; i++ {
		scn := GenerateStream(flavor, base, i)
		if err := scn.validate(); err != nil {
			t.Fatalf("scenario %d invalid: %v\n%s", i, err, scn)
		}
		if why := rt.invariant(scn); why != "" {
			t.Fatalf("scenario %d %s: %s", i, why, scn)
		}
		back, err := ParseStreamScenario(scn.String())
		if err != nil {
			t.Fatalf("scenario %d does not round-trip: %v\n%s", i, err, scn)
		}
		if !reflect.DeepEqual(back, scn) {
			t.Fatalf("round-trip changed scenario:\n%s\n%s", scn, back)
		}
		if b := GenerateStream(flavor, base, i); !reflect.DeepEqual(b, scn) {
			t.Fatalf("GenerateStream(%s, %d, %d) not deterministic", flavor, base, i)
		}
	}
	for _, bad := range rt.bad {
		if _, err := ParseStreamScenario(bad); err == nil {
			t.Errorf("ParseStreamScenario(%q) accepted invalid line", bad)
		}
	}
}

func TestStreamScenarioRoundTrip(t *testing.T)       { roundTrip(t, "stream1") }
func TestStreamCrashScenarioRoundTrip(t *testing.T)  { roundTrip(t, "streamcrash1") }
func TestStreamChurnScenarioRoundTrip(t *testing.T)  { roundTrip(t, "streamchurn1") }
func TestStreamPointQScenarioRoundTrip(t *testing.T) { roundTrip(t, "streampointq1") }
func TestStreamTierScenarioRoundTrip(t *testing.T)   { roundTrip(t, "streamtier1") }

// TestStreamLegacyLines pins the generators and the legacy grammars to
// the five harnesses they replaced: every line of testdata (recorded at
// the last commit that had them, as "base index line") must parse to
// exactly the scenario the generator draws for the same flavor, base
// and index, and the first two of each flavor are replayed end to end.
func TestStreamLegacyLines(t *testing.T) {
	f, err := os.Open("testdata/legacy_lines.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ran := map[string]int{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		rec := strings.SplitN(sc.Text(), " ", 3)
		base, _ := strconv.ParseUint(rec[0], 10, 64)
		index, _ := strconv.Atoi(rec[1])
		flavor, _, _ := strings.Cut(rec[2], " ")
		scn, err := ParseStreamScenario(rec[2])
		if err != nil {
			t.Fatalf("%v\nline: %s", err, rec[2])
		}
		if want := GenerateStream(flavor, base, index); !reflect.DeepEqual(scn, want) {
			t.Fatalf("GenerateStream(%s, %d, %d) moved:\nrecorded  %s\ngenerated %s", flavor, base, index, scn, want)
		}
		if ran[flavor]++; ran[flavor] <= 2 {
			t.Run(flavor, func(t *testing.T) {
				t.Parallel()
				if err := CheckStreamScenario(scn); err != nil {
					t.Fatalf("%v\nline: %s", err, rec[2])
				}
			})
		}
	}
	if len(ran) != len(streamFlavors) {
		t.Fatalf("testdata covers flavors %v, want all %d", ran, len(streamFlavors))
	}
}

// TestStreamComposed runs fault mixes no single flavor generates — the
// reason there is one harness. Sizes are taken from generated scenarios;
// the universal invariants and each mark's postcondition must hold.
func TestStreamComposed(t *testing.T) {
	for name, line := range map[string]string{
		// A node restart before the snapshot and another node's verbatim
		// duplicates around an aggregator snapshot/crash/restore.
		"crash+dup+restore": "stream2 seed=11 n=328 s=3 l=4 w=3 k=3 mode=-569.67 noise=173.85 m=130 ens=gaussian proxy=1253:1253 dup=1 nodecrash=0@2 snap=2:4 aggcrash=2:9",
		// Churn with the aggregator restored between the leave and the
		// eviction: the tombstone and the membership version must survive.
		"churn+restore": "stream2 seed=12 n=278 s=2 l=4 w=4 k=2 mode=-3726.79 noise=0 m=109 ens=gaussian proxy=1085:1085 join=2 leave=0@1 snap=2:2 aggcrash=2:10 evict=2@3",
		// Count-sketch point probes through chaos proxies on both sides of
		// an aggregator restore.
		"probes+restore": "stream2 seed=13 n=1826 s=2 l=3 w=3 k=2 mode=1091.16 noise=856 d=7 wid=96 proxy=5589:5589 probe=1 snap=2:1 aggcrash=2:6 probe=2 probe=3",
		// Mid-run probes routed over the wire to the tier's shard roots.
		"tier+probes": "stream2 seed=14 n=4290 s=1 l=4 w=2 k=1 mode=-1932.04 noise=0 d=7 wid=128 topo=tier proxy=7381:7381 probe=1 relaykill=1@2:4 probe=2",
	} {
		line := line
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			scn, err := ParseStreamScenario(line)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckStreamScenario(scn); err != nil {
				t.Fatalf("%v\nscenario: %s", err, scn)
			}
		})
	}
	// The one schedule where exactness is not promised is refused by name.
	_, err := ParseStreamScenario("stream2 seed=11 n=328 s=3 l=4 w=3 k=3 mode=-569.67 noise=173.85 m=130 ens=gaussian proxy=1253:1253 nodecrash=1@2 snap=2:4 aggcrash=2:9")
	if err == nil || !strings.Contains(err.Error(), "retention buffer") {
		t.Fatalf("node crash between snapshot and aggregator crash: %v, want a refusal naming the retention buffer", err)
	}
}
