package simtest

import (
	"flag"
	"testing"

	"csoutlier"
	"csoutlier/internal/xrand/xrandtest"
)

// Harness flags. CI runs the small default; nightly/soak runs raise
// -sim.count; a failure is replayed exactly with -sim.replay.
var (
	flagCount = flag.Int("sim.count", 25,
		"number of randomized scenarios TestSim checks")
	flagSeed = flag.Uint64("sim.seed", 0,
		"base seed for scenario generation (0 = default; takes precedence over -seed)")
	flagReplay = flag.String("sim.replay", "",
		"replay a single scenario from its failure-message one-liner instead of generating scenarios")
)

// defaultBase is the stable seed CI sweeps from; scenario i of a run is
// Generate(base, i), so a failure is pinned by (base, line) and the line
// alone suffices to replay it.
const defaultBase = 0xc50d_e7ec

func baseSeed(t *testing.T) uint64 {
	if *flagSeed != 0 {
		return *flagSeed
	}
	return xrandtest.Seed(t, defaultBase)
}

// TestSim is the harness entry point: -sim.count randomized scenarios
// through the real distributed pipeline, each differentially compared to
// the exact oracle and put through the metamorphic invariants. On failure
// it shrinks the scenario and prints a replayable one-liner.
func TestSim(t *testing.T) {
	if *flagReplay != "" {
		scn, err := ParseScenario(*flagReplay)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckScenario(scn, Hooks{}); err != nil {
			t.Fatalf("replayed scenario failed: %v\nscenario: %s", err, scn)
		}
		return
	}

	base := baseSeed(t)
	for i := 0; i < *flagCount; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			t.Parallel()
			scn := Generate(base, i)
			if err := CheckScenario(scn, Hooks{}); err != nil {
				min := Shrink(scn, Hooks{}, 40)
				t.Fatalf("scenario %d (base seed %d) failed: %v\n"+
					"replay:   go test ./internal/simtest -run 'TestSim$' -sim.replay='%s'\n"+
					"original: %s\nshrunk:   %s",
					i, base, err, min, scn, min)
			}
		})
	}
}

// TestSimDeterminism pins the bit-level reproducibility the replay story
// rests on: the same (base, index) must generate byte-identical scenarios,
// and a checked scenario must pass (or fail) identically across runs.
func TestSimDeterminism(t *testing.T) {
	base := baseSeed(t)
	for i := 0; i < 5; i++ {
		a, b := Generate(base, i), Generate(base, i)
		if a.String() != b.String() {
			t.Fatalf("Generate(%d, %d) not deterministic:\n%s\n%s", base, i, a, b)
		}
		rt, err := ParseScenario(a.String())
		if err != nil {
			t.Fatalf("scenario %d does not round-trip: %v", i, err)
		}
		if rt.String() != a.String() {
			t.Fatalf("round-trip changed scenario:\n%s\n%s", a, rt)
		}
	}
	// Same scenario, two full pipeline runs — both must agree.
	scn := Generate(base, 0)
	for run := 0; run < 2; run++ {
		if err := CheckScenario(scn, Hooks{}); err != nil {
			t.Fatalf("run %d: %v\nscenario: %s", run, err, scn)
		}
	}
}

// TestScenarioRoundTrip covers the parser against hand-written lines,
// including fault schedules and rejection of invalid configurations.
func TestScenarioRoundTrip(t *testing.T) {
	good := "v1 seed=42 n=200 s=3 l=4 m=80 k=3 mode=-250 alpha=1.5 noise=100 ens=countsketch faults=.fh."
	scn, err := ParseScenario(good)
	if err != nil {
		t.Fatal(err)
	}
	if scn.L != 4 || scn.Faults[1] != FaultFlaky || scn.Faults[2] != FaultHang {
		t.Fatalf("parsed %+v", scn)
	}
	if scn.String() != good {
		t.Fatalf("round trip: %q != %q", scn.String(), good)
	}

	for _, bad := range []string{
		"",
		"v0 seed=1",
		"v1 seed=x",
		"v1 seed=1 n=200 s=3 l=2 m=80 k=3 ens=gaussian faults=.",  // faults≠L
		"v1 seed=1 n=200 s=3 l=1 m=80 k=3 ens=gaussian faults=h",  // nobody survives
		"v1 seed=1 n=200 s=80 l=1 m=80 k=3 ens=gaussian faults=.", // S > N/4
		"v1 seed=1 n=60 s=3 l=1 m=80 k=3 ens=gaussian faults=.",   // M > N
		"v1 seed=1 n=200 s=3 l=1 m=80 k=3 ens=banana faults=.",    // ensemble
		"v1 seed=1 n=200 s=3 l=1 m=80 k=3 ens=srht faults=.",      // retired ensemble
		"v1 seed=1 n=200 s=3 l=1 m=80 k=3 ens=gaussian faults=.x", // fault rune
		"v1 seed=1 n=200 s=3 l=1 m=80 k=3 bogus=1 faults=.",       // unknown key
	} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) accepted invalid line", bad)
		}
	}
}

// TestSimCatchesInjectedBug is the harness's self-test: a seeded recovery
// bug (the classic off-by-one that drops the weakest recovered outlier,
// i.e. a too-small BOMP support) must be caught by the differential
// oracle on a healthy scenario, and the shrunken reproduction must still
// expose it.
func TestSimCatchesInjectedBug(t *testing.T) {
	bug := Hooks{MutateReport: func(r *csoutlier.Report) {
		if len(r.Outliers) > 0 {
			r.Outliers = r.Outliers[:len(r.Outliers)-1]
		}
	}}

	base := baseSeed(t)
	caught := 0
	for i := 0; i < 10; i++ {
		scn := Generate(base, i)
		err := CheckScenario(scn, bug)
		if err == nil {
			// Scenarios whose oracle answer is empty (k outliers requested,
			// none recovered… impossible here since S≥1,K≥1) would slip
			// through; with S,K ≥ 1 every scenario must catch the bug.
			t.Fatalf("scenario %d: injected off-by-one not caught\nscenario: %s", i, scn)
		}
		caught++
		if i == 0 {
			// The shrunken scenario must still expose the bug, and its
			// one-liner must replay to the same failure.
			min := Shrink(scn, bug, 30)
			if CheckScenario(min, bug) == nil {
				t.Fatalf("shrunk scenario no longer fails: %s", min)
			}
			rt, err := ParseScenario(min.String())
			if err != nil {
				t.Fatal(err)
			}
			if CheckScenario(rt, bug) == nil {
				t.Fatalf("replayed shrunk scenario passes: %s", min)
			}
			t.Logf("injected bug shrunk to: %s", min)
		}
	}
	if caught != 10 {
		t.Fatalf("only %d/10 scenarios caught the injected bug", caught)
	}
}
