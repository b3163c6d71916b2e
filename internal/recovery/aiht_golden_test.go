package recovery

import (
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
)

// resultHash folds every field of a Result into one FNV-1a word, floats
// by their IEEE-754 bits.
func resultHash(r *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	fs := func(v []float64) {
		u(uint64(len(v)))
		for _, x := range v {
			u(math.Float64bits(x))
		}
	}
	is := func(v []int) {
		u(uint64(len(v)))
		for _, x := range v {
			u(uint64(x))
		}
	}
	fs(r.X)
	u(math.Float64bits(r.Mode))
	is(r.Support)
	fs(r.Coef)
	is(r.Selection)
	u(uint64(r.Iterations))
	u(math.Float64bits(r.Residual))
	if r.StoppedEarly {
		u(1)
	}
	fs(r.ResidualTrace)
	return h.Sum64()
}

// thresholdSolvers is the IHT family behind one signature, so the golden
// cases run unchanged against package-level functions or one workspace.
type thresholdSolvers struct {
	aiht func(m sensing.Matrix, y linalg.Vector, s int, biased bool, warm []int, opt Options) (*Result, error)
	iht  func(m sensing.Matrix, y linalg.Vector, s int, biased bool, opt Options) (*Result, error)
}

// goldenCase is one recorded call.
type goldenCase struct {
	name string
	hash uint64
}

// runGoldenCases replays the fixed call sequence and reports each result.
func runGoldenCases(t *testing.T, sv thresholdSolvers, visit func(name string, res *Result)) {
	t.Helper()
	type ens struct {
		name string
		mat  sensing.Matrix
		s    int
	}
	mk := func(m sensing.Matrix, err error) sensing.Matrix {
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	denseM, err := sensing.NewDense(sensing.Params{M: 96, N: 500, Seed: 11})
	seededM, err2 := sensing.NewSeeded(sensing.Params{M: 80, N: 300, Seed: 12})
	countM, err3 := sensing.NewCountSketch(sensing.Params{M: 140, N: 600, Seed: 13}, 7)
	pullM, err4 := sensing.NewDense(sensing.Params{M: 320, N: 2000, Seed: 1})
	ensembles := []ens{
		{"dense", mk(denseM, err), 10},
		{"seeded", mk(seededM, err2), 8},
		{"countsketch", mk(countM, err3), 9},
		{"pullshape", mk(pullM, err4), 49},
	}
	for ei, e := range ensembles {
		p := e.mat.Params()
		seed := uint64(100 + ei)
		planted := e.s * 2 / 5
		// Biased, exact-sparse around a mode; and a jittered one that keeps
		// the iteration moving supports (safeguard, halvings, stall).
		x, _ := workload.MajorityDominated(p.N, planted, 1800, 300, 3000, seed)
		xj, _ := workload.NearMajorityDominated(p.N, planted, 1800, 40, 300, 3000, seed+50)
		y := e.mat.Measure(x, nil)
		yj := e.mat.Measure(xj, nil)
		// Sparse at zero for the un-biased entry points.
		x0, _ := workload.MajorityDominated(p.N, planted, 0, 300, 3000, seed+7)
		y0 := e.mat.Measure(x0, nil)

		do := func(name string, res *Result, err error) *Result {
			if err != nil {
				t.Fatalf("%s/%s: %v", e.name, name, err)
			}
			visit(e.name+"/"+name, res)
			return res
		}
		cold, err := sv.aiht(e.mat, y, e.s, true, nil, Options{})
		cold = do("cold", cold, err)
		hint := append([]int(nil), cold.Selection...)
		res, err := sv.aiht(e.mat, y, e.s, true, hint, Options{})
		do("warm", res, err)
		res, err = sv.aiht(e.mat, yj, e.s, true, nil, Options{})
		do("cold-jitter", res, err)
		// The exact-sparse answer hinted at the jittered measurement, with
		// out-of-range and duplicate entries mixed in.
		stale := append([]int{p.N + 9, -4, 3, 3}, hint...)
		res, err = sv.aiht(e.mat, yj, e.s, true, stale, Options{})
		do("stale-hint", res, err)
		res, err = sv.aiht(e.mat, yj, e.s, true, nil, Options{MaxIterations: 9, DisableEarlyStop: true, TraceResidual: true})
		do("traced", res, err)
		res, err = sv.aiht(e.mat, y0, e.s, false, nil, Options{})
		do("unbiased", res, err)
		res, err = sv.aiht(e.mat, make(linalg.Vector, p.M), e.s, true, nil, Options{})
		do("zero", res, err)
		if e.name == "pullshape" {
			continue // IHT at this size adds seconds and no new path
		}
		res, err = sv.iht(e.mat, yj, e.s, true, Options{MaxIterations: 25, TraceResidual: true})
		do("iht-biased", res, err)
		res, err = sv.iht(e.mat, y0, e.s, false, Options{MaxIterations: 25})
		do("iht-unbiased", res, err)
	}
}

func packageSolvers() thresholdSolvers {
	return thresholdSolvers{
		aiht: func(m sensing.Matrix, y linalg.Vector, s int, biased bool, warm []int, opt Options) (*Result, error) {
			switch {
			case !biased:
				return AIHT(m, y, s, opt)
			case warm == nil:
				return BiasedAIHT(m, y, s, opt)
			default:
				return BiasedAIHTWarm(m, y, s, warm, opt)
			}
		},
		iht: func(m sensing.Matrix, y linalg.Vector, s int, biased bool, opt Options) (*Result, error) {
			if biased {
				return BiasedIHT(m, y, s, opt)
			}
			return IHT(m, y, s, opt)
		},
	}
}

// parentGoldens are resultHash values of runGoldenCases recorded at the
// commit before AIHT moved into Workspace (amd64): the port changed where
// the slices live, not one operation or its order. A deliberate change
// to the algorithm re-records them from the failure messages.
var parentGoldens = []goldenCase{
	{"dense/cold", 0x7f6c3e3631613b14},               // iters=139 support=4
	{"dense/warm", 0xd4cbe5e89ff91cbf},               // iters=0 support=4
	{"dense/cold-jitter", 0x3c123101eb1ed9e3},        // iters=83 support=10
	{"dense/stale-hint", 0xabc285f837959cce},         // iters=49 support=10
	{"dense/traced", 0xb3de0147123d80f5},             // iters=9 support=10
	{"dense/unbiased", 0x317e1050275d9303},           // iters=83 support=4
	{"dense/zero", 0xae2298ddaab5e356},               // iters=0 support=0
	{"dense/iht-biased", 0xcc9b7c3445530157},         // iters=25 support=10
	{"dense/iht-unbiased", 0xea99b23c646bf8ad},       // iters=25 support=4
	{"seeded/cold", 0x4e29c268f1d64a29},              // iters=76 support=3
	{"seeded/warm", 0x09a0ce8aa1b40865},              // iters=0 support=3
	{"seeded/cold-jitter", 0x26c710fdf15ff724},       // iters=46 support=8
	{"seeded/stale-hint", 0x2d3a7957cdd2c81f},        // iters=43 support=8
	{"seeded/traced", 0xd698d7cbd44a8105},            // iters=9 support=8
	{"seeded/unbiased", 0xd5c1b7ed464e73e0},          // iters=71 support=3
	{"seeded/zero", 0x3ca308164387e88e},              // iters=0 support=0
	{"seeded/iht-biased", 0xc8349bbfc5ae12d1},        // iters=25 support=8
	{"seeded/iht-unbiased", 0xac432a1e25a3f52e},      // iters=25 support=3
	{"countsketch/cold", 0xfee8330373e488e0},         // iters=70 support=3
	{"countsketch/warm", 0x3cebdb7a89e56ee6},         // iters=0 support=3
	{"countsketch/cold-jitter", 0xfe88b28846898644},  // iters=33 support=9
	{"countsketch/stale-hint", 0x0a642a8d44f4e046},   // iters=25 support=9
	{"countsketch/traced", 0xa412d9acc24ed515},       // iters=9 support=9
	{"countsketch/unbiased", 0x226cc451acbfe336},     // iters=68 support=3
	{"countsketch/zero", 0x7764dc73af6a0c87},         // iters=0 support=0
	{"countsketch/iht-biased", 0x381fceab2aca2a8e},   // iters=25 support=9
	{"countsketch/iht-unbiased", 0xcf4e2fd12eb838cb}, // iters=25 support=3
	{"pullshape/cold", 0x1a1755eba26d6211},           // iters=156 support=19
	{"pullshape/warm", 0x2ba4131df7d0880d},           // iters=0 support=19
	{"pullshape/cold-jitter", 0xf0a5d469850c8c56},    // iters=92 support=49
	{"pullshape/stale-hint", 0x71cd0dc5005903e3},     // iters=64 support=49
	{"pullshape/traced", 0xf0cf2aef8f784c89},         // iters=9 support=49
	{"pullshape/unbiased", 0x1b37e995a43a78d7},       // iters=145 support=19
	{"pullshape/zero", 0x64155256fa061598},           // iters=0 support=0
}

func checkGoldens(t *testing.T, sv thresholdSolvers) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens were recorded on amd64; other ports may fuse multiply-adds")
	}
	i := 0
	runGoldenCases(t, sv, func(name string, res *Result) {
		if i >= len(parentGoldens) || parentGoldens[i].name != name {
			t.Fatalf("case %d is %q, golden table disagrees", i, name)
		}
		if got := resultHash(res); got != parentGoldens[i].hash {
			t.Errorf("%s: result hash 0x%016x, parent recorded 0x%016x (iters=%d support=%d)",
				name, got, parentGoldens[i].hash, res.Iterations, len(res.Support))
		}
		i++
	})
	if i != len(parentGoldens) {
		t.Fatalf("ran %d cases, golden table has %d", i, len(parentGoldens))
	}
}

// TestThresholdSolversMatchParent: the package-level entry points answer
// Float64bits-identically to the pre-workspace implementation.
func TestThresholdSolversMatchParent(t *testing.T) {
	checkGoldens(t, packageSolvers())
}

// TestWorkspaceAIHTReuse: one workspace carried across calls of different
// (M, N, s), ensembles and hints, with a BOMP run on the same workspace
// between every two AIHT calls, answers exactly what fresh workspaces do.
func TestWorkspaceAIHTReuse(t *testing.T) {
	ws := NewWorkspace()
	sv := packageSolvers()
	sv.aiht = func(m sensing.Matrix, y linalg.Vector, s int, biased bool, warm []int, opt Options) (*Result, error) {
		bompOpt := Options{MaxIterations: IterationBudget(4)}
		got, err := ws.BOMP(m, y, bompOpt)
		if err != nil {
			return nil, err
		}
		want, err := BOMP(m, y, bompOpt)
		if err != nil {
			return nil, err
		}
		if resultHash(got) != resultHash(want) {
			t.Errorf("BOMP on a workspace AIHT has used diverges from a fresh one")
		}
		if !biased {
			return ws.AIHT(m, y, s, opt)
		}
		return ws.BiasedAIHTWarm(m, y, s, warm, opt)
	}
	checkGoldens(t, sv)
}

// TestWorkspaceAIHTSteadyStateAllocs pins AIHT on a warmed workspace at
// the oneshot_pull shape: nothing per call beyond the Go runtime's own
// bookkeeping, and nothing that grows with the iteration count. Kernels
// run serial (GOMAXPROCS 1): the parallel correlate's fan-out closures
// are linalg's cost, not the solver's.
func TestWorkspaceAIHTSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := sensing.Params{M: 320, N: 2000, Seed: 1}
	m, err := sensing.NewDense(p)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := workload.NearMajorityDominated(p.N, 20, 5000, 40, 400, 2000, 3)
	y := m.Measure(x, nil)
	ws := NewWorkspace()
	measure := func(opt Options) (allocs float64, iters int) {
		res, err := ws.BiasedAIHTWarm(m, y, 49, nil, opt) // warm-up sizes all buffers
		if err != nil {
			t.Fatal(err)
		}
		iters = res.Iterations
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(5, func() {
			if _, err := ws.BiasedAIHTWarm(m, y, 49, nil, opt); err != nil {
				t.Fatal(err)
			}
		}), iters
	}
	short, shortIters := measure(Options{MaxIterations: 3, DisableEarlyStop: true})
	long, longIters := measure(Options{})
	if longIters < 10*shortIters {
		t.Fatalf("long run took %d iterations against %d: not a test of the per-iteration term", longIters, shortIters)
	}
	if short != 0 || long != 0 {
		t.Fatalf("steady-state workspace AIHT allocates %.1f objects/op over %d iterations, %.1f over %d; want 0",
			short, shortIters, long, longIters)
	}
}
