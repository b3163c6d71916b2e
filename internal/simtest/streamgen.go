package simtest

import (
	"fmt"
	"math"

	"csoutlier/internal/xrand"
)

// drawStreamBase is the prelude every streaming generator shares: seed,
// sizing, query size, bias, noise, node and window counts, drawn in the
// order the five flavor generators always drew them — a seeded scenario
// is the same scenario it was when each flavor had its own copy.
func drawStreamBase(rng *xrand.RNG, sizing func(*xrand.RNG, *StreamScenario), lMin, lSpan, wMin, wSpan int) StreamScenario {
	scn := StreamScenario{Seed: rng.Uint64()}
	sizing(rng, &scn)
	scn.K = 1 + rng.Intn(scn.S+1)
	scn.Mode = 100 + 4900*rng.Float64() // nonzero: every node flushes every window
	if rng.Float64() < 0.5 {
		scn.Mode = -scn.Mode
	}
	if rng.Float64() < 0.6 {
		scn.Noise = (math.Abs(scn.Mode) + 500) * (0.1 + rng.Float64())
	}
	scn.L = lMin + rng.Intn(lSpan)
	scn.W = wMin + rng.Intn(wSpan)
	return scn
}

// gaussianSizing draws S, N and a measurement budget kept a strict
// compression, shedding sparsity if the key space drawn is too small for
// the margin.
func gaussianSizing(rng *xrand.RNG, scn *StreamScenario) {
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
}

// countSketchN draws N at least factor× the Depth·Width budget. Depth
// and width are kept large relative to S so that a clean key's median
// estimate is corrupted only if a majority of its hash rows collide with
// planted outliers — at S ≤ 3 over ≥ 96 buckets that is a ≲1e-4-per-key
// event, far below a soak's probe budget.
func countSketchN(rng *xrand.RNG, scn *StreamScenario, factor int) {
	m := scn.Depth * scn.Width
	scn.N = factor*m + rng.Intn(m+1)
}

func pointQSizing(rng *xrand.RNG, scn *StreamScenario) {
	scn.S = 1 + rng.Intn(3)
	scn.Depth = 7 + 2*rng.Intn(2)   // 7 or 9 rows
	scn.Width = 96 + 32*rng.Intn(3) // 96, 128 or 160 buckets
	countSketchN(rng, scn, 2)       // ≥ 2× compression
}

// tierSizing keeps N ≥ 4M so each shard of N/2 keys keeps the ≥ 2×
// compression floor.
func tierSizing(rng *xrand.RNG, scn *StreamScenario) {
	scn.S = 1 + rng.Intn(3)
	scn.Depth = 7
	scn.Width = 96 + 32*rng.Intn(2) // 96 or 128 buckets
	countSketchN(rng, scn, 4)
}

// streamFlavors are the five soak generators, named by the replay
// prefix each had when it was a harness of its own. Chaos is always on
// except in the point-query flavor, which pins query-path correctness on
// a quiet fold sequence.
var streamFlavors = map[string]struct {
	salt uint64
	draw func(*xrand.RNG) StreamScenario
}{
	// A node crash/restart and duplicate injection.
	"stream1": {0x57ea3517, func(rng *xrand.RNG) StreamScenario {
		scn := drawStreamBase(rng, gaussianSizing, 4, 3, 2, 3)
		crash := Mark{Kind: MarkNodeCrash, Node: rng.Intn(scn.L)}
		crash.Window = 1 + rng.Intn(scn.W)
		dup := Mark{Kind: MarkDup, Node: (crash.Node + 1 + rng.Intn(scn.L-1)) % scn.L}
		scn.Marks = []Mark{crash, dup}
		scn.ProxyMin, scn.ProxyMax = proxyBudgets(scn.M, streamChunks*scn.W)
		return scn
	}},
	// The aggregator snapshots at one seeded flush and dies at a later
	// one of the same window: every frame in (snap, crash] is folded,
	// acked, and then lost — exactly the frames node-side retention must
	// replay.
	"streamcrash1": {0xc4a54a11, func(rng *xrand.RNG) StreamScenario {
		scn := drawStreamBase(rng, gaussianSizing, 4, 3, 2, 3)
		cw := 1 + rng.Intn(scn.W)
		flushes := scn.L * streamChunks
		snap := rng.Intn(flushes - 1)
		crash := snap + 1 + rng.Intn(flushes-1-snap)
		scn.Marks = []Mark{{Kind: MarkSnap, Window: cw, Flush: snap}, {Kind: MarkAggCrash, Window: cw, Flush: crash}}
		scn.ProxyMin, scn.ProxyMax = proxyBudgets(scn.M, streamChunks*scn.W)
		return scn
	}},
	// A mid-run join, a graceful leave, an eviction with resurrection.
	"streamchurn1": {0xc41712a7, func(rng *xrand.RNG) StreamScenario {
		scn := drawStreamBase(rng, gaussianSizing, 4, 3, 3, 2)
		join := Mark{Kind: MarkJoin, Window: 2 + rng.Intn(scn.W-1)}
		leave := Mark{Kind: MarkLeave, Node: rng.Intn(scn.L)}
		leave.Window = 1 + rng.Intn(scn.W)
		evict := Mark{Kind: MarkEvict, Node: (leave.Node + 1 + rng.Intn(scn.L-1)) % scn.L}
		evict.Window = 1 + rng.Intn(scn.W-1)
		scn.Marks = []Mark{join, leave, evict}
		// The budget counts the flushes of the member that makes fewest.
		minPart := leave.Window
		if joinPart := scn.W - join.Window + 1; joinPart < minPart {
			minPart = joinPart
		}
		scn.ProxyMin, scn.ProxyMax = proxyBudgets(scn.M, streamChunks*minPart)
		return scn
	}},
	// Count-sketch, no chaos, point probes after every window.
	"streampointq1": {0x901f42e5, func(rng *xrand.RNG) StreamScenario {
		scn := drawStreamBase(rng, pointQSizing, 3, 3, 2, 3)
		for w := 1; w <= scn.W; w++ {
			scn.Marks = append(scn.Marks, Mark{Kind: MarkProbe, Window: w})
		}
		return scn
	}},
	// The 2-shard × 2-relay tree with one relay killed and restored.
	"streamtier1": {0x71e2aa01, func(rng *xrand.RNG) StreamScenario {
		scn := drawStreamBase(rng, tierSizing, 4, 2, 2, 2)
		scn.Tier = true
		kill := Mark{Kind: MarkRelayKill, Node: rng.Intn(tierShards)}
		kill.Window = 2 + rng.Intn(scn.W-1)
		kill.Flush = 1 + rng.Intn(scn.L*streamChunks-1)
		scn.Marks = []Mark{kill}
		scn.ProxyMin, scn.ProxyMax = proxyBudgets(scn.Depth*scn.Width, streamChunks*scn.W)
		return scn
	}},
}

// GenerateStream derives scenario index of a flavor from the base seed.
func GenerateStream(flavor string, base uint64, index int) StreamScenario {
	f, ok := streamFlavors[flavor]
	if !ok {
		panic(fmt.Sprintf("simtest: no streaming flavor %q", flavor))
	}
	scn := f.draw(xrand.New(base).Split(uint64(index) + f.salt))
	scn.normalize()
	return scn
}
