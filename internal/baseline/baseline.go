// Package baseline implements the comparison algorithms of the paper's
// evaluation and related-work sections: the transmit-ALL baseline
// (§6.1.2), the three-round K+δ sampling baseline built on Cao & Wang's
// TPUT framework (§6.1.2), and — from §7.1 — the Threshold Algorithm
// (Fagin et al.) and TPUT themselves, which solve distributed top-k for
// non-negative data and illustrate why the k-outlier problem over the
// real field needs a different approach.
package baseline

import (
	"context"
	"fmt"
	"sort"

	"csoutlier/internal/cluster"
	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/xrand"
)

// AllResult is the answer of the transmit-everything baseline.
type AllResult struct {
	Global   linalg.Vector // exact aggregated vector
	Mode     float64       // exact majority value (0 when none exists)
	HasMode  bool
	Outliers []outlier.KV
	Stats    cluster.CommStats
}

// All ships every node's full vectorized slice to the aggregator
// (L·N·8 bytes, one round), aggregates exactly, and answers the
// k-outlier query exactly. It is both the accuracy ground truth and the
// communication-cost yardstick every other method is normalized against
// (Figures 7–8 x-axes).
func All(ctx context.Context, nodes []*cluster.LocalNode, k int) (*AllResult, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("baseline: no nodes")
	}
	var global linalg.Vector
	stats := cluster.CommStats{Rounds: 1}
	for _, n := range nodes {
		x, err := n.FullVector(ctx)
		if err != nil {
			return nil, fmt.Errorf("baseline: node %s: %w", n.ID(), err)
		}
		if global == nil {
			global = make(linalg.Vector, len(x))
		}
		if len(x) != len(global) {
			return nil, fmt.Errorf("baseline: node %s vector length %d, want %d", n.ID(), len(x), len(global))
		}
		global.Add(x)
		stats.Bytes += int64(len(x)) * cluster.BytesPerValue
		stats.Messages++
	}
	mode, ok := outlier.Mode(global)
	return &AllResult{
		Global:   global,
		Mode:     mode,
		HasMode:  ok,
		Outliers: outlier.TopK(global, mode, k),
		Stats:    stats,
	}, nil
}

// AllCostBytes returns the transmit-ALL communication cost the paper
// normalizes against: L·N vectorized values at 8 bytes.
func AllCostBytes(l, n int) int64 {
	return int64(l) * int64(n) * cluster.BytesPerValue
}

// KDeltaConfig parameterizes the K+δ baseline.
type KDeltaConfig struct {
	K     int    // outliers wanted
	Delta int    // slack: each node returns K+Delta-G candidates
	G     int    // keys sampled in round 1 for mode estimation
	N     int    // key-space size
	Seed  uint64 // determines the shared round-1 sample
}

// KDeltaForBudget sizes a K+δ run to a communication budget in bytes,
// following the paper's method: G is chosen so round 1 spends 50% of the
// budget, and the remainder buys round-3 candidates. L is the node count.
func KDeltaForBudget(budget int64, l, k, n int, seed uint64) KDeltaConfig {
	perNodeTuples := budget / (2 * int64(l) * cluster.BytesPerTuple)
	g := int(perNodeTuples)
	if g < 1 {
		g = 1
	}
	if g > n {
		g = n
	}
	// Round 3 gets the other half: K+δ−G tuples per node.
	r3 := int(budget/(2*int64(l)*cluster.BytesPerTuple)) - 1
	if r3 < 1 {
		r3 = 1
	}
	delta := r3 + g - k
	if delta < 0 {
		delta = 0
	}
	return KDeltaConfig{K: k, Delta: delta, G: g, N: n, Seed: seed}
}

// KDeltaResult is the K+δ baseline's answer.
type KDeltaResult struct {
	Mode     float64 // the sampled mode estimate b
	Outliers []outlier.KV
	Stats    cluster.CommStats
}

// KDelta runs the paper's three-round approximate baseline (§6.1.2):
//
//	round 1: every node ships its values at G shared sample positions;
//	         the aggregator averages the G aggregated values into b.
//	round 2: the aggregator broadcasts b.
//	round 3: every node ships its K+δ−G strongest local outliers w.r.t.
//	         b; the aggregator sums what it received per key and picks
//	         the global top-K around b.
//
// Accuracy depends on how evenly the per-key values spread across nodes
// (paper: big standard deviations → local outliers differ from global
// ones → large errors), which is exactly what Figures 7–8 measure.
func KDelta(ctx context.Context, nodes []*cluster.LocalNode, cfg KDeltaConfig) (*KDeltaResult, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("baseline: no nodes")
	}
	if cfg.G < 1 || cfg.G > cfg.N {
		return nil, fmt.Errorf("baseline: G=%d outside [1, N=%d]", cfg.G, cfg.N)
	}
	l := len(nodes)
	stats := cluster.CommStats{Rounds: 3}

	// Round 1: shared sample positions, same on every node.
	r := xrand.New(cfg.Seed)
	perm := r.Perm(cfg.N)
	sample := perm[:cfg.G]
	sums := make([]float64, cfg.G)
	for _, n := range nodes {
		vs, err := n.SampleValues(ctx, sample)
		if err != nil {
			return nil, fmt.Errorf("baseline: node %s: %w", n.ID(), err)
		}
		for i, v := range vs {
			sums[i] += v
		}
		stats.Bytes += int64(cfg.G) * cluster.BytesPerTuple
		stats.Messages++
	}
	b := 0.0
	for _, s := range sums {
		b += s
	}
	b /= float64(cfg.G)

	// Round 2: broadcast b.
	stats.Bytes += int64(l) * cluster.BytesPerValue
	stats.Messages += l

	// Round 3: local outliers w.r.t. b.
	fetch := cfg.K + cfg.Delta - cfg.G
	if fetch < cfg.K {
		fetch = cfg.K
	}
	partial := make(map[int]float64)
	seenCount := make(map[int]int)
	for _, n := range nodes {
		kvs, err := n.LocalOutliers(ctx, b/float64(l), fetch)
		if err != nil {
			return nil, fmt.Errorf("baseline: node %s: %w", n.ID(), err)
		}
		for _, kv := range kvs {
			partial[kv.Index] += kv.Value
			seenCount[kv.Index]++
		}
		stats.Bytes += int64(len(kvs)) * cluster.BytesPerTuple
		stats.Messages++
	}
	// Keys reported by only some nodes are completed with the local-mode
	// share b/L for each silent node — the aggregator's best guess under
	// the sampling model.
	cands := make([]outlier.KV, 0, len(partial))
	for idx, sum := range partial {
		missing := l - seenCount[idx]
		est := sum + float64(missing)*b/float64(l)
		cands = append(cands, outlier.KV{Index: idx, Value: est})
	}
	return &KDeltaResult{
		Mode:     b,
		Outliers: outlier.TopKOf(cands, b, cfg.K),
		Stats:    stats,
	}, nil
}

// rankItem pairs a key with a value for sorting.
type rankItem struct {
	idx int
	val float64
}

func sortDesc(items []rankItem) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].val != items[j].val {
			return items[i].val > items[j].val
		}
		return items[i].idx < items[j].idx
	})
}
