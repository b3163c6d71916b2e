// Package baseline implements the comparison algorithms of the paper's
// evaluation and related-work sections: the transmit-ALL baseline
// (§6.1.2), the three-round K+δ sampling baseline built on Cao & Wang's
// TPUT framework (§6.1.2), and — from §7.1 — the Threshold Algorithm
// (Fagin et al.) and TPUT themselves, which solve distributed top-k for
// non-negative data and illustrate why the k-outlier problem over the
// real field needs a different approach.
//
// Each takes the data centers' vectorized slices, one per node, and
// charges what its rounds would put on the wire at the paper's constants;
// nothing here crosses a real wire.
package baseline

import (
	"fmt"
	"sort"

	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/xrand"
)

// Wire sizes from the paper's cost model (§6.1.2): a vectorized value or
// a measurement is 64 bits, a keyid–value tuple is 96 bits.
const (
	BytesPerValue = 8
	BytesPerTuple = 12
)

// Cost is a baseline run's communication at the paper's constants.
type Cost struct {
	Bytes    int64 // total payload bytes
	Messages int   // node→aggregator or aggregator→node messages
	Rounds   int   // protocol rounds (ALL: 1; K+δ and TPUT: 3)
}

// checkSlices refuses what no node list can be: no node at all, or
// slices of different lengths. It returns the key-space size N.
func checkSlices(slices []linalg.Vector) (int, error) {
	if len(slices) == 0 {
		return 0, fmt.Errorf("baseline: no nodes")
	}
	n := len(slices[0])
	for i, x := range slices {
		if len(x) != n {
			return 0, fmt.Errorf("baseline: node %d vector length %d, want %d", i, len(x), n)
		}
	}
	return n, nil
}

// AllResult is the answer of the transmit-everything baseline.
type AllResult struct {
	Global   linalg.Vector // exact aggregated vector
	Mode     float64       // exact majority value (0 when none exists)
	HasMode  bool
	Outliers []outlier.KV
	Stats    Cost
}

// All ships every node's full vectorized slice to the aggregator
// (L·N·8 bytes, one round), aggregates exactly, and answers the
// k-outlier query exactly. It is both the accuracy ground truth and the
// communication-cost yardstick every other method is normalized against
// (Figures 7–8 x-axes).
func All(slices []linalg.Vector, k int) (*AllResult, error) {
	n, err := checkSlices(slices)
	if err != nil {
		return nil, err
	}
	global := make(linalg.Vector, n)
	for _, x := range slices {
		global.Add(x)
	}
	mode, ok := outlier.Mode(global)
	return &AllResult{
		Global:   global,
		Mode:     mode,
		HasMode:  ok,
		Outliers: outlier.TopK(global, mode, k),
		Stats:    Cost{Bytes: AllCostBytes(len(slices), n), Messages: len(slices), Rounds: 1},
	}, nil
}

// AllCostBytes returns the transmit-ALL communication cost the paper
// normalizes against: L·N vectorized values at 8 bytes.
func AllCostBytes(l, n int) int64 {
	return int64(l) * int64(n) * BytesPerValue
}

// KDeltaResult is the K+δ baseline's answer.
type KDeltaResult struct {
	Mode     float64 // the sampled mode estimate b
	Outliers []outlier.KV
	Stats    Cost
}

// KDelta runs the paper's three-round approximate baseline (§6.1.2) at a
// communication budget in bytes:
//
//	round 1: every node ships its values at G shared sample positions
//	         (seed picks them); the aggregator averages the G aggregated
//	         values into b.
//	round 2: the aggregator broadcasts b.
//	round 3: every node ships its strongest local outliers w.r.t. b/L;
//	         the aggregator sums what it received per key and picks the
//	         global top-k around b.
//
// The budget is split as the paper does: G is chosen so round 1 spends
// half of it, and the other half buys round 3's K+δ−G tuples a node (at
// least k).
//
// Accuracy depends on how evenly the per-key values spread across nodes
// (paper: big standard deviations → local outliers differ from global
// ones → large errors), which is exactly what Figures 7–8 measure.
func KDelta(slices []linalg.Vector, k int, budget int64, seed uint64) (*KDeltaResult, error) {
	n, err := checkSlices(slices)
	if err != nil {
		return nil, err
	}
	l := len(slices)
	half := int(budget / (2 * int64(l) * BytesPerTuple)) // tuples a node, per half
	g := min(max(half, 1), n)
	fetch := max(half-1, 1, k)
	stats := Cost{Rounds: 3}

	// Round 1: shared sample positions, same on every node.
	sample := xrand.New(seed).Perm(n)[:g]
	sums := make([]float64, g)
	for _, x := range slices {
		for i, j := range sample {
			sums[i] += x[j]
		}
		stats.Bytes += int64(g) * BytesPerTuple
		stats.Messages++
	}
	b := 0.0
	for _, s := range sums {
		b += s
	}
	b /= float64(g)

	// Round 2: broadcast b.
	stats.Bytes += int64(l) * BytesPerValue
	stats.Messages += l

	// Round 3: local outliers w.r.t. b.
	partial := make(map[int]float64)
	seenCount := make(map[int]int)
	for _, x := range slices {
		kvs := outlier.TopK(x, b/float64(l), fetch)
		for _, kv := range kvs {
			partial[kv.Index] += kv.Value
			seenCount[kv.Index]++
		}
		stats.Bytes += int64(len(kvs)) * BytesPerTuple
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
		Outliers: outlier.TopKOf(cands, b, k),
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
