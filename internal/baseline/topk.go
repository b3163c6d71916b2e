package baseline

import (
	"fmt"
	"sort"

	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
)

// The classic distributed top-k algorithms of the paper's §7.1. Both
// assume non-negative partial values, so that a local partial sum lower-
// bounds the aggregate — the assumption the paper points out is violated
// by the k-outlier problem over the real field (signed click scores).
// They are implemented here as the related-work baselines and to
// demonstrate that violation in tests.

// ErrNegativeValues is returned when TA/TPUT meet data that breaks their
// non-negativity precondition.
var ErrNegativeValues = fmt.Errorf("baseline: TA/TPUT require non-negative partial values")

// topKView caches each node's slice sorted by descending value, giving
// the engine TA-style "sorted access" and "random access" with the
// paper's per-tuple communication accounting.
type topKView struct {
	x      linalg.Vector
	sorted []rankItem
}

func buildViews(slices []linalg.Vector) ([]*topKView, int, error) {
	// Materializing the view costs nothing on the wire: it models the
	// node's local sorted index. Only accesses are charged.
	n, err := checkSlices(slices)
	if err != nil {
		return nil, 0, err
	}
	views := make([]*topKView, len(slices))
	for i, x := range slices {
		for _, v := range x {
			if v < 0 {
				return nil, 0, ErrNegativeValues
			}
		}
		items := make([]rankItem, len(x))
		for j, v := range x {
			items[j] = rankItem{idx: j, val: v}
		}
		sortDesc(items)
		views[i] = &topKView{x: x, sorted: items}
	}
	return views, n, nil
}

// TAResult reports the Threshold Algorithm's answer and costs.
type TAResult struct {
	TopK          []outlier.KV
	Stats         Cost
	SortedAccess  int // tuples read via sorted access
	RandomAccess  int // tuples read via random access
	RoundsOfDepth int // sorted-access depth reached
}

// TA runs Fagin's Threshold Algorithm (paper §7.1, [19]) across the
// nodes: walk every node's sorted list in lock step; for each newly seen
// key, random-access its value on every other node to get the exact sum;
// stop when k exact sums dominate the threshold (the sum of the current
// sorted-access frontier). Exact for non-negative data; round count
// scales with the depth reached, which is TA's scalability weakness the
// paper cites.
func TA(slices []linalg.Vector, k int) (*TAResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("baseline: k must be positive")
	}
	res := &TAResult{}
	views, n, err := buildViews(slices)
	if err != nil {
		return nil, err
	}
	exact := make(map[int]float64)
	for depth := 0; depth < n; depth++ {
		res.RoundsOfDepth = depth + 1
		threshold := 0.0
		for _, v := range views {
			item := v.sorted[depth]
			threshold += item.val
			res.SortedAccess++
			res.Stats.Bytes += BytesPerTuple
			if _, ok := exact[item.idx]; !ok {
				// Random access to every node for the exact sum.
				sum := 0.0
				for _, w := range views {
					sum += w.x[item.idx]
					res.RandomAccess++
					res.Stats.Bytes += BytesPerTuple
				}
				exact[item.idx] = sum
			}
		}
		// Do k exact sums beat the threshold?
		if len(exact) >= k {
			items := make([]rankItem, 0, len(exact))
			for idx, v := range exact {
				items = append(items, rankItem{idx, v})
			}
			sortDesc(items)
			if items[k-1].val >= threshold {
				res.TopK = toKVs(items[:k])
				res.Stats.Rounds = res.RoundsOfDepth
				res.Stats.Messages = res.SortedAccess + res.RandomAccess
				return res, nil
			}
		}
	}
	// Exhausted the lists: exact answer anyway.
	items := make([]rankItem, 0, len(exact))
	for idx, v := range exact {
		items = append(items, rankItem{idx, v})
	}
	sortDesc(items)
	if len(items) > k {
		items = items[:k]
	}
	res.TopK = toKVs(items)
	res.Stats.Rounds = res.RoundsOfDepth
	res.Stats.Messages = res.SortedAccess + res.RandomAccess
	return res, nil
}

// TPUTResult reports TPUT's answer and costs.
type TPUTResult struct {
	TopK       []outlier.KV
	Stats      Cost
	Candidates int // survivors of phase-2 pruning
}

// TPUT runs Cao & Wang's Three-Phase Uniform Threshold algorithm
// (paper §7.1, [10]): phase 1 fetches every node's local top-k and
// lower-bounds the k-th aggregate as τ; phase 2 fetches every local
// value ≥ τ/L and prunes candidates whose upper bound < τ; phase 3
// random-accesses the survivors for exact sums. Exactly three rounds,
// unlike TA's data-dependent depth.
func TPUT(slices []linalg.Vector, k int) (*TPUTResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("baseline: k must be positive")
	}
	res := &TPUTResult{Stats: Cost{Rounds: 3}}
	views, _, err := buildViews(slices)
	if err != nil {
		return nil, err
	}
	l := len(views)

	// Phase 1: local top-k from each node.
	partial := make(map[int]float64)
	for _, v := range views {
		top := v.sorted
		if len(top) > k {
			top = top[:k]
		}
		for _, it := range top {
			partial[it.idx] += it.val
			res.Stats.Bytes += BytesPerTuple
			res.Stats.Messages++
		}
	}
	tau := kthLargest(partial, k) // phase-1 lower bound on the true k-th sum

	// Phase 2: every node sends all items with local value ≥ τ/L.
	t2 := tau / float64(l)
	partial2 := make(map[int]float64)
	seen2 := make(map[int]int)
	for _, v := range views {
		for _, it := range v.sorted {
			if it.val < t2 {
				break
			}
			partial2[it.idx] += it.val
			seen2[it.idx]++
			res.Stats.Bytes += BytesPerTuple
			res.Stats.Messages++
		}
	}
	tau2 := kthLargest(partial2, k)
	if tau2 < tau {
		tau2 = tau
	}
	// Prune: upper bound = partial sum + t2 for each unseen node.
	var candidates []int
	for idx, sum := range partial2 {
		upper := sum + float64(l-seen2[idx])*t2
		if upper >= tau2 {
			candidates = append(candidates, idx)
		}
	}
	sort.Ints(candidates)
	res.Candidates = len(candidates)

	// Phase 3: exact sums for the candidates.
	items := make([]rankItem, 0, len(candidates))
	for _, idx := range candidates {
		sum := 0.0
		for _, v := range views {
			sum += v.x[idx]
			res.Stats.Bytes += BytesPerTuple
			res.Stats.Messages++
		}
		items = append(items, rankItem{idx, sum})
	}
	sortDesc(items)
	if len(items) > k {
		items = items[:k]
	}
	res.TopK = toKVs(items)
	return res, nil
}

func kthLargest(m map[int]float64, k int) float64 {
	vals := make([]float64, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	if len(vals) == 0 {
		return 0
	}
	if len(vals) < k {
		return vals[len(vals)-1]
	}
	return vals[k-1]
}

func toKVs(items []rankItem) []outlier.KV {
	out := make([]outlier.KV, len(items))
	for i, it := range items {
		out[i] = outlier.KV{Index: it.idx, Value: it.val}
	}
	return out
}
