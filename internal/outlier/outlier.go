// Package outlier defines the k-outlier problem objects from the paper's
// §2.1 and the estimation-quality metrics from §6.1: given a data vector
// whose values concentrate around a mode b, the k-outliers are the
// min(k, |O|) entries furthest from b; estimates are scored by Error on
// Key (EK, set precision on the outlier keys) and Error on Value (EV,
// relative L2 error on the ordered value lists).
package outlier

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"csoutlier/internal/linalg"
)

// KV is an (index, value) pair: a key position in the global dictionary
// together with its aggregated value.
type KV struct {
	Index int
	Value float64
}

// TopK returns the k entries of x furthest from mode, ordered by
// decreasing |value − mode| with index as the deterministic tie-break.
// Fewer than k entries are returned when fewer than k entries differ
// from the mode (the paper's |O| < k case).
func TopK(x linalg.Vector, mode float64, k int) []KV {
	if k <= 0 {
		return nil
	}
	// Cap the capacity hint at the data size: k crosses the wire in the
	// cluster protocol, and an absurd request must not size an allocation.
	c := k
	if c > len(x) {
		c = len(x)
	}
	out := make([]KV, 0, c+1)
	for i, v := range x {
		if v == mode {
			continue
		}
		out = append(out, KV{Index: i, Value: v})
	}
	return Rank(out, mode, k)
}

// TopKOf ranks only the given candidate set — used when recovery already
// produced a support and we only need the k strongest of it. cands is
// left as it was.
func TopKOf(cands []KV, mode float64, k int) []KV {
	if k <= 0 {
		return nil
	}
	return Rank(append([]KV(nil), cands...), mode, k)
}

// Rank orders kvs in place the way TopK orders its answer and returns
// its first min(k, len(kvs)) entries: no copy, for a caller that owns
// the candidates.
func Rank(kvs []KV, mode float64, k int) []KV {
	if k <= 0 {
		return nil
	}
	// The order is total (divergence, then index), so the answer does
	// not depend on the sort's stability.
	slices.SortFunc(kvs, func(a, b KV) int {
		if c := cmp.Compare(math.Abs(b.Value-mode), math.Abs(a.Value-mode)); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	if len(kvs) > k {
		kvs = kvs[:k]
	}
	return kvs
}

// Mode returns the exact majority value of x and true when one exists
// (a value held by more than half the entries — Definition 2 in the
// paper); otherwise it returns (0, false).
func Mode(x linalg.Vector) (float64, bool) {
	if len(x) == 0 {
		return 0, false
	}
	// Boyer–Moore majority vote, then verify.
	cand, count := 0.0, 0
	for _, v := range x {
		if count == 0 {
			cand, count = v, 1
		} else if v == cand {
			count++
		} else {
			count--
		}
	}
	occ := 0
	for _, v := range x {
		if v == cand {
			occ++
		}
	}
	if occ*2 > len(x) {
		return cand, true
	}
	return 0, false
}

// ErrorOnKey computes EK = 1 − |T.Key ∩ E.Key| / k where k = |T|
// (paper §6.1 metric 1). EK ∈ [0, 1]; 0 means the estimated key set is
// exactly the true key set. An empty truth yields 0 by convention.
func ErrorOnKey(truth, est []KV) float64 {
	if len(truth) == 0 {
		return 0
	}
	tset := make(map[int]bool, len(truth))
	for _, kv := range truth {
		tset[kv.Index] = true
	}
	hit := 0
	for _, kv := range est {
		if tset[kv.Index] {
			hit++
			delete(tset, kv.Index) // count duplicates once
		}
	}
	return 1 - float64(hit)/float64(len(truth))
}

// ErrorOnValue computes EV = ‖T.Value − E.Value‖₂ / ‖T.Value‖₂ where both
// lists are ordered by value (paper §6.1 metric 2). When the estimate is
// shorter than the truth, missing positions contribute the full truth
// value (estimated as zero); extra estimated values are ignored beyond
// the truth length. A zero-norm truth yields 0 when the estimate matches,
// 1 otherwise.
func ErrorOnValue(truth, est []KV) float64 {
	tv := values(truth)
	ev := values(est)
	sort.Sort(sort.Reverse(sort.Float64Slice(tv)))
	sort.Sort(sort.Reverse(sort.Float64Slice(ev)))
	var num, den float64
	for i, t := range tv {
		e := 0.0
		if i < len(ev) {
			e = ev[i]
		}
		num += (t - e) * (t - e)
		den += t * t
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return 1
	}
	return math.Sqrt(num / den)
}

func values(kvs []KV) []float64 {
	vs := make([]float64, len(kvs))
	for i, kv := range kvs {
		vs[i] = kv.Value
	}
	return vs
}
