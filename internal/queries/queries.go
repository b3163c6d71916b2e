// Package queries answers the "related aggregation queries" the paper
// says the paradigm extends to (§1: "mean, top-k, percentile, ... in
// large-scale distributed systems") from a recovered compressed
// aggregate, without ever materializing the N-length vector: a
// recovered aggregate is (mode, outlier support), so every order
// statistic is computable from the s outliers plus the (N−s)-fold
// repeated mode.
package queries

import (
	"fmt"
	"math"
	"sort"
)

// Recovered is the compact recovered representation of a global
// aggregate: N entries, of which Support carry Values and the rest
// equal Mode. It is what BOMP returns, reshaped for query answering.
type Recovered struct {
	N       int
	Mode    float64
	Support []int     // outlier positions (any order)
	Values  []float64 // full values at Support (parallel slice)
}

// Validate checks internal consistency.
func (r *Recovered) Validate() error {
	if r.N <= 0 {
		return fmt.Errorf("queries: N=%d", r.N)
	}
	if len(r.Support) != len(r.Values) {
		return fmt.Errorf("queries: support/values length mismatch %d vs %d", len(r.Support), len(r.Values))
	}
	if len(r.Support) > r.N {
		return fmt.Errorf("queries: support larger than N")
	}
	seen := make(map[int]bool, len(r.Support))
	for _, j := range r.Support {
		if j < 0 || j >= r.N {
			return fmt.Errorf("queries: support index %d out of [0,%d)", j, r.N)
		}
		if seen[j] {
			return fmt.Errorf("queries: duplicate support index %d", j)
		}
		seen[j] = true
	}
	return nil
}

// Sum returns Σx — exact on the recovered representation.
func Sum(r *Recovered) float64 {
	s := r.Mode * float64(r.N-len(r.Support))
	for _, v := range r.Values {
		s += v
	}
	return s
}

// Mean returns Σx / N.
func Mean(r *Recovered) float64 { return Sum(r) / float64(r.N) }

// Percentile returns the q-quantile of the recovered multiset,
// q ∈ [0, 1], using the nearest-rank definition. Because N−s entries
// equal the mode, most quantiles ARE the mode; only the extreme tails
// reach into the outliers — which is exactly why a sparse sketch
// suffices for percentile queries on concentrated data.
func Percentile(r *Recovered, q float64) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("queries: quantile %v outside [0,1]", q)
	}
	rank := int(math.Ceil(q * float64(r.N)))
	if rank < 1 {
		rank = 1
	}
	if rank > r.N {
		rank = r.N
	}
	below := make([]float64, 0, len(r.Values))
	above := make([]float64, 0, len(r.Values))
	for _, v := range r.Values {
		if v < r.Mode {
			below = append(below, v)
		} else {
			above = append(above, v)
		}
	}
	sort.Float64s(below)
	sort.Float64s(above)
	// Sorted order: below..., mode × (N − |below| − |above|), above...
	if rank <= len(below) {
		return below[rank-1], nil
	}
	modeCount := r.N - len(below) - len(above)
	if rank <= len(below)+modeCount {
		return r.Mode, nil
	}
	return above[rank-1-len(below)-modeCount], nil
}
