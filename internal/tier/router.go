package tier

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"csoutlier"
)

// SpanQuerier answers span outlier queries — satisfied by
// *stream.Aggregator (the in-process root of a shard's tree).
type SpanQuerier interface {
	Outliers(fromAge, toAge, k int) (*csoutlier.Report, error)
}

// PointQuerier answers point-query watch lists — satisfied by
// *stream.Aggregator, queried in the process that holds the shard's
// windows (the push wire carries no queries).
type PointQuerier interface {
	PointQueryMulti(fromAge, toAge int, keys []string, threshold float64) ([]csoutlier.PointAnswer, error)
}

// Target is one shard's query endpoints.
type Target struct {
	Span  SpanQuerier
	Point PointQuerier
}

// Router fans queries out across the shard roots of a sharded
// deployment and merges the answers into the flat-deployment shape: a
// span query returns one global top-k Report, a point query answers a
// mixed-shard watch list in request order. Merging is exact because
// sharding is a partition — each key's value lives in exactly one
// shard's sketch, so a shard's answer for its own keys IS the global
// answer for them; the router only has to rank and reassemble.
type Router struct {
	m       *ShardMap
	targets []Target
}

// NewRouter builds a router over the shard roots, in shard order.
func NewRouter(m *ShardMap, targets []Target) (*Router, error) {
	if len(targets) != m.Shards() {
		return nil, fmt.Errorf("tier: router needs %d targets, got %d", m.Shards(), len(targets))
	}
	return &Router{m: m, targets: targets}, nil
}

// Outliers answers the global top-k span query: fan out to every shard
// (per-shard k capped at the shard's key count — a global top-k holds
// at most k keys per shard, so per-shard top-k majorizes it), then
// rank the union by divergence from the merged mode. The merged mode
// is the key-count-weighted mean of the shard modes: when every
// shard's restriction of the data keeps the global majority value (the
// paper's regime — outliers are sparse), every shard recovers the same
// mode and the weighted mean is exactly it.
func (r *Router) Outliers(fromAge, toAge, k int) (*csoutlier.Report, error) {
	if k < 1 {
		return nil, fmt.Errorf("tier: k must be positive, got %d", k)
	}
	reports := make([]*csoutlier.Report, len(r.targets))
	errs := make([]error, len(r.targets))
	var wg sync.WaitGroup
	for i := range r.targets {
		sk := k
		if n := len(r.m.Shard(i).Keys); sk > n {
			sk = n
		}
		wg.Add(1)
		go func(i, sk int) {
			defer wg.Done()
			reports[i], errs[i] = r.targets[i].Span.Outliers(fromAge, toAge, sk)
		}(i, sk)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	merged := &csoutlier.Report{}
	var modeSum, weight float64
	var residualSq float64
	for i, rep := range reports {
		w := float64(len(r.m.Shard(i).Keys))
		modeSum += rep.Mode * w
		weight += w
		merged.Iterations += rep.Iterations
		residualSq += rep.Residual * rep.Residual
		merged.Outliers = append(merged.Outliers, rep.Outliers...)
	}
	merged.Mode = modeSum / weight
	merged.Residual = math.Sqrt(residualSq)
	// Rank the union the way a flat report is ranked: divergence from
	// the (merged) mode descending, key ascending on ties — the shard
	// ranges are contiguous in sorted key order, so key order is global
	// dictionary-index order.
	sort.SliceStable(merged.Outliers, func(a, b int) bool {
		da := math.Abs(merged.Outliers[a].Value - merged.Mode)
		db := math.Abs(merged.Outliers[b].Value - merged.Mode)
		if da != db {
			return da > db
		}
		return merged.Outliers[a].Key < merged.Outliers[b].Key
	})
	if len(merged.Outliers) > k {
		merged.Outliers = merged.Outliers[:k]
	}
	return merged, nil
}

// PointQueryMulti answers a mixed-shard watch list: keys partition by
// Route, each shard answers its own under one generation check, and
// the answers reassemble in request order.
func (r *Router) PointQueryMulti(fromAge, toAge int, keys []string, threshold float64) ([]csoutlier.PointAnswer, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	// Two passes — route and count per shard, then fill — so the
	// per-shard key and position lists are exact-size slices of two
	// allocations instead of lists grown by doubling.
	count := make([]int, len(r.targets))
	shard := make([]int, len(keys))
	for pos, key := range keys {
		shard[pos] = r.m.Route(key)
		count[shard[pos]]++
	}
	allKeys, allSlots := make([]string, len(keys)), make([]int, len(keys))
	byShard := make([][]string, len(r.targets))
	slots := make([][]int, len(r.targets))
	off := 0
	for s, n := range count {
		byShard[s], slots[s] = allKeys[off:off:off+n], allSlots[off:off:off+n]
		off += n
	}
	for pos, key := range keys {
		s := shard[pos]
		byShard[s] = append(byShard[s], key)
		slots[s] = append(slots[s], pos)
	}
	out := make([]csoutlier.PointAnswer, len(keys))
	errs := make([]error, len(r.targets))
	var wg sync.WaitGroup
	for i := range r.targets {
		if len(byShard[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers, err := r.targets[i].Point.PointQueryMulti(fromAge, toAge, byShard[i], threshold)
			if err != nil {
				errs[i] = fmt.Errorf("tier: shard %d: %w", i, err)
				return
			}
			for j, pos := range slots[i] {
				out[pos] = answers[j]
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// PointQuery answers a single key — the watch list of one.
func (r *Router) PointQuery(fromAge, toAge int, key string, threshold float64) (csoutlier.PointAnswer, error) {
	answers, err := r.PointQueryMulti(fromAge, toAge, []string{key}, threshold)
	if err != nil {
		return csoutlier.PointAnswer{}, err
	}
	return answers[0], nil
}
