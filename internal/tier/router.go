package tier

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
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
//
// A call's fan-out state comes from a pool on the Router, and the last
// shard a call needs is asked on the calling goroutine: a warm read
// allocates its answers and one goroutine per other shard it asks.
type Router struct {
	m       *ShardMap
	targets []Target
	scratch sync.Pool // *fanout
}

// fanout is one call's routing and fan-out state. Its slices grow to
// the largest call seen; the keys, reports and errors of a call are
// cleared before the fanout goes back to the pool.
type fanout struct {
	count   []int      // keys per shard
	keys    []string   // request keys grouped by shard, in request order
	slots   []int      // request position of each grouped key
	byShard [][]string // shard i's window of keys
	slotsOf [][]int    // shard i's window of slots
	reports []*csoutlier.Report
	errs    []error
	wg      sync.WaitGroup
}

// NewRouter builds a router over the shard roots, in shard order.
func NewRouter(m *ShardMap, targets []Target) (*Router, error) {
	if len(targets) != m.Shards() {
		return nil, fmt.Errorf("tier: router needs %d targets, got %d", m.Shards(), len(targets))
	}
	n := len(targets)
	r := &Router{m: m, targets: targets}
	r.scratch.New = func() any {
		return &fanout{
			count:   make([]int, n),
			byShard: make([][]string, n),
			slotsOf: make([][]int, n),
			reports: make([]*csoutlier.Report, n),
			errs:    make([]error, n),
		}
	}
	return r, nil
}

// release clears what f holds of the call and pools it.
func (r *Router) release(f *fanout) {
	clear(f.count)
	clear(f.keys)
	clear(f.reports)
	clear(f.errs)
	r.scratch.Put(f)
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
	f := r.scratch.Get().(*fanout)
	defer r.release(f)
	last := len(r.targets) - 1
	for i := range last {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			r.askSpan(f, i, fromAge, toAge, k)
		}()
	}
	r.askSpan(f, last, fromAge, toAge, k)
	f.wg.Wait()
	if err := errors.Join(f.errs...); err != nil {
		return nil, err
	}
	merged := &csoutlier.Report{}
	var modeSum, weight float64
	var residualSq float64
	total := 0
	for i, rep := range f.reports {
		w := float64(len(r.m.Shard(i).Keys))
		modeSum += rep.Mode * w
		weight += w
		merged.Iterations += rep.Iterations
		residualSq += rep.Residual * rep.Residual
		total += len(rep.Outliers)
	}
	if total > 0 {
		merged.Outliers = make([]csoutlier.Outlier, 0, total)
	}
	for _, rep := range f.reports {
		merged.Outliers = append(merged.Outliers, rep.Outliers...)
	}
	merged.Mode = modeSum / weight
	merged.Residual = math.Sqrt(residualSq)
	// Rank the union the way a flat report is ranked: divergence from
	// the (merged) mode descending, key ascending on ties — the shard
	// ranges are contiguous in sorted key order, so key order is global
	// dictionary-index order.
	mode := merged.Mode
	slices.SortStableFunc(merged.Outliers, func(a, b csoutlier.Outlier) int {
		if c := cmp.Compare(math.Abs(b.Value-mode), math.Abs(a.Value-mode)); c != 0 {
			return c
		}
		return strings.Compare(a.Key, b.Key)
	})
	if len(merged.Outliers) > k {
		merged.Outliers = merged.Outliers[:k]
	}
	return merged, nil
}

// askSpan asks shard i for its top-k, k capped at the shard's key count.
func (r *Router) askSpan(f *fanout, i, fromAge, toAge, k int) {
	k = min(k, len(r.m.Shard(i).Keys))
	f.reports[i], f.errs[i] = r.targets[i].Span.Outliers(fromAge, toAge, k)
}

// PointQueryMulti answers a mixed-shard watch list: keys partition by
// Route, each shard answers its own under one generation check, and
// the answers reassemble in request order.
func (r *Router) PointQueryMulti(fromAge, toAge int, keys []string, threshold float64) ([]csoutlier.PointAnswer, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	f := r.scratch.Get().(*fanout)
	defer r.release(f)
	last := f.route(r.m, keys)
	out := make([]csoutlier.PointAnswer, len(keys))
	for i := range last {
		if len(f.byShard[i]) == 0 {
			continue
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			r.askPoint(f, i, fromAge, toAge, threshold, out)
		}()
	}
	r.askPoint(f, last, fromAge, toAge, threshold, out)
	f.wg.Wait()
	if err := errors.Join(f.errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// route partitions keys into f's per-shard key and position lists and
// returns the highest shard the list touches. Two passes — count per
// shard, then fill, routing each key again (a binary search over the
// shard lows) — so each shard's lists are exact-size windows of one
// reused buffer.
func (f *fanout) route(m *ShardMap, keys []string) (last int) {
	for _, key := range keys {
		s := m.Route(key)
		f.count[s]++
		last = max(last, s)
	}
	f.keys = slices.Grow(f.keys[:0], len(keys))[:len(keys)]
	f.slots = slices.Grow(f.slots[:0], len(keys))[:len(keys)]
	off := 0
	for s, n := range f.count {
		f.byShard[s], f.slotsOf[s] = f.keys[off:off:off+n], f.slots[off:off:off+n]
		off += n
	}
	for pos, key := range keys {
		s := m.Route(key)
		f.byShard[s] = append(f.byShard[s], key)
		f.slotsOf[s] = append(f.slotsOf[s], pos)
	}
	return last
}

// askPoint asks shard i for its keys and scatters the answers into
// their request positions in out.
func (r *Router) askPoint(f *fanout, i, fromAge, toAge int, threshold float64, out []csoutlier.PointAnswer) {
	answers, err := r.targets[i].Point.PointQueryMulti(fromAge, toAge, f.byShard[i], threshold)
	if err != nil {
		f.errs[i] = fmt.Errorf("tier: shard %d: %w", i, err)
		return
	}
	for j, pos := range f.slotsOf[i] {
		out[pos] = answers[j]
	}
}

// PointQuery answers a single key — the watch list of one.
func (r *Router) PointQuery(fromAge, toAge int, key string, threshold float64) (csoutlier.PointAnswer, error) {
	answers, err := r.PointQueryMulti(fromAge, toAge, []string{key}, threshold)
	if err != nil {
		return csoutlier.PointAnswer{}, err
	}
	return answers[0], nil
}
