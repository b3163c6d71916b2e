package stream

import (
	"sync"
	"sync/atomic"
	"time"

	"csoutlier"
)

// pointKey identifies one cached point-query state: a window-age span.
// Unlike the recovery cache there is no k — point queries answer one
// key at a time from the same committed state.
type pointKey struct {
	fromAge, toAge int
}

// pointCacheCap bounds the point-state cache. Each entry owns one
// M-float sketch buffer; dashboards watch a handful of spans, so the
// cap only guards a caller sweeping many distinct spans.
const pointCacheCap = 32

// pointSampleMask picks which point queries get wall-clock timing:
// query ticks where tick&mask == 1, i.e. the first query and then 1 in
// 256. A warm point query is O(depth) — a few hundred nanoseconds —
// so unsampled clock reads would dominate the thing they measure.
const pointSampleMask = 255

// points is the recovery-free point-query engine: one committed
// csoutlier.PointState per span, tagged with the fold generation its
// sketch belongs to. An entry's gen and its PointState's buffer are
// written only under pmu held exclusively; the fast path reads them
// under pmu shared.
type points struct {
	pmu   sync.RWMutex
	cache genCache[pointKey, *csoutlier.PointState]
	tick  atomic.Uint64 // query counter for sampled latency timing
}

// PointQuery answers a single-key outlier check over window ages
// [fromAge, toAge] (0 = the open window) straight from the folded
// ring: the key's aggregated value is estimated from the count-sketch
// cells it hashes into — no BOMP, no recovery cache, no top-k. The
// key is classified an outlier when its estimate deviates from the
// span's mode by at least threshold (threshold ≤ 0 skips
// classification and just estimates).
//
// States are cached per span and refreshed only when a fold or
// rotation changes the underlying data, so a warm query is O(depth):
// a shared-lock acquire, one atomic generation check, and depth hashed
// cell reads — zero allocations (TestPointQueryWarmZeroAlloc). Requires
// the CountSketch ensemble; other backends get the error
// csoutlier.Sketcher.NewPointState returns. Span top-k detection stays on Outliers — the two
// paths serve the same ring and agree on the mode by construction.
func (a *Aggregator) PointQuery(fromAge, toAge int, key string, threshold float64) (csoutlier.PointAnswer, error) {
	keys, out := [1]string{key}, [1]csoutlier.PointAnswer{}
	err := a.pointQuery(pointKey{fromAge: fromAge, toAge: toAge}, keys[:], threshold, out[:])
	return out[0], err
}

// PointQueryMulti answers a whole watch list of keys over one window
// span under a single shared-lock acquisition and generation check —
// the dashboard shape, where callers poll sets of keys, not singles.
// Answers come back in request order. Cost on the warm path is one
// RLock plus len(keys)·O(depth); a stale span pays exactly one refresh
// for the whole list, and every key is answered from one committed
// state, so the list is a consistent cut of a single fold generation.
func (a *Aggregator) PointQueryMulti(fromAge, toAge int, keys []string, threshold float64) ([]csoutlier.PointAnswer, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	out := make([]csoutlier.PointAnswer, len(keys))
	if err := a.pointQuery(pointKey{fromAge: fromAge, toAge: toAge}, keys, threshold, out); err != nil {
		return nil, err
	}
	return out, nil
}

// pointQuery answers keys into out from the span's committed state:
// under the shared lock when the state is at the current generation,
// else after one refresh under the exclusive one.
func (a *Aggregator) pointQuery(pk pointKey, keys []string, threshold float64, out []csoutlier.PointAnswer) error {
	p, m := &a.pts, a.metrics
	m.pointQueries.Add(int64(len(keys)))
	timed := p.tick.Add(1)&pointSampleMask == 1
	var start time.Time
	if timed {
		start = time.Now()
	}
	// Fast path. e.gen is written only under pmu held exclusively, and
	// apply/Rotate bump ingest.gen after (not before) mutating the ring,
	// so a generation match proves the committed sketch still equals the
	// span's current contents.
	p.pmu.RLock()
	e := p.cache.m[pk]
	warm := e != nil && e.gen == a.in.gen.Load()
	var err error
	if warm {
		err = queryPointKeys(e.val, keys, threshold, out)
	}
	p.pmu.RUnlock()
	if !warm {
		p.pmu.Lock()
		var ps *csoutlier.PointState
		if ps, err = a.refreshPointLocked(pk); err == nil {
			err = queryPointKeys(ps, keys, threshold, out)
		}
		p.pmu.Unlock()
	}
	if err != nil {
		return err
	}
	for i := range out {
		if out[i].Outlier {
			m.pointOutliers.Inc()
		}
	}
	if timed {
		m.pointSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// queryPointKeys answers every key from one committed point state.
func queryPointKeys(ps *csoutlier.PointState, keys []string, threshold float64, out []csoutlier.PointAnswer) error {
	for i, key := range keys {
		ans, err := ps.Query(key, threshold)
		if err != nil {
			return err
		}
		out[i] = ans
	}
	return nil
}

// refreshPointLocked returns the span's point state committed at the
// current fold generation, rebuilding its sketch from the ring when
// stale or absent. The span snapshot and the fold generation are read
// under one in.mu critical section — the same pairing discipline as
// Outliers — so the state is tagged with exactly the generation whose
// data it holds. The O(M log M) mode re-estimate runs outside in.mu: it
// only reads the state's private buffer, so ingest never stalls on a
// commit. Caller holds pmu exclusively.
func (a *Aggregator) refreshPointLocked(pk pointKey) (*csoutlier.PointState, error) {
	p, in := &a.pts, &a.in
	e := p.cache.m[pk]
	if e != nil && e.gen == in.gen.Load() {
		return e.val, nil // another query refreshed it while this one waited for pmu
	}
	var ps *csoutlier.PointState
	if e != nil {
		ps = e.val
	} else {
		var err error
		if ps, err = a.sk.NewPointState(); err != nil {
			return nil, err
		}
	}
	in.mu.Lock()
	gen := in.gen.Load()
	err := in.ws.RangeInto(pk.fromAge, pk.toAge, ps.Sketch())
	in.mu.Unlock()
	if err != nil {
		return nil, err
	}
	ps.Commit()
	if e != nil {
		e.gen = gen
	} else {
		p.cache.put(pk, gen, in.gen.Load(), ps)
	}
	a.metrics.pointRefreshes.Inc()
	return ps, nil
}
