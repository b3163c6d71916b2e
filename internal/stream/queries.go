package stream

import (
	"sync"

	"csoutlier"
)

// genEntry is one cached value and the fold generation it was computed
// at: it can answer only while gen matches ingest.gen.
type genEntry[V any] struct {
	gen uint64
	seq uint64 // insertion order, for eviction
	val V
}

// genCache is a bounded map of generation-tagged entries — the shape
// the recovery cache and the point-state cache share. It has no lock;
// its owner's mutex guards it.
type genCache[K comparable, V any] struct {
	limit int
	seq   uint64 // insertion clock
	m     map[K]*genEntry[V]
}

func newGenCache[K comparable, V any](limit int) genCache[K, V] {
	return genCache[K, V]{limit: limit, m: make(map[K]*genEntry[V])}
}

// put stores val as key's entry for generation gen and bounds the map.
// Entries stale against cur, the current generation, go first (they can
// never answer again), then the oldest-inserted live ones; never the
// entry just stored, and never the whole map: a sweep of distinct
// one-off queries must not evict a hot standing one.
func (c *genCache[K, V]) put(key K, gen, cur uint64, val V) {
	c.seq++
	c.m[key] = &genEntry[V]{gen: gen, seq: c.seq, val: val}
	if len(c.m) <= c.limit {
		return
	}
	for k, e := range c.m {
		if k != key && e.gen != cur {
			delete(c.m, k)
		}
	}
	for len(c.m) > c.limit {
		oldest, oldestSeq := key, c.seq // the fresh entry is the newest
		for k, e := range c.m {
			if e.seq < oldestSeq {
				oldest, oldestSeq = k, e.seq
			}
		}
		delete(c.m, oldest)
	}
}

// queryKey identifies one cached recovery result.
type queryKey struct {
	fromAge, toAge, k int
}

// queryResult is a cached recovery result.
type queryResult struct {
	report *csoutlier.Report
	// sel is the recovery engine's selection order for this result — the
	// warm hint for re-solving the same query on the next generation.
	sel []int
	// standing marks a query that has been asked more than once. Standing
	// queries are the ones worth refreshing speculatively: when any query
	// misses, stale standing entries piggyback on its batched recovery
	// pass, so a dashboard's query set is served by one greedy run per
	// distinct span and generation instead of one cold solve per query.
	standing bool
}

// cacheCap bounds the recovery cache. Standing queries are few; the cap
// only guards against a caller sweeping many distinct (span, k) tuples.
const cacheCap = 64

// batchRefreshCap bounds how many stale standing queries piggyback on
// one cache miss's batched recovery pass.
const batchRefreshCap = 16

// queries is the recovery cache. qmu serialises whole queries, so they
// can share the range-sketch buffers and the cache needs no other lock.
type queries struct {
	qmu      sync.Mutex
	cache    genCache[queryKey, queryResult]
	sketches []csoutlier.Sketch // one per batched recovery slot, grown on demand

	// testHookBeforeSnapshot, when set, runs between a query's cache-miss
	// decision and its span snapshot — the window where a concurrent fold
	// used to leave a mistagged cache entry.
	testHookBeforeSnapshot func()
}

// Outliers answers the continuous-detection query: the top-k outliers
// over window ages [fromAge, toAge] (0 = the open window, so (0, W-1,
// k) = "over the last W windows"). Results are cached per (span, k) and
// reused until a delta or rotation changes the underlying data, so a
// dashboard polling a standing query between arrivals pays zero
// recovery work.
func (a *Aggregator) Outliers(fromAge, toAge, k int) (*csoutlier.Report, error) {
	key := queryKey{fromAge: fromAge, toAge: toAge, k: k}
	q, in, m := &a.q, &a.in, a.metrics
	q.qmu.Lock()
	defer q.qmu.Unlock()
	prev := q.cache.m[key]
	if prev != nil && prev.gen == in.gen.Load() {
		// A repeat of a cached query marks it standing: it is worth
		// refreshing speculatively when some other query misses.
		prev.val.standing = true
		m.cacheHits.Inc()
		return prev.val.report, nil
	}
	m.cacheMisses.Inc()
	if hook := q.testHookBeforeSnapshot; hook != nil {
		hook()
	}
	// Snapshot every batched span and read the fold generation under one
	// in.mu critical section — apply holds in.mu across both the sketch
	// addition and the gen bump, so the pair is consistent: each cache
	// entry is tagged with exactly the generation whose data it holds.
	// (Tagging with a generation read before the snapshot lets a fold land
	// in between, leaving an entry that contains the new data but is
	// tagged stale, so an identical follow-up query recomputes.) Recovery
	// itself runs outside in.mu: it is the expensive part and must not
	// stall ingest. A fold racing the recovery leaves the entries honestly
	// stale-tagged and the next query recomputes.
	//
	// The missing query does not recover alone: stale standing queries
	// piggyback on its batched recovery pass, each warm-started from its
	// previous generation's selection order, so a dashboard's whole query
	// set is served by one greedy run per distinct span and fold
	// generation (queries on one span at different k share it).
	type slot struct {
		key      queryKey
		warm     []int
		standing bool
	}
	slots := make([]slot, 1, 1+batchRefreshCap)
	slots[0] = slot{key: key}
	if prev != nil {
		// The entry exists but is stale — this query has now been asked
		// twice, so it is standing, and its old selection is the warm hint.
		slots[0].warm = prev.val.sel
		slots[0].standing = true
	}
	in.mu.Lock()
	gen := in.gen.Load()
	for k2, e := range q.cache.m {
		if len(slots) >= 1+batchRefreshCap {
			break
		}
		if k2 != key && e.val.standing && e.gen != gen {
			slots = append(slots, slot{key: k2, warm: e.val.sel, standing: true})
		}
	}
	for len(q.sketches) < len(slots) {
		q.sketches = append(q.sketches, a.sk.ZeroSketch())
	}
	kept := slots[:0]
	queries := make([]csoutlier.BatchQuery, 0, len(slots))
	for _, sl := range slots {
		sketch := q.sketches[len(kept)]
		if err := in.ws.RangeInto(sl.key.fromAge, sl.key.toAge, sketch); err != nil {
			if sl.key == key {
				in.mu.Unlock()
				return nil, err
			}
			continue // a piggybacked span no longer resolves; drop it
		}
		kept = append(kept, sl)
		queries = append(queries, csoutlier.BatchQuery{Global: sketch, K: sl.key.k, Warm: sl.warm})
	}
	in.mu.Unlock()
	reports, err := a.sk.DetectBatch(queries)
	if err != nil {
		return nil, err
	}
	cur := in.gen.Load()
	for i, sl := range kept {
		if len(sl.warm) > 0 {
			m.warmStarts.Inc()
		}
		q.cache.put(sl.key, gen, cur, queryResult{report: reports[i], sel: reports[i].Selection, standing: sl.standing})
	}
	m.batchRefreshes.Add(int64(len(kept) - 1))
	return reports[0], nil
}
