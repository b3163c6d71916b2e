package stream

import (
	"context"
	"strings"
	"testing"
	"time"

	"csoutlier"
	"csoutlier/internal/obs"
	"csoutlier/internal/xrand"
)

// testDelta builds one marshalable delta payload.
func testDelta(t *testing.T, sk *csoutlier.Sketcher, key string, v float64) []byte {
	t.Helper()
	u := sk.NewUpdater()
	if err := u.Observe(key, v); err != nil {
		t.Fatal(err)
	}
	d := sk.ZeroSketch()
	if _, err := u.DrainInto(d); err != nil {
		t.Fatal(err)
	}
	payload, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestOutliersCacheHitAfterConcurrentFold pins the cache-generation
// fix: a fold landing between a query's cache-miss decision and its
// span snapshot must leave the cache entry tagged with the generation
// whose data it actually holds, so an identical follow-up query (with
// no further folds) is a cache hit. The old code tagged the entry with
// a generation read before the snapshot, so this exact interleaving
// produced an entry that was never hittable.
func TestOutliersCacheHitAfterConcurrentFold(t *testing.T) {
	sk := testSketcher(t, 256, 96, 7)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close(context.Background())

	fold := func(seq uint64, key string) {
		t.Helper()
		ack := agg.apply(pushRequest{
			Kind: pushDelta, Node: "n1", Epoch: 1,
			Window: 1, Seq: seq, Payload: testDelta(t, sk, key, 100),
		}, new(csoutlier.Sketch))
		if !ack.Applied {
			t.Fatalf("fold seq %d not applied: %+v", seq, ack)
		}
	}
	fold(1, "key001")

	folded := false
	agg.q.testHookBeforeSnapshot = func() {
		if !folded {
			folded = true
			fold(2, "key002")
		}
	}
	r1, err := agg.Outliers(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !folded {
		t.Fatal("hook did not run: query was not a miss")
	}
	agg.q.testHookBeforeSnapshot = nil

	r2, err := agg.Outliers(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 {
		t.Fatal("second identical query recomputed: cache entry was tagged with a stale generation")
	}
	s := agg.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", s.CacheHits, s.CacheMisses)
	}
}

// TestCacheEvictionKeepsHotQueries pins the eviction fix: when the
// cache overflows, stale-generation entries go first, so a standing
// query refreshed after the latest fold survives a sweep of distinct
// one-off queries. The old clear-everything eviction evicted it.
func TestCacheEvictionKeepsHotQueries(t *testing.T) {
	sk := testSketcher(t, 256, 96, 11)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close(context.Background())

	ack := agg.apply(pushRequest{
		Kind: pushDelta, Node: "n1", Epoch: 1,
		Window: 1, Seq: 1, Payload: testDelta(t, sk, "key000", 50),
	}, new(csoutlier.Sketch))
	if !ack.Applied {
		t.Fatalf("fold not applied: %+v", ack)
	}
	query := func(k int) {
		t.Helper()
		if _, err := agg.Outliers(0, 0, k); err != nil {
			t.Fatalf("Outliers(k=%d): %v", k, err)
		}
	}
	// 40 one-off queries at the current generation, all made stale by the
	// next fold.
	for k := 1; k <= 40; k++ {
		query(k)
	}
	ack = agg.apply(pushRequest{
		Kind: pushDelta, Node: "n1", Epoch: 1,
		Window: 1, Seq: 2, Payload: testDelta(t, sk, "key001", 60),
	}, new(csoutlier.Sketch))
	if !ack.Applied {
		t.Fatalf("fold not applied: %+v", ack)
	}
	const standing = 41
	query(standing) // the hot standing query, fresh generation
	// A sweep of distinct queries pushes the cache past its cap. The 40
	// stale entries must be evicted before any fresh one.
	for k := 42; k <= 71; k++ {
		query(k)
	}
	before := agg.Stats()
	query(standing)
	after := agg.Stats()
	if hits := after.CacheHits - before.CacheHits; hits != 1 {
		t.Fatalf("standing query after sweep: %d cache hits, want 1 (evicted?)", hits)
	}
	agg.q.qmu.Lock()
	size := len(agg.q.cache.m)
	agg.q.qmu.Unlock()
	if size > cacheCap {
		t.Fatalf("cache size %d exceeds cap %d", size, cacheCap)
	}
}

// TestOutliersWarmBatchRefresh pins the batched standing-query path: a
// query becomes standing once it repeats; when any query misses after a
// fold, stale standing entries piggyback on its recovery batch (warm-
// started from their previous selection) and come back as cache hits,
// bit-identical to a cold Detect; one-off queries are never piggybacked.
func TestOutliersWarmBatchRefresh(t *testing.T) {
	sk := testSketcher(t, 256, 96, 19)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close(context.Background())

	fold := func(seq uint64, key string, v float64) {
		t.Helper()
		ack := agg.apply(pushRequest{
			Kind: pushDelta, Node: "n1", Epoch: 1,
			Window: 1, Seq: seq, Payload: testDelta(t, sk, key, v),
		}, new(csoutlier.Sketch))
		if !ack.Applied {
			t.Fatalf("fold seq %d not applied: %+v", seq, ack)
		}
	}
	query := func(k int) *csoutlier.Report {
		t.Helper()
		r, err := agg.Outliers(0, 0, k)
		if err != nil {
			t.Fatalf("Outliers(k=%d): %v", k, err)
		}
		return r
	}
	queries := 0
	count := func(k int) *csoutlier.Report { queries++; return query(k) }

	fold(1, "key004", 900)
	// k=3 and k=5 repeat → standing. k=7 is a one-off.
	count(3)
	count(3)
	count(5)
	count(5)
	count(7)

	fold(2, "key009", -700) // everything cached is now stale

	// A brand-new query misses; the two stale standing queries must ride
	// its batch, warm-started; the one-off must not.
	before := agg.Stats()
	count(9)
	after := agg.Stats()
	if got := after.BatchRefreshes - before.BatchRefreshes; got != 2 {
		t.Fatalf("batch refreshes = %d, want 2 (the two standing queries)", got)
	}
	if got := after.WarmStarts - before.WarmStarts; got < 2 {
		t.Fatalf("warm starts = %d, want >= 2", got)
	}

	// The piggybacked refresh makes the standing queries cache hits at
	// the new generation — and the served report must be bit-identical to
	// a cold Detect over the same span.
	before = agg.Stats()
	refreshed := count(3)
	after = agg.Stats()
	if after.CacheHits-before.CacheHits != 1 {
		t.Fatal("standing query not refreshed by the batch: cache miss")
	}
	rs, err := agg.RangeSketch(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sk.Detect(rs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(refreshed.Outliers) != len(cold.Outliers) {
		t.Fatalf("refreshed report has %d outliers, cold %d", len(refreshed.Outliers), len(cold.Outliers))
	}
	for i := range cold.Outliers {
		if refreshed.Outliers[i] != cold.Outliers[i] {
			t.Fatalf("outlier %d: refreshed %+v != cold %+v", i, refreshed.Outliers[i], cold.Outliers[i])
		}
	}
	if refreshed.Iterations != cold.Iterations || refreshed.Residual != cold.Residual {
		t.Fatalf("refreshed diagnostics (%d, %v) != cold (%d, %v)",
			refreshed.Iterations, refreshed.Residual, cold.Iterations, cold.Residual)
	}

	// The one-off was not refreshed: asking again is a miss.
	before = agg.Stats()
	count(7)
	after = agg.Stats()
	if after.CacheMisses-before.CacheMisses != 1 {
		t.Fatal("one-off query was piggybacked: refresh batch must only carry standing queries")
	}

	// Every query is exactly one hit or one miss — the soak identity.
	s := agg.Stats()
	if s.CacheHits+s.CacheMisses != int64(queries) {
		t.Fatalf("hits %d + misses %d != %d queries", s.CacheHits, s.CacheMisses, queries)
	}
}

// TestBackoffDelayDeterministic pins the seedable-jitter contract: the
// same RNG seed yields the same backoff sequence (so a simulation soak
// replays reconnect timing), different seeds diverge, and every delay
// stays inside the equal-jitter envelope [d/2, d].
func TestBackoffDelayDeterministic(t *testing.T) {
	const base, max = time.Millisecond, 50 * time.Millisecond
	a, b := xrand.New(123), xrand.New(123)
	other := xrand.New(456)
	diverged := false
	for attempt := 1; attempt <= 12; attempt++ {
		da := xrand.BackoffDelay(a, attempt, base, max)
		db := xrand.BackoffDelay(b, attempt, base, max)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v and %v", attempt, da, db)
		}
		if dc := xrand.BackoffDelay(other, attempt, base, max); dc != da {
			diverged = true
		}
		d := base
		for i := 1; i < attempt && d < max; i++ {
			d *= 2
		}
		if d > max {
			d = max
		}
		if da < d/2 || da > d {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, da, d/2, d)
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter for 12 straight draws")
	}
}

// TestAggregatorMetricsExposition checks the registry is the single
// source of truth: the AggStats snapshot satisfies the frame identity,
// its numbers agree exactly with the registry's counters, and the
// rendered exposition is well-formed and carries the required families.
func TestAggregatorMetricsExposition(t *testing.T) {
	sk := testSketcher(t, 256, 96, 13)
	reg := obs.NewRegistry()
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close(context.Background())

	// Both encodings' series exist before the first frame.
	var fresh strings.Builder
	if err := reg.WritePrometheus(&fresh); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`stream_delta_frames_total{encoding="pairs"} 0`, `stream_delta_frames_total{encoding="sketch"} 0`} {
		if !strings.Contains(fresh.String(), want) {
			t.Fatalf("a fresh aggregator's exposition is missing %q", want)
		}
	}

	payload := testDelta(t, sk, "key007", 80)
	push := func(window, seq uint64) Ack {
		return agg.apply(pushRequest{
			Kind: pushDelta, Node: "n1", Epoch: 1,
			Window: window, Seq: seq, Payload: payload,
		}, new(csoutlier.Sketch))
	}
	if ack := push(1, 1); !ack.Applied {
		t.Fatalf("apply: %+v", ack)
	}
	if ack := push(1, 1); ack.Status != StatusDuplicate {
		t.Fatalf("duplicate: %+v", ack)
	}
	agg.Rotate()
	agg.Rotate()
	if ack := push(1, 2); ack.Status != statusDroppedOld {
		t.Fatalf("dropped: %+v", ack)
	}
	if ack := push(3, 0); ack.Err == "" {
		t.Fatalf("seq 0 not rejected: %+v", ack)
	}
	// One applied frame more, in the pairs encoding; the rejected,
	// duplicate and dropped ones above count under neither encoding.
	u := sk.NewUpdater()
	if err := u.Observe("key009", 3); err != nil {
		t.Fatal(err)
	}
	pairs, _, err := u.DrainEncoded(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ack := agg.apply(pushRequest{Kind: pushDelta, Node: "n1", Epoch: 1, Window: 3, Seq: 3, Payload: pairs}, new(csoutlier.Sketch)); !ack.Applied {
		t.Fatalf("apply pairs: %+v", ack)
	}
	if _, err := agg.Outliers(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Outliers(0, 0, 4); err != nil {
		t.Fatal(err)
	}

	s := agg.Stats()
	if s.Frames != s.Applied+s.Duplicates+s.Dropped+s.Rejected {
		t.Fatalf("frame identity violated: %d != %d+%d+%d+%d",
			s.Frames, s.Applied, s.Duplicates, s.Dropped, s.Rejected)
	}
	if s.Frames != 5 || s.Applied != 2 || s.Duplicates != 1 || s.Dropped != 1 || s.Rejected != 1 {
		t.Fatalf("counters = %+v, want two applied frames and one of each other outcome", s)
	}
	if s.CacheHits != 1 || s.CacheMisses != 1 || s.Rotations != 2 {
		t.Fatalf("cache %d/%d rotations %d, want 1/1 and 2", s.CacheHits, s.CacheMisses, s.Rotations)
	}
	// The struct snapshot and the registry must be the same books.
	if v := reg.Counter("stream_frames_total", "").Value(); v != s.Frames {
		t.Fatalf("registry frames %d != stats %d", v, s.Frames)
	}
	if v := reg.CounterVec("stream_frame_outcomes_total", "", "outcome").With("applied").Value(); v != s.Applied {
		t.Fatalf("registry applied %d != stats %d", v, s.Applied)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := obs.LintString(out); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"stream_frames_total 5",
		`stream_frame_outcomes_total{outcome="applied"} 2`,
		`stream_delta_frames_total{encoding="pairs"} 1`,
		`stream_delta_frames_total{encoding="sketch"} 1`,
		// Fold timing is sampled (first frame, then 1 in 16): 5 frames
		// yield exactly one histogram observation.
		"stream_fold_seconds_count 1",
		"stream_window 3",
		`stream_node_lag_windows{node="n1"} 0`,
		`stream_recovery_cache_total{result="hit"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
