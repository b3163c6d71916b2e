package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"csoutlier"
)

// testCountSketcher builds a CountSketch-ensemble sketcher for the
// point-query tests (the default testSketcher uses the Gaussian
// ensemble, which has no point-query path).
func testCountSketcher(t testing.TB, n, m, depth int, seed uint64) *csoutlier.Sketcher {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%03d", i)
	}
	sk, err := csoutlier.NewSketcher(keys, csoutlier.Config{
		M: m, Seed: seed, Ensemble: csoutlier.CountSketch, Depth: depth,
	})
	if err != nil {
		t.Fatalf("NewSketcher: %v", err)
	}
	return sk
}

// pairsDelta marshals one delta frame holding the given key→value
// pairs.
func pairsDelta(t testing.TB, sk *csoutlier.Sketcher, pairs map[string]float64) []byte {
	t.Helper()
	s, err := sk.SketchPairs(pairs)
	if err != nil {
		t.Fatalf("SketchPairs: %v", err)
	}
	payload, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	return payload
}

// TestAggregatorPointQuery drives the recovery-free fast path end to
// end: planted outliers answer with their exact values, clean keys sit
// on the mode, repeat queries hit the committed state (no re-fold),
// and a new fold or rotation invalidates it.
func TestAggregatorPointQuery(t *testing.T) {
	const (
		n    = 400
		mode = 100.0
	)
	sk := testCountSketcher(t, n, 210, 7, 51)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 4})
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	defer agg.Close(context.Background())
	if !agg.SupportsPointQuery() {
		t.Fatal("count-sketch aggregator denies point-query support")
	}

	planted := map[int]float64{17: 5000, 99: -4000, 300: 3000}
	pairs := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		pairs[fmt.Sprintf("key%03d", i)] = mode
	}
	for idx, v := range planted {
		pairs[fmt.Sprintf("key%03d", idx)] += v
	}
	payload := pairsDelta(t, sk, pairs)
	req := pushRequest{Kind: pushDelta, Node: "alpha", Epoch: 1, Window: 1, Seq: 1, Folds: 1, Payload: payload}
	if ack := agg.apply(req, new(csoutlier.Sketch)); ack.Err != "" {
		t.Fatalf("apply: %s", ack.Err)
	}

	const threshold = 1000.0
	for idx, v := range planted {
		ans, err := agg.PointQuery(0, 0, fmt.Sprintf("key%03d", idx), threshold)
		if err != nil {
			t.Fatalf("PointQuery(%d): %v", idx, err)
		}
		if !ans.Outlier {
			t.Fatalf("planted outlier %d not flagged: %+v", idx, ans)
		}
		want := mode + v
		if math.Abs(ans.Value-want) > 1e-6*math.Abs(v) {
			t.Fatalf("outlier %d value = %v, want %v", idx, ans.Value, want)
		}
	}
	for _, idx := range []int{0, 41, 123, 256} {
		ans, err := agg.PointQuery(0, 0, fmt.Sprintf("key%03d", idx), threshold)
		if err != nil {
			t.Fatalf("PointQuery(clean %d): %v", idx, err)
		}
		if ans.Outlier || math.Abs(ans.Value-mode) > 1e-6*mode {
			t.Fatalf("clean key %d misclassified: %+v", idx, ans)
		}
	}

	// All eight queries above share one span and one fold generation:
	// exactly one refresh, three outliers.
	st := agg.Stats()
	if st.PointQueries != 7 || st.PointRefreshes != 1 || st.PointOutliers != 3 {
		t.Fatalf("stats after warm queries: queries=%d refreshes=%d outliers=%d, want 7/1/3",
			st.PointQueries, st.PointRefreshes, st.PointOutliers)
	}

	// A new fold staleness-bumps the generation: the next query on the
	// same span re-folds, and the doubled data doubles the answers.
	req.Seq = 2
	if ack := agg.apply(req, new(csoutlier.Sketch)); ack.Err != "" {
		t.Fatalf("apply seq 2: %s", ack.Err)
	}
	ans, err := agg.PointQuery(0, 0, "key017", threshold)
	if err != nil {
		t.Fatalf("PointQuery after fold: %v", err)
	}
	want := 2 * (mode + planted[17])
	if !ans.Outlier || math.Abs(ans.Value-want) > 1e-6*want {
		t.Fatalf("after second fold: %+v, want value %v", ans, want)
	}
	if st = agg.Stats(); st.PointRefreshes != 2 {
		t.Fatalf("refreshes after fold = %d, want 2", st.PointRefreshes)
	}

	// Rotation also invalidates; the rotated-out window still answers
	// through a wider span.
	agg.Rotate()
	ans, err = agg.PointQuery(0, 1, "key017", threshold)
	if err != nil {
		t.Fatalf("PointQuery after rotate: %v", err)
	}
	if !ans.Outlier || math.Abs(ans.Value-want) > 1e-6*want {
		t.Fatalf("span query after rotate: %+v, want value %v", ans, want)
	}
	// The open window is now empty: estimate and mode are both zero.
	ans, err = agg.PointQuery(0, 0, "key017", threshold)
	if err != nil {
		t.Fatalf("PointQuery empty window: %v", err)
	}
	if ans.Outlier || ans.Value != 0 || ans.Mode != 0 {
		t.Fatalf("empty-window answer: %+v, want zeros", ans)
	}

	// Error paths: unknown key, invalid span.
	if _, err := agg.PointQuery(0, 0, "no-such-key", threshold); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := agg.PointQuery(0, 99, "key017", threshold); err == nil {
		t.Fatal("out-of-ring span accepted")
	}
}

// TestPointQueryNeedsCountSketch: on any other ensemble PointQuery
// fails with the static sentinel, but the pointq_* metric families
// still exist (at zero) for scrape checkers.
func TestPointQueryNeedsCountSketch(t *testing.T) {
	sk := testSketcher(t, 64, 32, 3)
	agg, err := NewAggregator(sk, AggregatorOptions{})
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	defer agg.Close(context.Background())
	if agg.SupportsPointQuery() {
		t.Fatal("gaussian aggregator claims point-query support")
	}
	if _, err := agg.PointQuery(0, 0, "key000", 1); !errors.Is(err, csoutlier.ErrNoPointQuery) {
		t.Fatalf("PointQuery err = %v, want ErrNoPointQuery", err)
	}
	st := agg.Stats()
	if st.PointQueries != 1 || st.PointRefreshes != 0 {
		t.Fatalf("stats on unsupported backend: queries=%d refreshes=%d, want 1/0", st.PointQueries, st.PointRefreshes)
	}
}

// TestPointStateCacheEviction sweeps more distinct spans than the
// cache holds and checks the cap.
func TestPointStateCacheEviction(t *testing.T) {
	sk := testCountSketcher(t, 64, 35, 5, 9)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: pointCacheCap + 8})
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	defer agg.Close(context.Background())
	for i := 0; i < pointCacheCap+7; i++ {
		agg.Rotate() // make every ring slot queryable
	}
	for age := 0; age < pointCacheCap+8; age++ {
		if _, err := agg.PointQuery(0, age, "key000", 0); err != nil {
			t.Fatalf("PointQuery span (0,%d): %v", age, err)
		}
	}
	agg.pts.pmu.RLock()
	size := len(agg.pts.cache.m)
	agg.pts.pmu.RUnlock()
	if size > pointCacheCap {
		t.Fatalf("point cache grew to %d entries (cap %d)", size, pointCacheCap)
	}
}

// TestPointQueryWhileFolding hammers PointQuery from several
// goroutines concurrently with folds, rotations and snapshot cycles
// (run under -race) — the point-query companion to
// TestSnapshotWhileFolding. Every delta gives all keys the same value,
// so a consistent committed state must answer with Value == Mode and
// |Deviation| ≈ 0 for every key; a torn span snapshot or a
// stale-tagged commit shows up as a fat deviation or a non-integral
// value.
func TestPointQueryWhileFolding(t *testing.T) {
	const (
		n      = 64
		frames = 300
	)
	// 32 ring slots and only 20 racing rotations: nothing folded during
	// the run ever rotates off the ring, so the final full-span query
	// must account for every frame.
	sk := testCountSketcher(t, n, 35, 5, 13)
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 32, Durable: true})
	if err != nil {
		t.Fatalf("NewAggregator: %v", err)
	}
	defer agg.Close(context.Background())
	for i := 0; i < 31; i++ {
		agg.Rotate() // pre-fill the ring so every span age is queryable
	}

	pairs := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		pairs[fmt.Sprintf("key%03d", i)] = 1
	}
	payload := pairsDelta(t, sk, pairs)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // folder feed
		defer wg.Done()
		for seq := uint64(1); seq <= frames; seq++ {
			req := pushRequest{
				Kind: pushDelta, Node: "alpha", Epoch: 1,
				Window: agg.CurrentWindow(), Seq: seq, Folds: 1, Payload: payload,
			}
			if ack := agg.apply(req, new(csoutlier.Sketch)); ack.Err != "" {
				t.Errorf("apply seq %d: %s", seq, ack.Err)
				return
			}
		}
	}()
	go func() { // rotation clock
		defer wg.Done()
		for i := 0; i < 20; i++ {
			agg.Rotate()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // snapshot cycles racing the point states
		defer wg.Done()
		for i := 0; i < 30; i++ {
			snap, err := agg.Snapshot()
			if err != nil {
				t.Errorf("Snapshot %d: %v", i, err)
				return
			}
			if _, err := snap.MarshalBinary(); err != nil {
				t.Errorf("MarshalBinary %d: %v", i, err)
				return
			}
			agg.CommitSnapshot(snap)
		}
	}()

	spans := []pointKey{{0, 0}, {0, 3}, {0, 7}, {1, 5}}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				span := spans[(g+i)%len(spans)]
				key := fmt.Sprintf("key%03d", (g*31+i)%n)
				ans, err := agg.PointQuery(span.fromAge, span.toAge, key, 0.5)
				if err != nil {
					t.Errorf("PointQuery %v %s: %v", span, key, err)
					return
				}
				if math.Abs(ans.Deviation) > 1e-6 || ans.Outlier {
					t.Errorf("uniform data returned deviation %v (span %v key %s)", ans.Deviation, span, key)
					return
				}
				if ans.Value < -1e-6 || ans.Value > frames+1e-6 ||
					math.Abs(ans.Value-math.Round(ans.Value)) > 1e-6 {
					t.Errorf("answer %v not an integral fold count in [0, %d]", ans.Value, frames)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Quiesced: a full-span query must see every applied frame exactly.
	ans, err := agg.PointQuery(0, 31, "key000", 0.5)
	if err != nil {
		t.Fatalf("final PointQuery: %v", err)
	}
	if math.Abs(ans.Value-frames) > 1e-6 {
		t.Fatalf("final mass = %v, want %d", ans.Value, frames)
	}
	st := agg.Stats()
	if st.PointQueries < 4*2000 {
		t.Fatalf("PointQueries = %d, want ≥ %d", st.PointQueries, 4*2000)
	}
}
