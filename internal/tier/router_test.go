package tier

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"csoutlier"
	"csoutlier/internal/stream"
)

// fakeSpan is a canned SpanQuerier that records the k it was asked for.
type fakeSpan struct {
	rep   *csoutlier.Report
	err   error
	asked int
}

func (f *fakeSpan) Outliers(fromAge, toAge, k int) (*csoutlier.Report, error) {
	f.asked = k
	return f.rep, f.err
}

// TestRouterMergeSemantics pins the merge arithmetic against canned
// shard reports: per-shard k capping, key-count-weighted mode,
// divergence ranking with the key-order tie-break, truncation, summed
// iterations and root-sum-square residual.
func TestRouterMergeSemantics(t *testing.T) {
	m, err := NewShardMap(testKeys(10), 2, Spec{M: 4, BaseSeed: 1}, 1)
	if err != nil {
		t.Fatalf("NewShardMap: %v", err)
	}
	s0 := &fakeSpan{rep: &csoutlier.Report{
		Outliers: []csoutlier.Outlier{{Key: "key000", Value: 90}, {Key: "key003", Value: 16}},
		Mode:     10, Iterations: 3, Residual: 3,
	}}
	s1 := &fakeSpan{rep: &csoutlier.Report{
		Outliers: []csoutlier.Outlier{{Key: "key007", Value: -70}, {Key: "key009", Value: 4}},
		Mode:     10, Iterations: 4, Residual: 4,
	}}
	r, err := NewRouter(m, []Target{{Span: s0}, {Span: s1}})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	rep, err := r.Outliers(0, 0, 7)
	if err != nil {
		t.Fatalf("Outliers: %v", err)
	}
	// 10 keys over 2 shards = 5 each: the per-shard k is capped at 5.
	if s0.asked != 5 || s1.asked != 5 {
		t.Fatalf("per-shard k = %d/%d, want 5/5", s0.asked, s1.asked)
	}
	if rep.Mode != 10 {
		t.Fatalf("merged mode = %v, want 10", rep.Mode)
	}
	if rep.Iterations != 7 {
		t.Fatalf("merged iterations = %d, want 7", rep.Iterations)
	}
	if rep.Residual != 5 { // sqrt(3² + 4²)
		t.Fatalf("merged residual = %v, want 5", rep.Residual)
	}
	// Divergences from mode 10: key000 → 80, key007 → 80, key003 → 6,
	// key009 → 6. Ties break by key (= global dictionary order).
	wantKeys := []string{"key000", "key007", "key003", "key009"}
	if len(rep.Outliers) != len(wantKeys) {
		t.Fatalf("merged %d outliers, want %d", len(rep.Outliers), len(wantKeys))
	}
	for i, want := range wantKeys {
		if rep.Outliers[i].Key != want {
			t.Fatalf("rank %d = %q, want %q (full: %+v)", i, rep.Outliers[i].Key, want, rep.Outliers)
		}
	}
	// Truncation to k.
	rep, err = r.Outliers(0, 0, 2)
	if err != nil {
		t.Fatalf("Outliers k=2: %v", err)
	}
	if len(rep.Outliers) != 2 || rep.Outliers[0].Key != "key000" || rep.Outliers[1].Key != "key007" {
		t.Fatalf("top-2 = %+v", rep.Outliers)
	}
	if _, err := r.Outliers(0, 0, 0); err == nil {
		t.Fatal("accepted k = 0")
	}
	// A shard error fails the whole query, attributed to the shard.
	s1.err = errors.New("boom")
	if _, err := r.Outliers(0, 0, 2); err == nil {
		t.Fatal("shard error swallowed")
	}
}

// shardedFixture is a live 2-shard deployment: per-shard count-sketch
// aggregators on loopback listeners, filled with a uniform background
// and planted outliers through a ShardedNode.
type shardedFixture struct {
	m     *ShardMap
	aggs  []*stream.Aggregator
	addrs []string
}

const (
	fixtureMode = 100.0
	fixtureN    = 512
)

// fixtureOutliers maps planted keys to their deviation from the mode.
// key010 lands in shard 0 (keys 0–255); key300 and key450 in shard 1.
var fixtureOutliers = map[string]float64{
	"key010": 7000,
	"key300": -6000,
	"key450": 5000,
}

func buildShardedFixture(t *testing.T) shardedFixture {
	t.Helper()
	m, err := NewShardMap(testKeys(fixtureN), 2, Spec{
		M: 210, BaseSeed: 77, Ensemble: csoutlier.CountSketch, Depth: 7,
	}, 1)
	if err != nil {
		t.Fatalf("NewShardMap: %v", err)
	}
	sks, err := m.Sketchers()
	if err != nil {
		t.Fatalf("Sketchers: %v", err)
	}
	fx := shardedFixture{m: m}
	for i := range sks {
		agg, addr := serveRoot(t, sks[i], stream.AggregatorOptions{Windows: 4})
		fx.aggs = append(fx.aggs, agg)
		fx.addrs = append(fx.addrs, addr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sn, err := DialSharded(ctx, m, sks, fx.addrs, "node00", stream.NodeOptions{})
	if err != nil {
		t.Fatalf("DialSharded: %v", err)
	}
	for i := 0; i < fixtureN; i++ {
		key := fmt.Sprintf("key%03d", i)
		v := fixtureMode + fixtureOutliers[key]
		if err := sn.Observe(key, v); err != nil {
			t.Fatalf("observe %s: %v", key, err)
		}
	}
	if err := sn.Close(ctx); err != nil {
		t.Fatalf("close sharded node: %v", err)
	}
	return fx
}

func checkFixtureAnswers(t *testing.T, r *Router) {
	t.Helper()
	// Global top-3 span query across both shards, ranked by divergence.
	rep, err := r.Outliers(0, 0, 3)
	if err != nil {
		t.Fatalf("Outliers: %v", err)
	}
	if math.Abs(rep.Mode-fixtureMode) > 1e-6*fixtureMode {
		t.Fatalf("merged mode = %v, want ~%v", rep.Mode, fixtureMode)
	}
	wantRank := []string{"key010", "key300", "key450"}
	if len(rep.Outliers) != 3 {
		t.Fatalf("got %d outliers, want 3: %+v", len(rep.Outliers), rep.Outliers)
	}
	for i, key := range wantRank {
		got := rep.Outliers[i]
		if got.Key != key {
			t.Fatalf("rank %d = %q, want %q (full: %+v)", i, got.Key, key, rep.Outliers)
		}
		want := fixtureMode + fixtureOutliers[key]
		if math.Abs(got.Value-want) > 1e-6*math.Abs(want) {
			t.Fatalf("%s value = %v, want %v", key, got.Value, want)
		}
	}
	// A mixed-shard watch list answers in request order.
	watch := []string{"key300", "key010", "key000", "key450", "key511"}
	answers, err := r.PointQueryMulti(0, 0, watch, 1000)
	if err != nil {
		t.Fatalf("PointQueryMulti: %v", err)
	}
	if len(answers) != len(watch) {
		t.Fatalf("got %d answers for %d keys", len(answers), len(watch))
	}
	for i, key := range watch {
		dev := fixtureOutliers[key]
		want := fixtureMode + dev
		ans := answers[i]
		if math.Abs(ans.Value-want) > 1e-6*math.Abs(want) {
			t.Fatalf("%s value = %v, want %v", key, ans.Value, want)
		}
		if wantFlag := dev != 0; ans.Outlier != wantFlag {
			t.Fatalf("%s outlier flag = %v, want %v (%+v)", key, ans.Outlier, wantFlag, ans)
		}
	}
	// The watch list of one goes through the same path.
	one, err := r.PointQuery(0, 0, "key450", 1000)
	if err != nil {
		t.Fatalf("PointQuery: %v", err)
	}
	if !one.Outlier {
		t.Fatalf("key450 not flagged: %+v", one)
	}
}

// TestRouterEndToEndInProcess fans queries across live per-shard
// aggregators queried in process and checks the merged answers against
// the planted truth.
func TestRouterEndToEndInProcess(t *testing.T) {
	fx := buildShardedFixture(t)
	r, err := NewRouter(fx.m, []Target{
		{Span: fx.aggs[0], Point: fx.aggs[0]},
		{Span: fx.aggs[1], Point: fx.aggs[1]},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	checkFixtureAnswers(t, r)
	// An unknown key poisons the whole watch list, attributed to the
	// shard that rejected it (an out-of-dictionary key routes to an edge
	// shard, which then rejects it like a flat deployment would).
	if _, err := r.PointQueryMulti(0, 0, []string{"key000", "zzz"}, 1000); err == nil {
		t.Fatal("unknown key accepted")
	} else if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("rejection not attributed to shard 1: %v", err)
	}
	// A rejection is the one query's: the router and the shard that
	// refused still answer the next list.
	if answers, err := r.PointQueryMulti(0, 0, []string{"key450"}, 1000); err != nil || !answers[0].Outlier {
		t.Fatalf("query after a rejection: %+v, %v", answers, err)
	}
	if _, err := NewRouter(fx.m, []Target{{Span: fx.aggs[0]}}); err == nil {
		t.Fatal("accepted target count != shard count")
	}
}

// fixtureRouter is a Router over the fixture's shard roots, queried in
// process.
func fixtureRouter(t *testing.T, fx shardedFixture) *Router {
	t.Helper()
	r, err := NewRouter(fx.m, []Target{
		{Span: fx.aggs[0], Point: fx.aggs[0]},
		{Span: fx.aggs[1], Point: fx.aggs[1]},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return r
}

// TestRouterWarmReadAllocs pins what a warm read through the Router
// allocates: the answer it returns, each shard's own answer, and one
// goroutine per shard but the last — the route scratch is pooled and
// the last shard is asked on the calling goroutine.
func TestRouterWarmReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates; alloc pinning runs without it")
	}
	fx := buildShardedFixture(t)
	r := fixtureRouter(t, fx)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name  string
		keys  []string
		limit float64
	}{
		// The result, two shard results, one goroutine.
		{"two shards", []string{"key300", "key010", "key000", "key450", "key511"}, 4},
		// The result and shard 0's: no goroutine.
		{"shard 0 only", []string{"key010", "key000", "key255", "key100"}, 2},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := r.PointQueryMulti(0, 0, tc.keys, 1000); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.limit {
			t.Errorf("warm watch list, %s: %.0f allocs/op, want ≤ %.0f", tc.name, got, tc.limit)
		}
	}
	// The merged Report, its Outliers and one goroutine: both shard
	// roots answer from their caches.
	got := testing.AllocsPerRun(200, func() {
		if _, err := r.Outliers(0, 0, 5); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4 {
		t.Errorf("warm Outliers(0, 0, 5): %.0f allocs/op, want ≤ 4", got)
	}
}

// TestRouterConcurrentReads shares one Router among eight goroutines
// that mix watch lists of different lengths and shard mixes, rejected
// lists and span queries. Every answer, and every rejection's shard
// attribution, must equal what a sequential call returns, whatever
// another call left in the pooled scratch.
func TestRouterConcurrentReads(t *testing.T) {
	fx := buildShardedFixture(t)
	r := fixtureRouter(t, fx)
	type request struct {
		keys []string // a watch list, or nil for a span query
		to   int      // the span's oldest window age
		k    int
	}
	var reqs []request
	for _, keys := range [][]string{
		{"key300", "key010", "key000", "key450", "key511"},
		{"zzz"},                     // rejected by shard 1
		{"key450"},                  // after a rejection, from the same shard
		{"key000", "aaa", "key511"}, // rejected by shard 0
		{"key010", "key001", "key002", "key003", "key004", "key005", "key006"},
		{"key511", "key256", "key300"},
		{"key255", "key256"},
		{"key000", "zzz"}, // rejected by shard 1, shard 0 answers
		testKeys(fixtureN),
	} {
		reqs = append(reqs, request{keys: keys})
	}
	for to := 0; to < 2; to++ {
		for k := 1; k <= 4; k++ {
			reqs = append(reqs, request{to: to, k: k})
		}
	}
	ask := func(q request) (any, string) {
		var got any
		var err error
		if q.keys != nil {
			got, err = r.PointQueryMulti(0, q.to, q.keys, 1000)
		} else {
			got, err = r.Outliers(0, q.to, q.k)
		}
		if err != nil {
			return nil, err.Error()
		}
		return got, ""
	}
	wantAns := make([]any, len(reqs))
	wantErr := make([]string, len(reqs))
	for i, q := range reqs {
		wantAns[i], wantErr[i] = ask(q)
	}
	for i, want := range map[int]string{1: "shard 1", 3: "shard 0", 7: "shard 1"} {
		if !strings.Contains(wantErr[i], want) || strings.Count(wantErr[i], "tier: shard") != 1 {
			t.Fatalf("request %d: error %q, want one rejection from %s", i, wantErr[i], want)
		}
	}

	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds*len(reqs); n++ {
				i := (w*5 + n) % len(reqs) // each worker its own rotation
				got, msg := ask(reqs[i])
				if msg != wantErr[i] || !reflect.DeepEqual(got, wantAns[i]) {
					errs <- fmt.Errorf("worker %d request %d: got %v %q, sequential %v %q", w, i, got, msg, wantAns[i], wantErr[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
