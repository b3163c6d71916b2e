package obs

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests served")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total", "other help"); again != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %g, want 3.5", got)
	}
	g.SetInt(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %g, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 99, 1000} {
		h.Observe(v)
	}
	cum, count, sum := h.snapshot()
	// ≤1: {0.5, 1}; ≤10: +{5, 10}; ≤100: +{99}; +Inf: +{1000}.
	want := []int64{2, 4, 5, 6}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cum[%d] = %d, want %d (all %v)", i, cum[i], want[i], cum)
		}
	}
	if count != 6 {
		t.Fatalf("count = %d, want 6", count)
	}
	if wantSum := 0.5 + 1 + 5 + 10 + 99 + 1000; sum != wantSum {
		t.Fatalf("sum = %g, want %g", sum, wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(LatencyBuckets())
	var wg sync.WaitGroup
	const (
		workers = 8
		each    = 2000
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(i%100) * 1e-5)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*each {
		t.Fatalf("count = %d, want %d", got, workers*each)
	}
	if math.IsNaN(h.Sum()) {
		t.Fatal("sum is NaN")
	}
}

func TestVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("frames_total", "frames by outcome", "outcome")
	v.With("applied").Add(3)
	v.With("rejected").Inc()
	if got := v.With("applied").Value(); got != 3 {
		t.Fatalf("applied = %d, want 3", got)
	}
	gv := r.GaugeVec("lag", "per node lag", "node")
	gv.With("dc-west").Set(2)
	r.Histogram("rtt_seconds", "round-trip time", []float64{0.1, 1}).Observe(0.05)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`frames_total{outcome="applied"} 3`,
		`frames_total{outcome="rejected"} 1`,
		`lag{node="dc-west"} 2`,
		`rtt_seconds_bucket{le="0.1"} 1`,
		`rtt_seconds_bucket{le="+Inf"} 1`,
		`rtt_seconds_count 1`,
		"# TYPE frames_total counter",
		"# TYPE lag gauge",
		"# TYPE rtt_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintString(out); err != nil {
		t.Fatalf("own exposition fails lint: %v\n%s", err, out)
	}
}

func TestGaugeVecRemove(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("node_lag", "per node lag", "node")
	gv.With("n1").Set(1)
	gv.With("n2").Set(2)
	if !gv.Remove("n1") {
		t.Fatal("Remove(n1) = false, want true")
	}
	if gv.Remove("n1") {
		t.Fatal("second Remove(n1) = true, want false (already gone)")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, `node="n1"`) {
		t.Fatalf("removed series still rendered:\n%s", out)
	}
	if !strings.Contains(out, `node_lag{node="n2"} 2`) {
		t.Fatalf("surviving series lost:\n%s", out)
	}
	// A removed series can be recreated; the new series starts fresh.
	gv.With("n1").Set(7)
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `node_lag{node="n1"} 7`) {
		t.Fatalf("recreated series not rendered:\n%s", b.String())
	}
	mustPanic(t, func() { gv.Remove("n1", "extra") })
}

func TestGaugeFuncAndOnScrape(t *testing.T) {
	r := NewRegistry()
	depth := 0
	r.GaugeFunc("queue_depth", "items queued", func() float64 { return float64(depth) })
	scraped := 0
	lag := r.GaugeVec("node_lag", "", "node")
	r.OnScrape(func() {
		scraped++
		lag.With("n1").Set(float64(scraped))
	})
	depth = 42
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "queue_depth 42") {
		t.Fatalf("gauge func not rendered:\n%s", out)
	}
	if scraped != 1 || !strings.Contains(out, `node_lag{node="n1"} 1`) {
		t.Fatalf("OnScrape not applied (scraped=%d):\n%s", scraped, out)
	}
}

func TestRegistryPanicsOnSchemaMismatch(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	mustPanic(t, func() { r.Gauge("x_total", "") })
	r.CounterVec("y_total", "", "a")
	mustPanic(t, func() { r.CounterVec("y_total", "", "b") })
	mustPanic(t, func() { r.Counter("bad-name", "") })
	mustPanic(t, func() { r.CounterVec("z_total", "", "bad-label").With("v") })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("g", "has \"quotes\" and\nnewlines", "node").With(`a"b\c` + "\nd").Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := LintString(b.String()); err != nil {
		t.Fatalf("escaped exposition fails lint: %v\n%s", err, b.String())
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",                    // empty exposition
		"1metric 3\n",         // bad metric name
		"metric\n",            // no value
		"metric notanumber\n", // bad value
		"metric{l=x} 3\n",     // unquoted label value
		"metric{l=\"v\" 3\n",  // unterminated label block
		"# TYPE m wat\nm 1\n", // unknown type
		"# TYPE m counter\n# TYPE m gauge\nm 1\n", // duplicate TYPE
		"metric{bad-label=\"v\"} 1\n",             // bad label name
	} {
		if err := LintString(bad); err == nil {
			t.Errorf("Lint accepted malformed exposition %q", bad)
		}
	}
	good := "# ordinary comment\n# HELP m help text\n# TYPE m counter\nm 1\n" +
		"h_bucket{le=\"+Inf\"} 2\nh_sum 3.5\nh_count 2\nnan_gauge NaN\nts_metric 1 1700000000000\n"
	if err := LintString(good); err != nil {
		t.Errorf("Lint rejected well-formed exposition: %v", err)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Inc()
	var readyErr error
	srv := httptest.NewServer(Handler(r, func() error { return readyErr }))
	defer srv.Close()

	body, code := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "hits_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if err := LintString(body); err != nil {
		t.Fatalf("/metrics fails lint: %v", err)
	}

	if body, code = get(t, srv.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	readyErr = io.ErrUnexpectedEOF
	if _, code = get(t, srv.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with failing ready = %d, want 503", code)
	}

	if _, code = get(t, srv.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if _, code = get(t, srv.URL+"/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope status %d, want 404", code)
	}
}

func get(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	if n := len(LatencyBuckets()); n != 25 {
		t.Fatalf("LatencyBuckets has %d bounds", n)
	}
	mustPanic(t, func() { ExpBuckets(0, 2, 3) })
	mustPanic(t, func() { newHistogram([]float64{2, 1}) })
}
