package csoutlier

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"csoutlier/internal/obs"
)

// testKeys returns n distinct keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("market-%04d", i)
	}
	return keys
}

// biasedPairs builds pairs concentrated at mode with planted outliers.
func biasedPairs(keys []string, mode float64, outliers map[int]float64) map[string]float64 {
	pairs := make(map[string]float64, len(keys))
	for i, k := range keys {
		if d, ok := outliers[i]; ok {
			pairs[k] = mode + d
		} else {
			pairs[k] = mode
		}
	}
	return pairs
}

func TestNewSketcherValidation(t *testing.T) {
	if _, err := NewSketcher(nil, Config{M: 4}); err == nil {
		t.Fatal("empty keys accepted")
	}
	if _, err := NewSketcher(testKeys(10), Config{M: 0}); err == nil {
		t.Fatal("M=0 accepted")
	}
	if _, err := NewSketcher(testKeys(10), Config{M: 11}); err == nil {
		t.Fatal("M>N accepted")
	}
	if _, err := NewSketcher([]string{"a", "a", "b"}, Config{M: 2}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

func TestEndToEndDetection(t *testing.T) {
	keys := testKeys(300)
	s, err := NewSketcher(keys, Config{M: 120, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 300 || s.M() != 120 {
		t.Fatalf("dims %d %d", s.N(), s.M())
	}
	if r := s.CompressionRatio(); math.Abs(r-0.4) > 1e-12 {
		t.Fatalf("compression ratio %v", r)
	}

	const mode = 1800.0
	planted := map[int]float64{17: 4000, 63: -3500, 150: 2500, 201: -2000, 299: 1500}
	pairs := biasedPairs(keys, mode, planted)

	// Split across three "nodes": each node holds a random share.
	nodeA := map[string]float64{}
	nodeB := map[string]float64{}
	nodeC := map[string]float64{}
	for i, k := range keys {
		v := pairs[k]
		a := v * 0.3
		b := v*0.5 + float64(i%7) // node-local clutter...
		c := v - a - b            // ...cancelled exactly by construction
		nodeA[k], nodeB[k], nodeC[k] = a, b, c
	}
	ya, err := s.SketchPairs(nodeA)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := s.SketchPairs(nodeB)
	if err != nil {
		t.Fatal(err)
	}
	yc, err := s.SketchPairs(nodeC)
	if err != nil {
		t.Fatal(err)
	}
	global := s.ZeroSketch()
	for _, y := range []Sketch{ya, yb, yc} {
		if err := global.Add(y); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Detect(global, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Mode-mode) > 1 {
		t.Fatalf("mode = %v, want %v", rep.Mode, mode)
	}
	wantOrder := []string{keys[17], keys[63], keys[150], keys[201], keys[299]}
	if len(rep.Outliers) != 5 {
		t.Fatalf("got %d outliers", len(rep.Outliers))
	}
	for i, o := range rep.Outliers {
		if o.Key != wantOrder[i] {
			t.Fatalf("outlier %d = %q, want %q (ordered by divergence)", i, o.Key, wantOrder[i])
		}
		if math.Abs(o.Value-pairs[o.Key]) > 1 {
			t.Fatalf("outlier %q value %v, want %v", o.Key, o.Value, pairs[o.Key])
		}
	}
}

func TestSketchPairsMatchesSketchVector(t *testing.T) {
	keys := testKeys(50)
	s, err := NewSketcher(keys, Config{M: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string]float64{keys[3]: 7, keys[40]: -2}
	y1, err := s.SketchPairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 50)
	// Canonical order is sorted; testKeys are zero-padded so already sorted.
	x[3], x[40] = 7, -2
	y2, err := s.SketchVector(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1.Y {
		if math.Abs(y1.Y[i]-y2.Y[i]) > 1e-12 {
			t.Fatal("pairs and vector sketches differ")
		}
	}
}

func TestSketchUnknownKeyRejected(t *testing.T) {
	s, err := NewSketcher(testKeys(10), Config{M: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SketchPairs(map[string]float64{"bogus": 1}); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := s.SketchVector(make([]float64, 9)); err == nil {
		t.Fatal("short vector accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := s.SketchPairs(map[string]float64{testKeys(10)[2]: bad}); err == nil {
			t.Fatalf("SketchPairs accepted %v", bad)
		}
		x := make([]float64, 10)
		x[7] = bad
		if _, err := s.SketchVector(x); err == nil {
			t.Fatalf("SketchVector accepted %v", bad)
		}
	}
}

func TestIncompatibleSketchesRejected(t *testing.T) {
	keys := testKeys(30)
	s1, _ := NewSketcher(keys, Config{M: 10, Seed: 1})
	s2, _ := NewSketcher(keys, Config{M: 10, Seed: 2})
	y1, _ := s1.SketchPairs(nil)
	y2, _ := s2.SketchPairs(nil)
	if err := y1.Add(y2); err == nil {
		t.Fatal("cross-seed Add accepted")
	}
	if _, err := s1.Detect(y2, 3); err == nil {
		t.Fatal("cross-seed Detect accepted")
	}
	if _, err := s1.Detect(y1, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	keys := testKeys(40)
	s, _ := NewSketcher(keys, Config{M: 16, Seed: 3})
	y1, _ := s.SketchPairs(map[string]float64{keys[0]: 5})
	y2, _ := s.SketchPairs(map[string]float64{keys[1]: 9})
	total := s.ZeroSketch()
	copy(total.Y, y1.Y)
	if err := total.Add(y2); err != nil {
		t.Fatal(err)
	}
	if err := total.Sub(y2); err != nil {
		t.Fatal(err)
	}
	for i := range total.Y {
		if math.Abs(total.Y[i]-y1.Y[i]) > 1e-12 {
			t.Fatal("Add/Sub did not round-trip")
		}
	}
}

func TestFromPayload(t *testing.T) {
	keys := testKeys(30)
	s, _ := NewSketcher(keys, Config{M: 10, Seed: 4})
	y, _ := s.SketchPairs(map[string]float64{keys[5]: 3})
	wire := append([]float64(nil), y.Y...) // "received from the network"
	back, err := s.fromPayload(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Add(y); err != nil {
		t.Fatal(err)
	}
	if _, err := s.fromPayload(make([]float64, 9)); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestKeysCanonicalOrderInsensitive(t *testing.T) {
	a, _ := NewSketcher([]string{"c", "a", "b"}, Config{M: 2, Seed: 9})
	b, _ := NewSketcher([]string{"a", "b", "c"}, Config{M: 2, Seed: 9})
	pa, _ := a.SketchPairs(map[string]float64{"b": 4})
	pb, _ := b.SketchPairs(map[string]float64{"b": 4})
	for i := range pa.Y {
		if pa.Y[i] != pb.Y[i] {
			t.Fatal("key order changed the sketch")
		}
	}
}

// TestDetectLargeKRecall is the end-to-end benchmark's large-k probe as
// a checked answer: N=4000, M=320, 48 planted keys on a ladder of
// deviations around mode 5000, k=16, default Config. Detect must report
// every key of the exact top-16 on every one of 8 seeded vectors. (The
// per-query solver selector this shape used to reach reported four
// fifths of them on average.)
func TestDetectLargeKRecall(t *testing.T) {
	const n, m, planted, k, vectors = 4000, 320, 48, 16, 8
	keys := testKeys(n)
	s, err := NewSketcher(keys, Config{M: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(401))
	for v := 0; v < vectors; v++ {
		outliers := make(map[int]float64, planted)
		for r, pos := range rng.Perm(n)[:planted] {
			d := 2000 + 400*float64(r)
			if rng.Intn(2) == 0 {
				d = -d
			}
			outliers[pos] = d
		}
		pairs := biasedPairs(keys, 5000, outliers)
		global, err := s.SketchPairs(pairs)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Detect(global, k)
		if err != nil {
			t.Fatal(err)
		}
		exact, _ := ExactOutliers(pairs, k)
		got := make(map[string]bool, k)
		for _, o := range rep.Outliers {
			got[o.Key] = true
		}
		for _, o := range exact {
			if !got[o.Key] {
				t.Errorf("vector %d: exact top-%d key %q (value %v) not reported", v, k, o.Key, o.Value)
			}
		}
	}
}

// TestSolverMetricsPreSeeded checks Instrument renders the
// recovery_solver_picks_total{solver="bomp"} series before any query
// runs — the exposition skips empty families, and the obscheck gate and
// the end-to-end benchmark read it by that name — and that Detect and
// DetectBatch both count into it.
func TestSolverMetricsPreSeeded(t *testing.T) {
	keys := testKeys(300)
	s, err := NewSketcher(keys, Config{M: 120, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	global, err := s.SketchPairs(biasedPairs(keys, 1800, map[int]float64{17: 4000}))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)
	scrape := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if text := scrape(); !strings.Contains(text, `recovery_solver_picks_total{solver="bomp"} 0`) {
		t.Fatalf("bomp picks series missing before first query:\n%s", text)
	}
	if _, err := s.Detect(global, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DetectBatch([]BatchQuery{{Global: global, K: 1}, {Global: global, K: 2}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape(), `recovery_solver_picks_total{solver="bomp"} 3`) {
		t.Fatal("one Detect and a two-query DetectBatch did not count 3 bomp picks")
	}
}

// TestWorkspaceSurvivesGC: a warmed Sketcher keeps its recovery
// workspace across back-to-back GCs (which empty a sync.Pool), and
// concurrent queries still get one each.
func TestWorkspaceSurvivesGC(t *testing.T) {
	keys := testKeys(300)
	s, err := NewSketcher(keys, Config{M: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	global, err := s.SketchPairs(biasedPairs(keys, 1800, map[int]float64{17: 4000}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Detect(global, 2); err != nil {
		t.Fatal(err)
	}
	held := s.workspace()
	second := s.workspace()
	if second == held {
		t.Fatal("one workspace checked out twice")
	}
	s.putWorkspace(held)
	s.putWorkspace(second)
	runtime.GC()
	runtime.GC()
	if got := s.workspace(); got != held {
		t.Fatal("the held workspace did not survive two GCs")
	}
}

func TestExactOutliers(t *testing.T) {
	pairs := map[string]float64{
		"a": 10, "b": 10, "c": 10, "d": 100, "e": -50,
	}
	out, mode := ExactOutliers(pairs, 2)
	if mode != 10 {
		t.Fatalf("mode = %v", mode)
	}
	if len(out) != 2 || out[0].Key != "d" || out[1].Key != "e" {
		t.Fatalf("outliers = %v", out)
	}
}

// Property: detection is invariant to how the data is split across
// nodes — the public-API version of the paradigm's core guarantee.
func TestDetectSplitInvarianceProperty(t *testing.T) {
	keys := testKeys(120)
	s, err := NewSketcher(keys, Config{M: 60, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	pairs := biasedPairs(keys, 100, map[int]float64{7: 900, 42: -800, 77: 700})
	whole, err := s.SketchPairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Detect(whole, 3)
	if err != nil {
		t.Fatal(err)
	}
	check := func(split uint8) bool {
		frac := float64(split%100) / 100
		a := map[string]float64{}
		b := map[string]float64{}
		for k, v := range pairs {
			a[k] = v * frac
			b[k] = v - a[k]
		}
		ya, err := s.SketchPairs(a)
		if err != nil {
			return false
		}
		yb, err := s.SketchPairs(b)
		if err != nil {
			return false
		}
		if err := ya.Add(yb); err != nil {
			return false
		}
		got, err := s.Detect(ya, 3)
		if err != nil {
			return false
		}
		if math.Abs(got.Mode-want.Mode) > 1e-6 {
			return false
		}
		for i := range want.Outliers {
			if got.Outliers[i].Key != want.Outliers[i].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
