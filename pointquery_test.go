package csoutlier

import (
	"errors"
	"math"
	"testing"
)

// countSketchFixture builds a CountSketch sketcher with planted
// outliers and returns the sketcher, the keys, the aggregated sketch,
// and the planted index→value map.
func countSketchFixture(t testing.TB, n, m, depth int, mode float64, planted map[int]float64) (*Sketcher, []string, Sketch) {
	t.Helper()
	keys := testKeys(n)
	sk, err := NewSketcher(keys, Config{M: m, Seed: 51, Ensemble: CountSketch, Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	pairs := biasedPairs(keys, mode, planted)
	y, err := sk.SketchPairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	return sk, keys, y
}

func TestCountSketchEnsembleDetects(t *testing.T) {
	// Hybrid mode's span path: BOMP recovery runs on the count-sketch
	// exactly as on the other ensembles.
	const mode = 1800.0
	planted := map[int]float64{17: 9000, 99: -7000, 300: 5000}
	sk, keys, y := countSketchFixture(t, 400, 200, 5, mode, planted)
	rep, err := sk.Detect(y, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Mode-mode) > 0.02*mode {
		t.Fatalf("count-sketch ensemble mode = %v", rep.Mode)
	}
	want := map[string]bool{keys[17]: true, keys[99]: true, keys[300]: true}
	for _, o := range rep.Outliers {
		if !want[o.Key] {
			t.Fatalf("count-sketch ensemble detected wrong key %q", o.Key)
		}
	}
}

func TestPointStateEndToEnd(t *testing.T) {
	const mode = 1800.0
	planted := map[int]float64{17: 9000, 99: -7000, 300: 5000}
	sk, keys, y := countSketchFixture(t, 400, 210, 7, mode, planted)
	ps, err := sk.NewPointState()
	if err != nil {
		t.Fatal(err)
	}
	// Querying before Commit is a (static, allocation-free) error.
	if _, err := ps.Query(keys[17], 1); err == nil {
		t.Fatal("uncommitted PointState answered a query")
	}
	copy(ps.Sketch().Y, y.Y)
	ps.Commit()
	if math.Abs(ps.mode-mode) > 1e-6*mode {
		t.Fatalf("committed mode = %v, want %v", ps.mode, mode)
	}
	const threshold = 1000.0
	for idx, val := range planted {
		ans, err := ps.Query(keys[idx], threshold)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Outlier {
			t.Fatalf("planted outlier %d not flagged: %+v", idx, ans)
		}
		want := mode + val
		if math.Abs(ans.Value-want) > 1e-6*math.Abs(val) {
			t.Fatalf("outlier %d value = %v, want %v", idx, ans.Value, want)
		}
		if math.Abs(ans.Deviation()-val) > 1e-6*math.Abs(val) {
			t.Fatalf("outlier %d deviation = %v, want %v", idx, ans.Deviation(), val)
		}
	}
	// Clean keys: estimate = mode, not an outlier.
	for _, idx := range []int{0, 41, 123, 256, 399} {
		if _, hot := planted[idx]; hot {
			continue
		}
		ans, err := ps.Query(keys[idx], threshold)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Outlier || math.Abs(ans.Value-mode) > 1e-6*mode {
			t.Fatalf("clean key %d misclassified: %+v", idx, ans)
		}
	}
	// Threshold ≤ 0 estimates without classifying.
	ans, err := ps.Query(keys[17], 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Outlier {
		t.Fatalf("threshold 0 classified: %+v", ans)
	}
	if _, err := ps.Query("no-such-key", 1); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestPointStateRequiresCountSketch(t *testing.T) {
	keys := testKeys(50)
	sk, err := NewSketcher(keys, Config{M: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sk.SupportsPointQuery() {
		t.Fatal("gaussian sketcher claims point-query support")
	}
	if _, err := sk.NewPointState(); !errors.Is(err, errNoPointQuery) {
		t.Fatalf("gaussian NewPointState err = %v, want errNoPointQuery", err)
	}
	sk, err = NewSketcher(keys, Config{M: 20, Seed: 1, Ensemble: CountSketch})
	if err != nil {
		t.Fatal(err)
	}
	if !sk.SupportsPointQuery() {
		t.Fatal("count-sketch sketcher denies point-query support")
	}
}

func TestPointQueryAllocs(t *testing.T) {
	planted := map[int]float64{17: 9000, 99: -7000}
	sk, keys, y := countSketchFixture(t, 400, 200, 5, 500, planted)
	ps, err := sk.NewPointState()
	if err != nil {
		t.Fatal(err)
	}
	copy(ps.Sketch().Y, y.Y)
	if n := testing.AllocsPerRun(100, ps.Commit); n != 0 {
		t.Fatalf("Commit allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ps.Query(keys[17], 1000); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Query allocates %v per run", n)
	}
}

func TestCountSketchDepthPartOfIdentity(t *testing.T) {
	keys := testKeys(100)
	a, err := NewSketcher(keys, Config{M: 40, Seed: 1, Ensemble: CountSketch, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSketcher(keys, Config{M: 40, Seed: 1, Ensemble: CountSketch, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	ya, _ := a.SketchPairs(nil)
	yb, _ := b.SketchPairs(nil)
	if err := ya.Add(yb); err == nil {
		t.Fatal("cross-depth Add accepted")
	}
	// And through the codec: depth travels in the density field.
	data, err := yb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.UnmarshalSketch(data); err == nil {
		t.Fatal("cross-depth unmarshal accepted")
	}
	if _, err := b.UnmarshalSketch(data); err != nil {
		t.Fatalf("same-depth unmarshal failed: %v", err)
	}
}

func TestCountSketchConfigValidation(t *testing.T) {
	keys := testKeys(100)
	if _, err := NewSketcher(keys, Config{M: 40, Ensemble: CountSketch, Depth: 65}); err == nil {
		t.Fatal("depth 65 accepted")
	}
	if _, err := NewSketcher(keys, Config{M: 6, Ensemble: CountSketch, Depth: 5}); err == nil {
		t.Fatal("single-bucket rows accepted")
	}
	sk, err := NewSketcher(keys, Config{M: 40, Ensemble: CountSketch})
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.sketchID().d; got != 5 {
		t.Fatalf("default depth = %d, want 5", got)
	}
}

func TestCountSketchUpdaterAndWindowsMatchBatch(t *testing.T) {
	// The streaming surfaces on the new backend: Updater observations
	// and WindowStore folds must equal the batch sketch bit-for-bit
	// modulo float addition order (1e-12 here).
	keys := testKeys(60)
	sk, err := NewSketcher(keys, Config{M: 30, Seed: 5, Ensemble: CountSketch, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	u := sk.NewUpdater()
	if err := u.Observe(keys[7], 3); err != nil {
		t.Fatal(err)
	}
	if err := u.Observe(keys[30], -1); err != nil {
		t.Fatal(err)
	}
	want, err := sk.SketchPairs(map[string]float64{keys[7]: 3, keys[30]: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := drained(t, u)
	for i := range want.Y {
		if math.Abs(got.Y[i]-want.Y[i]) > 1e-12 {
			t.Fatal("count-sketch streamed sketch differs from batch")
		}
	}
	ws, err := sk.NewWindowStore(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.AddSketch(0, got); err != nil {
		t.Fatal(err)
	}
	win, err := ws.Window(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Y {
		if math.Abs(win.Y[i]-want.Y[i]) > 1e-12 {
			t.Fatal("count-sketch window fold differs from batch")
		}
	}
}
