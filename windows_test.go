package csoutlier

import (
	"math"
	"testing"

	"csoutlier/internal/xrand"
)

func windowFixture(t *testing.T) (*Sketcher, []string) {
	t.Helper()
	keys := testKeys(120)
	sk, err := NewSketcher(keys, Config{M: 60, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	return sk, keys
}

// addPairs folds the sketch of pairs into ws's open window.
func addPairs(t *testing.T, ws *WindowStore, pairs map[string]float64) {
	t.Helper()
	d, err := ws.sk.SketchPairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.AddSketch(0, d); err != nil {
		t.Fatal(err)
	}
}

func TestWindowStoreBasics(t *testing.T) {
	sk, keys := windowFixture(t)
	ws, err := sk.NewWindowStore(4)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Windows() != 4 || ws.Available() != 1 {
		t.Fatalf("windows %d available %d", ws.Windows(), ws.Available())
	}
	if _, err := sk.NewWindowStore(0); err == nil {
		t.Fatal("0 windows accepted")
	}

	addPairs(t, ws, map[string]float64{keys[3]: 7})
	cur, err := ws.Window(0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sk.SketchPairs(map[string]float64{keys[3]: 7})
	for i := range cur.Y {
		if math.Abs(cur.Y[i]-want.Y[i]) > 1e-12 {
			t.Fatal("window sketch != direct sketch")
		}
	}
}

func TestWindowStoreRotateAndHistory(t *testing.T) {
	sk, keys := windowFixture(t)
	ws, err := sk.NewWindowStore(3)
	if err != nil {
		t.Fatal(err)
	}
	// Window A: key0. Window B: key1. Window C (current): key2.
	addPairs(t, ws, map[string]float64{keys[0]: 1})
	ws.Rotate()
	addPairs(t, ws, map[string]float64{keys[1]: 2})
	ws.Rotate()
	addPairs(t, ws, map[string]float64{keys[2]: 3})
	if ws.Available() != 3 {
		t.Fatalf("available %d", ws.Available())
	}
	for age, wantPairs := range []map[string]float64{
		{keys[2]: 3}, {keys[1]: 2}, {keys[0]: 1},
	} {
		got, err := ws.Window(age)
		if err != nil {
			t.Fatalf("age %d: %v", age, err)
		}
		want, _ := sk.SketchPairs(wantPairs)
		for i := range got.Y {
			if math.Abs(got.Y[i]-want.Y[i]) > 1e-12 {
				t.Fatalf("age %d sketch mismatch", age)
			}
		}
	}
	if _, err := ws.Window(3); err == nil {
		t.Fatal("age beyond history accepted")
	}
	if _, err := ws.Window(-1); err == nil {
		t.Fatal("negative age accepted")
	}
}

func TestWindowStoreRangeEqualsConcatenation(t *testing.T) {
	sk, keys := windowFixture(t)
	ws, _ := sk.NewWindowStore(4)
	all := map[string]float64{}
	add := func(k string, v float64) {
		addPairs(t, ws, map[string]float64{k: v})
		all[k] += v
	}
	add(keys[0], 5)
	ws.Rotate()
	add(keys[1], -2)
	add(keys[0], 1)
	ws.Rotate()
	add(keys[2], 9)

	span, err := ws.Range(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sk.SketchPairs(all)
	for i := range span.Y {
		if math.Abs(span.Y[i]-want.Y[i]) > 1e-9 {
			t.Fatal("range sketch != sketch of concatenated data")
		}
	}
	// Sub-range excludes the open window.
	sub, err := ws.Range(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantSub, _ := sk.SketchPairs(map[string]float64{keys[0]: 6, keys[1]: -2})
	for i := range sub.Y {
		if math.Abs(sub.Y[i]-wantSub.Y[i]) > 1e-9 {
			t.Fatal("sub-range mismatch")
		}
	}
	if _, err := ws.Range(2, 1); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := ws.Range(0, 9); err == nil {
		t.Fatal("range beyond history accepted")
	}
}

// TestWindowStoreRestoreRotations restores a store from its windows and
// rotates both: the restored ring evolves exactly as the original.
func TestWindowStoreRestoreRotations(t *testing.T) {
	sk, keys := windowFixture(t)
	ws, _ := sk.NewWindowStore(3)
	for i := 0; i < 5; i++ {
		addPairs(t, ws, map[string]float64{keys[i]: float64(i + 1)})
		ws.Rotate()
	}
	windows := func(ws *WindowStore) []Sketch {
		var out []Sketch
		for age := ws.Available() - 1; age >= 0; age-- {
			w, err := ws.Window(age)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, w)
		}
		return out
	}
	restored, _ := sk.NewWindowStore(3)
	if err := restored.RestoreWindows(windows(ws)); err != nil {
		t.Fatalf("RestoreWindows: %v", err)
	}
	for _, s := range []*WindowStore{ws, restored} {
		addPairs(t, s, map[string]float64{keys[9]: 9})
		s.Rotate()
	}
	want, got := windows(ws), windows(restored)
	if len(got) != len(want) {
		t.Fatalf("restored store holds %d windows after a rotation, want %d", len(got), len(want))
	}
	for i := range want {
		if !bitsEqual(got[i].Y, want[i].Y) {
			t.Fatalf("window %d (oldest first) differs after restore and rotation", i)
		}
	}
	if err := restored.RestoreWindows(append(windows(ws), want[0])); err == nil {
		t.Fatal("restore of more windows than the ring holds accepted")
	}
}

func TestWindowStoreEviction(t *testing.T) {
	sk, keys := windowFixture(t)
	ws, _ := sk.NewWindowStore(2)
	addPairs(t, ws, map[string]float64{keys[0]: 100})
	ws.Rotate() // history: [empty(current), key0]
	ws.Rotate() // key0 evicted
	cur, err := ws.Window(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cur.Y {
		if v != 0 {
			t.Fatal("evicted window left residue")
		}
	}
}

func TestWindowStoreDetection(t *testing.T) {
	// End to end: an anomaly only present in an old window is visible in
	// the wide range query but not in the recent one.
	sk, keys := windowFixture(t)
	ws, _ := sk.NewWindowStore(3)
	base := map[string]float64{}
	for _, k := range keys {
		base[k] = 50
	}
	addPairs(t, ws, base)
	addPairs(t, ws, map[string]float64{keys[7]: 5000}) // anomaly in window A
	ws.Rotate()
	addPairs(t, ws, base) // quiet window B

	wide, err := ws.Range(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sk.Detect(wide, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outliers) == 0 || rep.Outliers[0].Key != keys[7] {
		t.Fatalf("wide query missed the anomaly: %v", rep.Outliers)
	}
	recent, err := ws.Window(0)
	if err != nil {
		t.Fatal(err)
	}
	repRecent, err := sk.Detect(recent, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(repRecent.Outliers) > 0 && repRecent.Outliers[0].Key == keys[7] &&
		math.Abs(repRecent.Outliers[0].Value-5050) < 1 {
		t.Fatal("recent-window query sees the old anomaly")
	}
}

// TestCountSketchWindowsExactInAnyOrder: with ±1 entries a count-sketch
// sums integer observations into integer counters exactly, so folding
// the same integer pairs frames in any order gives the same window, bit
// for bit, and every counter is an integer (the sketch codec's integer
// form).
func TestCountSketchWindowsExactInAnyOrder(t *testing.T) {
	keys := testKeys(500)
	sk, err := NewSketcher(keys, Config{M: 63, Seed: 5, Ensemble: CountSketch, Depth: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	var frames [][]byte
	for f := 0; f < 24; f++ {
		u := sk.NewUpdater()
		for o := 0; o < 1+rng.Intn(12); o++ {
			v := float64(rng.Intn(2001) - 1000)
			if o == 0 {
				v *= 1 << 30 // large enough that a float sum would round
			}
			if err := u.Observe(keys[rng.Intn(len(keys))], v); err != nil {
				t.Fatal(err)
			}
		}
		frame, _, err := u.DrainEncoded(nil)
		if err != nil || !PairsEncoded(frame) {
			t.Fatalf("frame %d: pairs %v, err %v", f, PairsEncoded(frame), err)
		}
		frames = append(frames, frame)
	}
	var first Sketch
	for trial := 0; trial < 8; trial++ {
		ws, err := sk.NewWindowStore(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rng.Perm(len(frames)) {
			if err := foldEncoded(ws, 0, frames[i]); err != nil {
				t.Fatal(err)
			}
		}
		w, _ := ws.Window(0)
		if trial == 0 {
			first = w
			if !intCounters(w.Y) {
				t.Fatalf("window holds a non-integer counter: %v", w.Y)
			}
			continue
		}
		if !bitsEqual(w.Y, first.Y) {
			t.Fatalf("order %d folds to another window", trial)
		}
	}
}
