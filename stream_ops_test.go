package csoutlier

import (
	"math"
	"sync"
	"testing"
)

// The allocation-free streaming variants: DrainInto on Updater,
// RangeInto/AddSketch on WindowStore.

func TestUpdaterDrainInto(t *testing.T) {
	sk, keys := windowFixture(t)
	u := sk.NewUpdater()
	if err := u.Observe(keys[0], 3); err != nil {
		t.Fatal(err)
	}
	if err := u.Observe(keys[5], -2); err != nil {
		t.Fatal(err)
	}

	want := sk.ZeroSketch()
	n, err := u.DrainInto(want)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("drained %d updates, want 2", n)
	}
	first, _ := sk.SketchPairs(map[string]float64{keys[0]: 3, keys[5]: -2})
	for i := range want.Y {
		if math.Abs(want.Y[i]-first.Y[i]) > 1e-9 {
			t.Fatal("DrainInto snapshot != the sketch of what was observed")
		}
	}
	dst := sk.ZeroSketch()
	// The drain reset the updater: a second drain is empty.
	n, err = u.DrainInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("second drain returned %d updates, want 0", n)
	}
	for _, v := range dst.Y {
		if v != 0 {
			t.Fatal("second drain not empty")
		}
	}
	// Successive drains partition the stream: drain1 + drain2 = total.
	if err := u.Observe(keys[1], 10); err != nil {
		t.Fatal(err)
	}
	d2 := sk.ZeroSketch()
	if _, err := u.DrainInto(d2); err != nil {
		t.Fatal(err)
	}
	sum := sk.ZeroSketch()
	copy(sum.Y, want.Y)
	if err := sum.Add(d2); err != nil {
		t.Fatal(err)
	}
	direct, _ := sk.SketchPairs(map[string]float64{keys[0]: 3, keys[5]: -2, keys[1]: 10})
	for i := range sum.Y {
		if math.Abs(sum.Y[i]-direct.Y[i]) > 1e-9 {
			t.Fatal("drain partitions do not sum to the full stream")
		}
	}

	// A foreign-consensus destination is refused.
	other, err := NewSketcher(testKeys(120), Config{M: 60, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.DrainInto(other.ZeroSketch()); err == nil {
		t.Fatal("DrainInto accepted a mismatched destination")
	}
}

func TestWindowStoreIntoVariantsAndAddSketch(t *testing.T) {
	sk, keys := windowFixture(t)
	ws, _ := sk.NewWindowStore(3)
	observe := func(key string, v float64) {
		t.Helper()
		d, err := sk.SketchPairs(map[string]float64{key: v})
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.AddSketch(0, d); err != nil {
			t.Fatal(err)
		}
	}
	observe(keys[0], 4)
	ws.Rotate()
	observe(keys[1], 6)

	dst := sk.ZeroSketch()
	dst.Y[0] = 999 // must be overwritten, not accumulated into
	if err := ws.RangeInto(0, 1, dst); err != nil {
		t.Fatal(err)
	}
	wantSpan, err := ws.Range(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dst.Y {
		if dst.Y[i] != wantSpan.Y[i] {
			t.Fatal("RangeInto != Range")
		}
	}
	if err := ws.RangeInto(1, 0, dst); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := ws.Window(5); err == nil {
		t.Fatal("age beyond history accepted")
	}

	// AddSketch folds a remote delta exactly like local observation.
	delta, err := sk.SketchPairs(map[string]float64{keys[2]: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.AddSketch(1, delta); err != nil {
		t.Fatal(err)
	}
	got, err := ws.Window(1)
	if err != nil {
		t.Fatal(err)
	}
	wantOld, _ := sk.SketchPairs(map[string]float64{keys[0]: 4, keys[2]: 11})
	for i := range got.Y {
		if math.Abs(got.Y[i]-wantOld.Y[i]) > 1e-9 {
			t.Fatal("AddSketch fold != direct observation")
		}
	}
	if err := ws.AddSketch(7, delta); err == nil {
		t.Fatal("AddSketch beyond history accepted")
	}
	other, err := NewSketcher(testKeys(120), Config{M: 60, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	foreign := other.ZeroSketch()
	if err := ws.AddSketch(0, foreign); err == nil {
		t.Fatal("AddSketch accepted a mismatched sketch")
	}
	if err := ws.RangeInto(0, 0, foreign); err == nil {
		t.Fatal("RangeInto accepted a mismatched destination")
	}
}

// TestWindowStoreConcurrentStress hammers one WindowStore with
// concurrent AddSketch writers, Rotate, and Range/Window readers — the
// aggregator's exact concurrency shape. Run under -race (it is in the
// tier-1 race list) it checks the ring is never read or written
// unguarded; numerically it checks conservation: with a ring large
// enough that nothing is evicted, the full-span sum must equal the
// sketch of everything observed.
func TestWindowStoreConcurrentStress(t *testing.T) {
	sk, keys := windowFixture(t)
	const rotations = 8
	ws, err := sk.NewWindowStore(rotations + 1) // nothing evicted
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 200
	totals := make([]map[string]float64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		totals[w] = make(map[string]float64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := keys[(w*37+i)%len(keys)]
				k2 := keys[(w*37+i+1)%len(keys)]
				v := float64((i%13)+1) * 0.5
				d, err := sk.SketchPairs(map[string]float64{k: v, k2: -v / 2})
				if err != nil {
					t.Errorf("delta: %v", err)
					return
				}
				if err := ws.AddSketch(0, d); err != nil {
					t.Errorf("addsketch: %v", err)
					return
				}
				totals[w][k] += v
				totals[w][k2] -= v / 2
			}
		}(w)
	}
	// Concurrent rotations and readers race the writers; their results
	// are unchecked (any snapshot is valid mid-stream), they just have to
	// be memory-safe.
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst := sk.ZeroSketch()
		for r := 0; r < rotations; r++ {
			ws.Rotate()
			if ws.Available() > 1 {
				if err := ws.RangeInto(0, ws.Available()-1, dst); err != nil {
					t.Errorf("range: %v", err)
				}
				if _, err := ws.Window(0); err != nil {
					t.Errorf("window: %v", err)
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	all := make(map[string]float64)
	for _, m := range totals {
		for k, v := range m {
			all[k] += v
		}
	}
	span, err := ws.Range(0, ws.Available()-1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sk.SketchPairs(all)
	if err != nil {
		t.Fatal(err)
	}
	for i := range span.Y {
		if math.Abs(span.Y[i]-want.Y[i]) > 1e-6*math.Max(1, math.Abs(want.Y[i])) {
			t.Fatalf("conservation violated at Y[%d]: %v vs %v", i, span.Y[i], want.Y[i])
		}
	}
}

// TestUpdaterConcurrentDrain checks DrainInto's partition guarantee
// under concurrency: writers observe while a drainer repeatedly drains;
// the drained deltas plus the final drain must sum to everything
// observed — no observation lost between a snapshot and its reset.
func TestUpdaterConcurrentDrain(t *testing.T) {
	sk, keys := windowFixture(t)
	u := sk.NewUpdater()
	const writers = 4
	const perWriter = 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := u.Observe(keys[(w*29+i)%len(keys)], 1); err != nil {
					t.Errorf("observe: %v", err)
					return
				}
			}
		}(w)
	}
	sum := sk.ZeroSketch()
	var drained int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		d := sk.ZeroSketch()
		for i := 0; i < 50; i++ {
			n, err := u.DrainInto(d)
			if err != nil {
				t.Errorf("drain: %v", err)
				return
			}
			drained += n
			sum.Add(d)
		}
	}()
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}
	d := sk.ZeroSketch()
	n, err := u.DrainInto(d)
	if err != nil {
		t.Fatal(err)
	}
	drained += n
	sum.Add(d)
	if want := int64(writers * perWriter); drained != want {
		t.Fatalf("drained %d observations, want %d", drained, want)
	}
	all := make(map[string]float64)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			all[keys[(w*29+i)%len(keys)]]++
		}
	}
	want, err := sk.SketchPairs(all)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sum.Y {
		if math.Abs(sum.Y[i]-want.Y[i]) > 1e-6*math.Max(1, math.Abs(want.Y[i])) {
			t.Fatalf("drain partitions lost data at Y[%d]: %v vs %v", i, sum.Y[i], want.Y[i])
		}
	}
}
