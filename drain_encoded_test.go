package csoutlier

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
	"csoutlier/internal/xrand"
)

// drainEnsembles is codecEnsembles plus the Gaussian that regenerates
// its columns instead of holding them (what NewSketcher picks past
// denseLimit), under the same consensus identity.
func drainEnsembles(t *testing.T, seed uint64) map[string]*Sketcher {
	t.Helper()
	out := codecEnsembles(t, seed)
	sk, err := NewSketcher(testKeys(64), Config{M: 24, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := sensing.NewSeeded(sk.spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	sk.matrix = seeded
	out["gaussian-regenerated"] = sk
	return out
}

type obsPair struct {
	idx int
	v   float64
}

// randomObservations draws n observations with repeated keys and values
// across forty binades, so no order of summation is exact by accident.
func randomObservations(rng *xrand.RNG, keys, n int) []obsPair {
	out := make([]obsPair, n)
	for i := range out {
		out[i] = obsPair{rng.Intn(keys), math.Ldexp(rng.Float64()-0.5, int(rng.Uint64()%40)-20)}
		if out[i].v == 0 {
			out[i].v = 1
		}
	}
	return out
}

// observedSketch is the parent commit's Updater, written out: y starts
// at zero and takes one AddScaled of a freshly fetched column per
// observation, in order.
func observedSketch(sk *Sketcher, obs []obsPair) Sketch {
	s := sk.ZeroSketch()
	col := make(linalg.Vector, sk.M())
	for _, o := range obs {
		col = sk.matrix.Col(o.idx, col)
		linalg.Vector(s.Y).AddScaled(o.v, col)
	}
	return s
}

// crossoverCount is the first observation count whose pairs payload is
// no smaller than the sketch, for key indices below 128 and counts
// below 128: 1 + 9·count ≥ 8·M.
func crossoverCount(m int) int { return (8*m - 1 + 8) / 9 }

// TestDrainEncodedBitIdentical: on every ensemble and on both sides of
// the size crossover, a window that folds what DrainEncoded returned
// holds the bits it would hold had the parent commit's node observed,
// drained, encoded and shipped a sketch; reads in between see those bits
// too and leave the log alone; at and past the crossover the bytes
// themselves are the parent's.
func TestDrainEncodedBitIdentical(t *testing.T) {
	for name, sk := range drainEnsembles(t, 9) {
		keys := sk.Keys()
		cross := crossoverCount(sk.M())
		rng := xrand.New(31)
		base := sk.ZeroSketch()
		for i := range base.Y {
			base.Y[i] = math.Ldexp(rng.Float64()-0.5, 12)
		}
		u := sk.NewUpdater() // one updater through every count: a drain must leave nothing behind
		buf := make([]byte, 0, EncodedSketchLen(sk.M()))
		into := sk.ZeroSketch()
		for _, count := range []int{0, 1, cross - 1, cross, cross + 1, 4 * cross} {
			obs := randomObservations(rng, len(keys), count)
			for i, o := range obs {
				if err := u.Observe(keys[o.idx], o.v); err != nil {
					t.Fatal(err)
				}
				if i%5 == 2 {
					want := observedSketch(sk, obs[:i+1])
					if got := u.Sketch(); !bitsEqual(got.Y, want.Y) {
						t.Fatalf("%s count %d: Sketch() after %d observations differs from the observed sketch", name, count, i+1)
					}
					if err := u.SketchInto(into); err != nil || !bitsEqual(into.Y, want.Y) {
						t.Fatalf("%s count %d: SketchInto after %d observations: %v", name, count, i+1, err)
					}
				}
			}
			want := observedSketch(sk, obs)
			wantBytes, _ := want.MarshalBinary()
			if got := u.Updates(); got != int64(count) {
				t.Fatalf("%s count %d: Updates() = %d", name, count, got)
			}

			payload, n, err := u.DrainEncoded(buf[:0])
			if err != nil || n != int64(count) {
				t.Fatalf("%s count %d: DrainEncoded drained %d, %v", name, count, n, err)
			}
			switch {
			case count == 0:
				if len(payload) != 0 {
					t.Fatalf("%s: an empty drain encoded %d bytes", name, len(payload))
				}
				continue
			case count < cross:
				if !PairsEncoded(payload) || len(payload) >= len(wantBytes) {
					t.Fatalf("%s count %d: %d-byte payload (pairs=%v), want pairs under the sketch's %d bytes",
						name, count, len(payload), PairsEncoded(payload), len(wantBytes))
				}
			default:
				if !bytes.Equal(payload, wantBytes) {
					t.Fatalf("%s count %d: at or past the crossover the payload is not the parent's sketch frame", name, count)
				}
			}

			folded, _ := sk.NewWindowStore(1)
			parent, _ := sk.NewWindowStore(1)
			for _, ws := range []*WindowStore{folded, parent} {
				if err := ws.AddSketch(0, base); err != nil {
					t.Fatal(err)
				}
			}
			if err := foldEncoded(folded, 0, payload); err != nil {
				t.Fatalf("%s count %d: fold: %v", name, count, err)
			}
			if err := foldEncoded(parent, 0, wantBytes); err != nil {
				t.Fatal(err)
			}
			got, _ := folded.Window(0)
			ref, _ := parent.Window(0)
			if !bitsEqual(got.Y, ref.Y) {
				t.Fatalf("%s count %d: window folded from DrainEncoded differs from the parent path's", name, count)
			}
			if err := sk.UnmarshalSketchInto(payload, into); err != nil || !bitsEqual(into.Y, want.Y) {
				t.Fatalf("%s count %d: UnmarshalSketchInto of the drained payload: %v", name, count, err)
			}
			if _, err := DecodeSketch(payload); (err == nil) != (count >= cross) {
				t.Fatalf("%s count %d: DecodeSketch without a Sketcher: %v", name, count, err)
			}

			// DrainInto is the same sketch, whichever regime it found.
			for _, o := range obs {
				u.Observe(keys[o.idx], o.v)
			}
			if n, err := u.DrainInto(into); err != nil || n != int64(count) || !bitsEqual(into.Y, want.Y) {
				t.Fatalf("%s count %d: DrainInto drained %d, %v, or differs from the observed sketch", name, count, n, err)
			}
		}
		if u.Updates() != 0 || !bitsEqual(u.Sketch().Y, sk.ZeroSketch().Y) {
			t.Fatalf("%s: drained updater is not empty", name)
		}

		// ObserveBatch closes the log: its sum lands on what was observed
		// singly before it, as it did when every observation was measured
		// on arrival.
		obs := randomObservations(rng, len(keys), 3)
		batch := map[string]float64{keys[5]: 2.5, keys[40]: -0.125}
		for _, o := range obs {
			u.Observe(keys[o.idx], o.v)
		}
		if err := u.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
		want := observedSketch(sk, obs)
		sum, _ := sk.SketchPairs(batch)
		want.Add(sum)
		payload, n, err := u.DrainEncoded(buf[:0])
		if err != nil || n != 5 || PairsEncoded(payload) {
			t.Fatalf("%s: drain after ObserveBatch: n=%d pairs=%v %v", name, n, PairsEncoded(payload), err)
		}
		if err := sk.UnmarshalSketchInto(payload, into); err != nil || !bitsEqual(into.Y, want.Y) {
			t.Fatalf("%s: singles then a batch differ from the parent's sum: %v", name, err)
		}
	}
}

// TestDrainEncodedBitIdenticalConcurrent: writers and a drainer share one Updater.
// Every sum here is exact (±½ entries, integer deltas), so whatever
// order the observations landed in and however the drains cut them up
// — pairs, sketches, a log closing under a writer's feet — the folded
// window must equal the sketch of everything observed, to the bit. Run
// under -race.
func TestDrainEncodedBitIdenticalConcurrent(t *testing.T) {
	sk, err := NewSketcher(testKeys(64), Config{M: 24, Seed: 9, Ensemble: CountSketch, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	keys := sk.Keys()
	cross := crossoverCount(sk.M())
	u := sk.NewUpdater()
	ws, _ := sk.NewWindowStore(1)
	buf := make([]byte, 0, EncodedSketchLen(sk.M()))
	var drained int64
	drain := func() (pairs bool) {
		payload, n, err := u.DrainEncoded(buf[:0])
		if err != nil {
			t.Error(err)
		}
		drained += n
		if n > 0 {
			if err := foldEncoded(ws, 0, payload); err != nil {
				t.Error(err)
			}
		}
		return PairsEncoded(payload)
	}
	total := make([]float64, len(keys))
	var totalMu sync.Mutex
	observed := 0
	burst := func(each int, whileWriting func()) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := xrand.New(uint64(1000*each + w))
				local := make([]float64, len(keys))
				for i := 0; i < each; i++ {
					idx, v := rng.Intn(len(keys)), float64(1+rng.Intn(9))
					if rng.Intn(2) == 0 {
						v = -v
					}
					if err := u.Observe(keys[idx], v); err != nil {
						t.Error(err)
					}
					local[idx] += v
				}
				totalMu.Lock()
				for i, v := range local {
					total[i] += v
				}
				totalMu.Unlock()
			}(w)
		}
		if whileWriting != nil {
			whileWriting()
		}
		wg.Wait()
		observed += writers * each
	}

	// Fewer observations than the crossover, all in flight at once: pairs.
	burst((cross-1)/writers, nil)
	if !drain() {
		t.Fatalf("%d concurrent observations drained as a sketch, want pairs", observed)
	}
	// Several crossovers' worth: some writer closed the log under the others.
	burst(cross, nil)
	if drain() {
		t.Fatalf("%d concurrent observations drained as pairs, want a sketch", writers*cross)
	}
	// And with drains, reads and a reset-free Sketch racing the writers.
	burst(400, func() {
		into := sk.ZeroSketch()
		for i := 0; i < 200; i++ {
			drain()
			u.SketchInto(into)
			u.Updates()
		}
	})
	drain()

	if drained != int64(observed) {
		t.Fatalf("drains returned %d observations, %d were made", drained, observed)
	}
	pairs := make(map[string]float64, len(keys))
	for i, v := range total {
		pairs[keys[i]] = v
	}
	want, err := sk.SketchPairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ws.Window(0)
	for i := range want.Y {
		if got.Y[i] != want.Y[i] { // exact sums: -0 and +0 are the same count
			t.Fatalf("window measurement %d = %v, want %v", i, got.Y[i], want.Y[i])
		}
	}
}

// TestDrainEncodedZeroAlloc: with its log and a sketch-sized buffer in
// place, an Updater allocates nothing to log an observation, nor to
// drain either encoding.
func TestDrainEncodedZeroAlloc(t *testing.T) {
	sk, err := NewSketcher(testKeys(512), Config{M: 256, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	keys := sk.Keys()
	u := sk.NewUpdater()
	i := 0
	if n := testing.AllocsPerRun(150, func() {
		i++
		u.Observe(keys[i%len(keys)], float64(i))
	}); n != 0 {
		t.Errorf("Observe into the open log: %v allocs per call, want 0", n)
	}
	buf := make([]byte, 0, EncodedSketchLen(sk.M()))
	if payload, _, _ := u.DrainEncoded(buf[:0]); !PairsEncoded(payload) {
		t.Fatalf("151 observations at M=256 did not drain as pairs (%d bytes)", len(payload))
	}
	round := func() {
		for j := 0; j < 16; j++ {
			i++
			u.Observe(keys[i%len(keys)], float64(i))
		}
		if payload, _, _ := u.DrainEncoded(buf[:0]); !PairsEncoded(payload) {
			t.Fatal("16 observations did not drain as pairs")
		}
	}
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("16 logged observations and a DrainEncoded: %v allocs per round, want 0", n)
	}
	// Past the crossover only the drain is counted: the observations
	// before it take their column scratch from a sync.Pool, which the
	// race detector empties at random.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for j := 0; j < crossoverCount(sk.M())+40; j++ {
		i++
		u.Observe(keys[i%len(keys)], float64(i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	payload, _, _ := u.DrainEncoded(buf[:0])
	runtime.ReadMemStats(&after)
	if PairsEncoded(payload) || len(payload) != EncodedSketchLen(sk.M()) {
		t.Fatalf("past the crossover the drain is %d bytes (pairs=%v)", len(payload), PairsEncoded(payload))
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("DrainEncoded of a sketch into a sketch-sized buffer: %d allocs, want 0", n)
	}
}
