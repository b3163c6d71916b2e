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

// drainEnsembles is one Sketcher per ensemble over 8,200 keys, so key
// indices reach both bands where a pair's tag varint grows (64 and
// 8,192), plus the Gaussian that regenerates its columns instead of
// holding them (what NewSketcher picks past denseLimit), under the
// same consensus identity.
func drainEnsembles(t *testing.T, seed uint64) map[string]*Sketcher {
	t.Helper()
	keys := testKeys(8200)
	out := make(map[string]*Sketcher)
	for name, cfg := range map[string]Config{
		"gaussian":             {M: 24, Seed: seed},
		"gaussian-regenerated": {M: 24, Seed: seed},
		"countsketch":          {M: 24, Seed: seed, Ensemble: CountSketch, Depth: 3},
	} {
		sk, err := NewSketcher(keys, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = sk
	}
	seeded, err := sensing.NewSeeded(out["gaussian-regenerated"].spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	out["gaussian-regenerated"].matrix = seeded
	return out
}

type obsPair struct {
	idx int
	v   float64
}

// edgeIndices are the key indices on either side of where a pair's
// tag (index<<1 | raw) takes another varint byte, 63/64 and 8191/8192,
// and of where the untagged index did, 127/128.
var edgeIndices = []int{63, 64, 127, 128, 8191, 8192}

// observationStream draws n observations over keys ≥ 8193 key indices,
// with repeated keys and a sixth of them at edgeIndices. Values by
// kind: "integer" travels as varints, counts of every magnitude up to
// ±2^53; "raw" as float64s, values across forty binades (so no order
// of summation is exact by accident), ±(2^53+2) and ±0.5; "mixed"
// draws each value from either.
func observationStream(rng *xrand.RNG, keys, n int, kind string) []obsPair {
	out := make([]obsPair, n)
	for i := range out {
		idx := rng.Intn(keys)
		if rng.Intn(6) == 0 {
			idx = edgeIndices[rng.Intn(len(edgeIndices))]
		}
		k := kind
		if k == "mixed" {
			k = [...]string{"integer", "raw"}[rng.Intn(2)]
		}
		edge := rng.Intn(8) == 0
		var v float64
		switch {
		case k == "integer" && edge:
			v = 1 << 53
		case k == "integer":
			v = float64(rng.Uint64() >> (11 + rng.Intn(53)))
		case edge:
			v = [...]float64{1<<53 + 2, 0.5}[rng.Intn(2)]
		default:
			v = math.Ldexp(rng.Float64()-0.5, int(rng.Uint64()%40)-20)
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		if v == 0 {
			v = 1
		}
		out[i] = obsPair{idx, v}
	}
	return out
}

// repeated is n copies of o.
func repeated(o obsPair, n int) []obsPair {
	out := make([]obsPair, n)
	for i := range out {
		out[i] = o
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

// crossoverCount is the first count of obs's observations whose pairs
// payload, at the lengths the encoder writes, is no smaller than the
// bound on sk's sketch its Updater closes the log at (len(obs)+1 if
// none is).
func crossoverCount(sk *Sketcher, obs []obsPair) int {
	var l pairLog
	for _, o := range obs {
		l.add(o.idx, o.v)
		if pairsLen(l.count, len(l.bytes)) >= l.limit(sk) {
			return l.count
		}
	}
	return len(obs) + 1
}

// TestDrainEncodedBitIdentical: on every ensemble, for integer,
// non-integer and mixed values, and on both sides of the size
// crossover, a window that folds what DrainEncoded returned holds the
// bits it would hold had a node that measured every observation on
// arrival drained, encoded and shipped a sketch; at and past the
// crossover the bytes themselves are that node's.
func TestDrainEncodedBitIdentical(t *testing.T) {
	for name, sk := range drainEnsembles(t, 9) {
		keys := sk.Keys()
		rng := xrand.New(31)
		base := sk.ZeroSketch()
		for i := range base.Y {
			base.Y[i] = math.Ldexp(rng.Float64()-0.5, 12)
		}
		u := sk.NewUpdater() // one updater through every count: a drain must leave nothing behind
		buf := make([]byte, 0, EncodedSketchLen(sk.M()))
		into := sk.ZeroSketch()
		for _, kind := range []string{"integer", "raw", "mixed"} {
			stream := observationStream(rng, len(keys), 16*sk.M()+64, kind)
			cross := crossoverCount(sk, stream)
			if 4*cross > len(stream) {
				t.Fatalf("%s %s: crossover at %d of %d drawn observations", name, kind, cross, len(stream))
			}
			name := name + " " + kind
			for _, count := range []int{0, 1, cross - 1, cross, cross + 1, 4 * cross} {
				obs := stream[:count]
				for _, o := range obs {
					if err := u.Observe(keys[o.idx], o.v); err != nil {
						t.Fatal(err)
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
		}
		if n, err := u.DrainInto(into); err != nil || n != 0 || !bitsEqual(into.Y, sk.ZeroSketch().Y) {
			t.Fatalf("%s: drained updater is not empty", name)
		}
	}
}

// TestDrainEncodedCountSketchBound: a count-sketch Updater of integer
// observations closes its log at a bound on its CSKI sketch, not at the
// CSK2 size, so 400 observations of 100 over 4,096 keys drain as the
// sketch (about 850 bytes, where their pairs are about 1,600) while 128
// still drain as pairs; a Gaussian Updater, whose counters are never
// integers, keeps the CSK2 size. The close is final: a non-integer
// observed after it makes the drain the CSK2 sketch (3,613 bytes),
// where the pairs would have been about 1,600 — the one case in
// which a flush costs more than the data it carries. The bound holds:
// no CSKI sketch is larger than the limit of the log that measures
// into it.
func TestDrainEncodedCountSketchBound(t *testing.T) {
	keys := testKeys(4096)
	rng := xrand.New(5)
	for _, c := range []struct {
		cfg   Config
		count int
		tail  float64 // observed last when not 0
		magic []byte  // the sketch drained, or nil for pairs
	}{
		{Config{M: 448, Seed: 1, Ensemble: CountSketch, Depth: 7}, 128, 0, nil},
		{Config{M: 448, Seed: 1, Ensemble: CountSketch, Depth: 7}, 400, 0, intSketchMagic[:]},
		{Config{M: 448, Seed: 1, Ensemble: CountSketch, Depth: 7}, 400, 0.5, sketchMagic[:]},
		{Config{M: 448, Seed: 1}, 400, 0, nil},
	} {
		sk, err := NewSketcher(keys, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		obs := make([]obsPair, c.count)
		for i := range obs {
			obs[i] = obsPair{rng.Intn(len(keys)), 100}
		}
		if c.tail != 0 {
			obs = append(obs, obsPair{rng.Intn(len(keys)), c.tail})
		}
		u := sk.NewUpdater()
		var l pairLog
		for _, o := range obs {
			if err := u.Observe(keys[o.idx], o.v); err != nil {
				t.Fatal(err)
			}
			l.add(o.idx, o.v)
		}
		payload, _, err := u.DrainEncoded(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := observedSketch(sk, obs).MarshalBinary()
		pairs := pairsLen(l.count, len(l.bytes))
		if c.magic == nil && (!PairsEncoded(payload) || len(payload) != pairs || pairs >= len(want)) ||
			c.magic != nil && (!bytes.Equal(payload, want) || !bytes.HasPrefix(want, c.magic)) {
			t.Fatalf("%v, %d observations then %v: drained %d bytes (pairs=%v), want %q; the sketch is %d bytes, the pairs %d",
				c.cfg.Ensemble, c.count, c.tail, len(payload), PairsEncoded(payload), c.magic, len(want), pairs)
		}
		if c.tail != 0 && (len(payload) != EncodedSketchLen(sk.M()) || pairs >= len(payload)/2) {
			t.Fatalf("%d observations then %v: drained %d bytes against %d of pairs, want the %d-byte CSK2 sketch at over twice the pairs",
				c.count, c.tail, len(payload), pairs, EncodedSketchLen(sk.M()))
		}
	}

	sk, err := NewSketcher(keys, Config{M: 448, Seed: 1, Ensemble: CountSketch, Depth: 7})
	if err != nil {
		t.Fatal(err)
	}
	var l pairLog
	s := sk.ZeroSketch()
	for i := 0; i < 2000; i++ {
		// Few keys, so counters grow toward Σ|v|.
		idx, v := rng.Intn(8), float64(rng.Intn(1<<uint(rng.Intn(20)))+1)
		if rng.Intn(4) == 0 {
			v = -v
		}
		l.add(idx, v)
		sk.matrix.AddCol(idx, v, s.Y)
		data, _ := s.MarshalBinary()
		if limit := l.limit(sk); len(data) > limit {
			t.Fatalf("after %d observations the sketch is %d bytes, over the log's limit %d", l.count, len(data), limit)
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
	cross := crossoverCount(sk, repeated(obsPair{len(keys) - 1, -9}, 8*sk.M())) // every pair below is two bytes
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
	// And with drains and reads racing the writers.
	burst(400, func() {
		for i := 0; i < 200; i++ {
			drain()
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
	for j := 0; u.logging || j < 40; j++ { // at least to the crossover
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

// TestObserveMeasuredZeroAlloc pins Observe past the size crossover,
// where each observation is measured into the sketch on arrival: one
// AddCol into the standing sketch under the updater's mutex, which
// allocates nothing for either ensemble, with the GC running.
func TestObserveMeasuredZeroAlloc(t *testing.T) {
	for _, cfg := range []Config{{M: 256, Seed: 9}, {M: 252, Seed: 9, Ensemble: CountSketch, Depth: 7}} {
		sk, err := NewSketcher(testKeys(512), cfg)
		if err != nil {
			t.Fatal(err)
		}
		keys := sk.Keys()
		u := sk.NewUpdater()
		i := 0
		observe := func() {
			i++
			if err := u.Observe(keys[i%len(keys)], float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for u.logging {
			observe()
		}
		if n := testing.AllocsPerRun(200, observe); n != 0 {
			t.Errorf("%v Observe past the crossover: %v allocs per call, want 0", cfg.Ensemble, n)
		}
	}
}
