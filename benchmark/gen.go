package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"csoutlier"
)

// Every input of the benchmark is made here from the run's seed; the
// program under test only ever sees the generated keys, observations and
// deltas. All values are integer-valued float64s, so exact sums do not
// depend on the order leaves and relays happen to fold them in.

// newRNG derives an independent stream per (seed, purpose).
func newRNG(seed uint64, salt uint64) *rand.Rand {
	z := seed + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

// plainKeys returns n keys whose sorted order is their index order, so a
// key's index in the script is its position in the Sketcher's dictionary.
func plainKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%07d", i)
	}
	return keys
}

// clickLogKeys returns n sorted keys shaped like the paper's GROUP BY
// (date, market, vertical, data center, url bucket).
func clickLogKeys(n int, rng *rand.Rand) []string {
	markets := []string{"de-DE", "en-GB", "en-US", "fr-FR", "ja-JP", "pt-BR", "zh-CN"}
	verticals := []string{"ads", "images", "news", "video", "web"}
	seen := make(map[string]bool, n)
	keys := make([]string, 0, n)
	for len(keys) < n {
		k := fmt.Sprintf("2015-05-31|%s|%s|dc%d|url%06d",
			markets[rng.Intn(len(markets))], verticals[rng.Intn(len(verticals))], rng.Intn(8), rng.Intn(1000000))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// plant picks s distinct positions in [0, n) and gives each a deviation
// from the mode off a ladder.
func plant(n, s int, lo, step float64, rng *rand.Rand) (pos []int, dev []float64) {
	pos = rng.Perm(n)[:s]
	sort.Ints(pos)
	return pos, ladder(s, lo, step, rng)
}

// ladder returns s deviations of magnitude lo, lo+step, ... in shuffled
// order with random signs. The ladder keeps every pair of outliers at
// least step apart, so the exact top-k has no near-ties for rounding to
// reorder.
func ladder(s int, lo, step float64, rng *rand.Rand) []float64 {
	dev := make([]float64, s)
	for r, j := range rng.Perm(s) {
		d := lo + float64(r)*step
		if rng.Intn(2) == 0 {
			d = -d
		}
		dev[j] = d
	}
	return dev
}

// zipfIndex draws hot-key indices with exponent 1.1 over [0, n).
func zipfIndex(n int, rng *rand.Rand) func() int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// observation is one (key index, delta) step of a script.
type observation struct {
	key int32
	val float64
}

// nextChunk splits off the next n observations of a script.
func nextChunk(list []observation, n int) (chunk, rest []observation) {
	if len(list) > n {
		return list[:n], list[n:]
	}
	return list, nil
}

// oracle is the exact answer to one span query.
type oracle struct {
	top  []string // exact top-k keys, furthest from the mode first
	mode float64
}

// exactOracle answers the k-outlier query on the uncompressed vector x
// (x[i] belongs to keys[i]). Majority-dominated data goes through the
// library's own transmit-ALL reference, csoutlier.ExactOutliers; jittered
// data has no majority value, so its mode is the median and the ranking
// is by distance from it — the paper's "concentrates around b" reading.
func exactOracle(keys []string, x []float64, k int, jittered bool) oracle {
	if !jittered {
		pairs := make(map[string]float64, len(x))
		for i, v := range x {
			pairs[keys[i]] = v
		}
		out, mode := csoutlier.ExactOutliers(pairs, k)
		o := oracle{mode: mode}
		for _, kv := range out {
			o.top = append(o.top, kv.Key)
		}
		return o
	}
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	mode := sorted[len(sorted)/2]
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		da, db := math.Abs(x[idx[a]]-mode), math.Abs(x[idx[b]]-mode)
		if da != db {
			return da > db
		}
		return idx[a] < idx[b]
	})
	o := oracle{mode: mode}
	for _, i := range idx[:k] {
		o.top = append(o.top, keys[i])
	}
	return o
}

// fingerprint hashes generated inputs, so the determinism test can
// compare two generations without holding both.
type fingerprint struct{ h uint64 }

func newFingerprint() *fingerprint {
	return &fingerprint{h: 14695981039346656037}
}

func (f *fingerprint) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= 1099511628211
		v >>= 8
	}
}

func (f *fingerprint) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fingerprint) str(s string) {
	for i := 0; i < len(s); i++ {
		f.h ^= uint64(s[i])
		f.h *= 1099511628211
	}
}
