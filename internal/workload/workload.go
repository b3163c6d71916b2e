// Package workload generates the data sets of the paper's evaluation
// (§6.1): exact majority-dominated vectors, continuous power-law
// ("sparse-like") vectors, and a production-like distributed click-log
// workload standing in for the Bing search-quality logs the paper uses
// (65 TB across 8 geo-distributed data centers) — see DESIGN.md §1 for
// the substitution argument.
//
// All generators are deterministic in their seed.
package workload

import (
	"fmt"
	"math"
	"sort"

	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/xrand"
)

// MajorityDominated returns an N-vector with exactly N−s entries equal
// to mode and s entries diverging from it by a magnitude in
// [minMag, maxMag] with random sign (paper §6.1.1 first data set:
// b = 5000, sparsity varied through s). The planted outlier positions
// are returned sorted.
func MajorityDominated(n, s int, mode, minMag, maxMag float64, seed uint64) (linalg.Vector, []int) {
	if s > n {
		panic(fmt.Sprintf("workload: s=%d > n=%d", s, n))
	}
	r := xrand.New(seed)
	x := make(linalg.Vector, n)
	x.Fill(mode)
	support := pickDistinct(r, n, s)
	for _, j := range support {
		mag := minMag + (maxMag-minMag)*r.Float64()
		if r.Float64() < 0.5 {
			mag = -mag
		}
		x[j] = mode + mag
	}
	return x, support
}

// NearMajorityDominated returns an N-vector whose bulk entries
// *concentrate around* mode with Gaussian jitter of the given standard
// deviation instead of equalling it exactly — the paper's real
// production shape ("values concentrate around a mode b, but they are
// not necessarily equal to the exact b", §2.1, Figure 1), under which
// outliers and mode no longer have unique definitions. The s planted
// outliers diverge by magnitudes in [minMag, maxMag]; sensible callers
// keep minMag well above a few jitter standard deviations.
func NearMajorityDominated(n, s int, mode, jitter, minMag, maxMag float64, seed uint64) (linalg.Vector, []int) {
	x, support := MajorityDominated(n, s, mode, minMag, maxMag, seed)
	r := xrand.New(seed ^ 0xfeedface)
	onSupport := make(map[int]bool, s)
	for _, j := range support {
		onSupport[j] = true
	}
	for i := range x {
		if !onSupport[i] {
			x[i] += r.NormFloat64() * jitter
		}
	}
	return x, support
}

// PowerLaw returns an N-vector of i.i.d. continuous Pareto samples with
// shape alpha and unit scale: x = u^(−1/α) (paper §6.1.1 second data
// set, α ∈ {0.9, 0.95}; §6.2 uses α = 1.5). No two values repeat almost
// surely, the density peaks at the scale, and smaller α gives heavier
// tails — a handful of entries dwarf the rest, which is the
// "sparse-like" structure CS exploits.
func PowerLaw(n int, alpha float64, seed uint64) linalg.Vector {
	if alpha <= 0 {
		panic(fmt.Sprintf("workload: alpha=%v must be positive", alpha))
	}
	r := xrand.New(seed)
	x := make(linalg.Vector, n)
	for i := range x {
		var u float64
		for u == 0 {
			u = r.Float64()
		}
		x[i] = math.Pow(u, -1/alpha)
	}
	return x
}

// SplitZeroSumNoise splits a global vector x into l slices that sum
// exactly to x, with per-node zero-sum noise of the given amplitude
// added so that individual slices are dense and distributed differently
// from the global aggregate — the paper's central obstacle ("local
// outliers and mode are often very different from the global ones",
// §1): a slice's values bear little resemblance to x, yet the sum is
// exact.
func SplitZeroSumNoise(x linalg.Vector, l int, noise float64, seed uint64) []linalg.Vector {
	if l <= 0 {
		panic("workload: need at least one node")
	}
	r := xrand.New(seed)
	slices := make([]linalg.Vector, l)
	for i := range slices {
		slices[i] = make(linalg.Vector, len(x))
	}
	g := make([]float64, l)
	for i, v := range x {
		mean := 0.0
		for j := range g {
			g[j] = r.NormFloat64() * noise
			mean += g[j]
		}
		mean /= float64(l)
		rem := v
		for j := 0; j < l; j++ {
			share := v/float64(l) + g[j] - mean
			if j == l-1 {
				share = rem // absorb rounding exactly
			}
			slices[j][i] = share
			rem -= share
		}
	}
	return slices
}

// pickDistinct returns s distinct indices in [0, n), sorted.
func pickDistinct(r *xrand.RNG, n, s int) []int {
	seen := make(map[int]bool, s)
	for len(seen) < s {
		seen[r.Intn(n)] = true
	}
	out := make([]int, 0, s)
	for j := range seen {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// QueryType names the three production score queries of §6.1.2.
type QueryType int

// The paper's three representative production aggregation queries.
const (
	CoreSearchClicks QueryType = iota // N≈10.4K keys, sparsity ≈300
	AdsClicks                         // N≈9K keys,    sparsity ≈650
	AnswerClicks                      // N≈10K keys,   sparsity ≈610
)

// String implements fmt.Stringer.
func (q QueryType) String() string {
	switch q {
	case CoreSearchClicks:
		return "core-search"
	case AdsClicks:
		return "ads"
	case AnswerClicks:
		return "answer"
	default:
		return fmt.Sprintf("QueryType(%d)", int(q))
	}
}

// profile returns the key-space size and sparsity the paper measured for
// each query type (§6.1.2 and Figure 9).
func (q QueryType) profile() (n, s int, mode float64) {
	switch q {
	case CoreSearchClicks:
		return 10400, 300, 1800 // Figure 1's example mode
	case AdsClicks:
		return 9000, 650, 730
	case AnswerClicks:
		return 10000, 610, 2450
	default:
		panic(fmt.Sprintf("workload: unknown query type %d", int(q)))
	}
}

// dataCenters is the paper's count of geo-distributed data centers
// (§6.1.2): every click-log workload is split over that many slices.
const dataCenters = 8

// ClickLogConfig parameterizes the production-like workload.
type ClickLogConfig struct {
	Query  QueryType
	ScaleN float64 // scales the key-space (and sparsity) for fast tests; 0 or 1 = paper scale
	Seed   uint64
}

// ClickLogs is a generated distributed click-score workload.
type ClickLogs struct {
	Config ClickLogConfig
	Keys   []string        // global key dictionary order (sorted)
	Slices []linalg.Vector // one vectorized slice per data center
	Global linalg.Vector   // Σ slices (the ground-truth aggregate)
	Mode   float64         // planted mode b
	S      int             // planted sparsity (number of outliers)
	Truth  []outlier.KV    // all planted outliers, strongest first
}

// GenerateClickLogs builds the workload. Keys look like
// "2015-05-31|en-US|web|dc3|url1742" (date, market, vertical, data
// center of origin, request-URL bucket: the GROUP-BY attributes from the
// paper's query template).
func GenerateClickLogs(cfg ClickLogConfig) *ClickLogs {
	scale := cfg.ScaleN
	if scale <= 0 {
		scale = 1
	}
	n0, s0, mode := cfg.Query.profile()
	n := int(float64(n0) * scale)
	s := int(float64(s0) * scale)
	if n < 4 {
		n = 4
	}
	if s < 1 {
		s = 1
	}
	if s > n/2-1 {
		s = n/2 - 1 // keep the data majority-dominated
	}
	// The noise amplitude is twice the mode. Per-node values are then
	// dominated by the zero-sum noise — locally, outliers are invisible
	// (paper §6.1.2: "the values are distributed with big standard
	// deviations, the mode and outliers on each node are vastly
	// different from the global ones") — while the global aggregate is
	// exactly the planted vector.
	noise := 2 * mode

	r := xrand.New(cfg.Seed)
	keys := makeKeys(n, r)

	// Global aggregate: mode everywhere, s outliers whose click-score
	// sums diverge. Click scores are signed (Success vs Quick-Back), so
	// outliers go both ways. Divergence magnitudes are Pareto-heavy —
	// Figure 1(a)'s production snapshot shows most outliers modest and a
	// handful enormous — which is what lets a small measurement budget
	// pin down the top-k outliers long before it could recover all s.
	global := make(linalg.Vector, n)
	global.Fill(mode)
	support := pickDistinct(r, n, s)
	for _, j := range support {
		var u float64
		for u == 0 {
			u = r.Float64()
		}
		mag := mode * math.Pow(u, -1/0.7) // Pareto(α=0.7), scale = mode
		if cap := 1e4 * mode; mag > cap {
			mag = cap // keep float sums well-conditioned
		}
		if r.Float64() < 0.4 {
			mag = -mag
		}
		global[j] = mode + mag
	}

	slices := SplitZeroSumNoise(global, dataCenters, noise, r.Uint64())
	truth := outlier.TopK(global, mode, s)
	return &ClickLogs{
		Config: cfg,
		Keys:   keys,
		Slices: slices,
		Global: global,
		Mode:   mode,
		S:      s,
		Truth:  truth,
	}
}

// makeKeys builds n distinct composite keys over the paper's GROUP-BY
// attributes (49 markets, 62 verticals per §6.1.2), sorted.
func makeKeys(n int, r *xrand.RNG) []string {
	markets := []string{
		"en-US", "en-GB", "zh-CN", "ja-JP", "de-DE", "fr-FR", "pt-BR",
		"es-ES", "ru-RU", "it-IT", "ko-KR", "nl-NL", "sv-SE", "pl-PL",
	}
	verticals := []string{
		"web", "image", "video", "news", "shopping", "maps", "local",
		"reference", "sports", "finance", "weather", "travel",
	}
	seen := make(map[string]bool, n)
	keys := make([]string, 0, n)
	day := 0
	for len(keys) < n {
		k := fmt.Sprintf("2015-05-%02d|%s|%s|dc%d|url%04d",
			1+day%28,
			markets[r.Intn(len(markets))],
			verticals[r.Intn(len(verticals))],
			r.Intn(8),
			r.Intn(n*4),
		)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		} else {
			day++ // perturb to escape collisions deterministically
		}
	}
	sort.Strings(keys)
	return keys
}

// TrueTopOutliers returns the strongest k planted outliers.
func (c *ClickLogs) TrueTopOutliers(k int) []outlier.KV {
	if k > len(c.Truth) {
		k = len(c.Truth)
	}
	return c.Truth[:k]
}

// PairsForNode materializes data-center l's slice as key-value pairs —
// the form a real log-aggregation mapper would hold.
func (c *ClickLogs) PairsForNode(l int) map[string]float64 {
	pairs := make(map[string]float64, len(c.Keys))
	for i, k := range c.Keys {
		if v := c.Slices[l][i]; v != 0 {
			pairs[k] = v
		}
	}
	return pairs
}
