package sensing

import (
	"fmt"
	"math"
	"sort"

	"csoutlier/internal/linalg"
)

// CountSketch is a bias-aware count-sketch measurement ensemble, the
// recovery-free point-query backend (Chen & Zhang, "Bias-Aware
// Sketches"). The M measurements are laid out as depth rows of width
// buckets (cell (r, b) lives at index r·width+b; when depth does not
// divide M the trailing M−depth·width entries stay zero). Column j has
// exactly one non-zero per row — value sign_r(j)/√depth at bucket
// bucket_r(j), both derived from a seeded hash of (row, j) — so every
// column has unit norm and the matrix is a perfectly ordinary linear Φ:
// Updater, WindowStore, the push protocol and BOMP recovery all work on
// it unchanged.
//
// What the hashed structure adds is an O(depth) estimator that needs no
// recovery at all. The sketch cell (r, b) holds
//
//	C[r,b] = (1/√depth) · Σ_{i: bucket_r(i)=b} sign_r(i)·x_i,
//
// and the ensemble precomputes the signed key counts
//
//	S[r,b] = Σ_{i: bucket_r(i)=b} sign_r(i).
//
// For data concentrated around an unknown mode m, every cell's ratio
// √depth·C/S is a signed-weighted mean of that cell's values — m
// exactly for cells no outlier hashed into — so the median of the
// ratios over all cells (EstimateMode, the median-of-bucket-means
// estimator) recovers m as long as outliers contaminate fewer than half
// the cells. Subtracting the mode's contribution m·S/√depth from each
// cell and taking the median over a key's depth cells (PointEstimate)
// then recovers that key's value with the usual count-sketch median
// guarantee. Both estimators read only the sketch payload: no BOMP, no
// column generation, no allocation.
//
// The same precomputed S table is (up to 1/√(N·depth)) exactly the
// extension column φ₀ = (1/√N)·Σφᵢ that BOMP prepends for the bias, so
// the recovery path and the point-query path agree on what "the mode"
// means — one sketch serves both.
type CountSketch struct {
	p     Params
	depth int
	width int
	invs  float64 // 1/√depth, the per-entry magnitude
	sqd   float64 // √depth

	rowSalt []uint64      // per-row hash salt, derived from the seed
	signed  linalg.Vector // S[r·width+b], signed key count per cell
	phi0    linalg.Vector // cached extension column = signed/(√depth·√N)
}

// maxCountSketchDepth bounds depth so PointEstimate's median buffer can
// live on the stack.
const maxCountSketchDepth = 64

// countSketchSalt decorrelates the count-sketch hash stream from the
// Gaussian ensemble's PRNG sub-streams at equal seeds.
const countSketchSalt = 0x8f1bbcdc

// NewCountSketch returns a depth×(M/depth) count-sketch ensemble.
// depth must be in [1, 64] and M must afford at least two buckets per
// row; odd depths make PointEstimate's median an actual order statistic
// and are recommended.
func NewCountSketch(p Params, depth int) (*CountSketch, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if depth < 1 || depth > maxCountSketchDepth {
		return nil, fmt.Errorf("sensing: count-sketch depth %d outside [1, %d]", depth, maxCountSketchDepth)
	}
	width := p.M / depth
	if width < 2 {
		return nil, fmt.Errorf("sensing: M=%d gives %d buckets per row at depth %d, need ≥ 2", p.M, width, depth)
	}
	c := &CountSketch{
		p:     p,
		depth: depth,
		width: width,
		invs:  1 / math.Sqrt(float64(depth)),
		sqd:   math.Sqrt(float64(depth)),
	}
	c.rowSalt = make([]uint64, depth)
	for r := range c.rowSalt {
		c.rowSalt[r] = mix64(p.Seed ^ countSketchSalt + uint64(r+1)*0x9e3779b97f4a7c15)
	}
	// The signed-count table S and (from it) φ₀, both O(N·depth) once.
	c.signed = make(linalg.Vector, p.M)
	for j := 0; j < p.N; j++ {
		for r := 0; r < depth; r++ {
			cell, sign := c.cell(r, j)
			c.signed[cell] += sign
		}
	}
	c.phi0 = make(linalg.Vector, p.M)
	scale := c.invs / math.Sqrt(float64(p.N))
	for i, s := range c.signed {
		c.phi0[i] = s * scale
	}
	return c, nil
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit
// mixer (Steele, Lea & Flood 2014).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// cell returns column j's (flat cell index, ±1 sign) in row r.
func (c *CountSketch) cell(r, j int) (int, float64) {
	h := mix64(c.rowSalt[r] + uint64(j)*0x9e3779b97f4a7c15)
	b := int((h >> 1) % uint64(c.width))
	sign := 1.0
	if h&1 == 0 {
		sign = -1
	}
	return r*c.width + b, sign
}

// Depth returns the number of hash rows.
func (c *CountSketch) Depth() int { return c.depth }

// Width returns the buckets per row.
func (c *CountSketch) Width() int { return c.width }

// Params implements Matrix.
func (c *CountSketch) Params() Params { return c.p }

// Col implements Matrix: one ±1/√depth entry per row.
func (c *CountSketch) Col(j int, dst linalg.Vector) linalg.Vector {
	if j < 0 || j >= c.p.N {
		panic(fmt.Sprintf("sensing: column %d out of [0,%d)", j, c.p.N))
	}
	dst = ensure(dst, c.p.M)
	for r := 0; r < c.depth; r++ {
		cell, sign := c.cell(r, j)
		dst[cell] = sign * c.invs
	}
	return dst
}

// AddCol implements Matrix touching only the depth cells the column
// occupies. For a y that holds no negative zero — any vector that
// started at zero and has only taken sums since: x + t is −0 only when
// x and t both are — the result is bit for bit that of one Col and one
// dense AddScaled, whose other M−depth terms each add a ±0 that changes
// nothing.
func (c *CountSketch) AddCol(j int, v float64, y linalg.Vector) {
	if len(y) != c.p.M {
		panic(fmt.Sprintf("sensing: AddCol into length %d, want M=%d", len(y), c.p.M))
	}
	if j < 0 || j >= c.p.N {
		panic(fmt.Sprintf("sensing: index %d out of [0,%d)", j, c.p.N))
	}
	for r := 0; r < c.depth; r++ {
		cell, sign := c.cell(r, j)
		y[cell] += v * (sign * c.invs)
	}
}

// Measure implements Matrix in O(nnz(x)·depth) — no column
// materialization, just depth scattered adds per non-zero.
func (c *CountSketch) Measure(x, dst linalg.Vector) linalg.Vector {
	if len(x) != c.p.N {
		panic(fmt.Sprintf("sensing: Measure vector length %d, want N=%d", len(x), c.p.N))
	}
	dst = ensure(dst, c.p.M)
	for j, v := range x {
		if v == 0 {
			continue
		}
		for r := 0; r < c.depth; r++ {
			cell, sign := c.cell(r, j)
			dst[cell] += v * sign * c.invs
		}
	}
	return dst
}

// MeasureSparse implements Matrix. Cost: O(depth) per pair.
func (c *CountSketch) MeasureSparse(idx []int, vals []float64, dst linalg.Vector) linalg.Vector {
	dst = ensure(dst, c.p.M)
	for k, j := range idx {
		v := vals[k]
		if v == 0 {
			continue
		}
		if j < 0 || j >= c.p.N {
			panic(fmt.Sprintf("sensing: index %d out of [0,%d)", j, c.p.N))
		}
		for r := 0; r < c.depth; r++ {
			cell, sign := c.cell(r, j)
			dst[cell] += v * sign * c.invs
		}
	}
	return dst
}

// countSketchCorrChunk is the minimum columns per worker for the
// parallel correlation; a column costs only depth hashes, so chunks
// must be large to amortize goroutine dispatch.
const countSketchCorrChunk = 512

// Correlate implements Matrix, fanned over GOMAXPROCS workers. dst[j]
// depends only on column j's hashes and r, so the result is the same
// bits for any worker count.
func (c *CountSketch) Correlate(r, dst linalg.Vector) linalg.Vector {
	if len(r) != c.p.M {
		panic(fmt.Sprintf("sensing: Correlate vector length %d, want M=%d", len(r), c.p.M))
	}
	dst = ensureExact(dst, c.p.N)
	if kernelWorkers() < 2 || c.p.N < 2*countSketchCorrChunk {
		c.correlateRange(r, dst, 0, c.p.N)
		return dst
	}
	parallelRanges(c.p.N, countSketchCorrChunk, func(lo, hi int) {
		c.correlateRange(r, dst, lo, hi)
	})
	return dst
}

// correlateRange fills dst[j] = <φ_j, r> for j in [lo, hi).
func (c *CountSketch) correlateRange(r, dst linalg.Vector, lo, hi int) {
	for j := lo; j < hi; j++ {
		sum := 0.0
		for row := 0; row < c.depth; row++ {
			cell, sign := c.cell(row, j)
			sum += sign * c.invs * r[cell]
		}
		dst[j] = sum
	}
}

// CorrelateBatch implements Matrix: each column's depth (cell, sign)
// pairs are hashed once and applied to every residual.
// The accumulation order over rows matches correlateRange's, so each
// dsts[q] is bit-identical to Correlate(rs[q], ·).
func (c *CountSketch) CorrelateBatch(rs, dsts []linalg.Vector) {
	if kernelWorkers() < 2 || c.p.N < 2*countSketchCorrChunk {
		c.correlateBatchRange(rs, dsts, 0, c.p.N)
		return
	}
	parallelRanges(c.p.N, countSketchCorrChunk, func(lo, hi int) {
		c.correlateBatchRange(rs, dsts, lo, hi)
	})
}

// correlateBatchRange fills dsts[q][j] = <φ_j, rs[q]> for j in [lo, hi).
func (c *CountSketch) correlateBatchRange(rs, dsts []linalg.Vector, lo, hi int) {
	sums := make([]float64, len(rs))
	for j := lo; j < hi; j++ {
		clear(sums)
		for row := 0; row < c.depth; row++ {
			cell, sign := c.cell(row, j)
			sv := sign * c.invs
			for q, r := range rs {
				sums[q] += sv * r[cell]
			}
		}
		for q := range dsts {
			dsts[q][j] = sums[q]
		}
	}
}

// ExtensionColumn implements Matrix from the construction-time cache:
// φ₀ = (1/√N)·Σφᵢ has entries S[cell]/(√depth·√N) — the signed-count
// table again, which is why recovery's bias column and the point
// estimators see the same mode.
func (c *CountSketch) ExtensionColumn(dst linalg.Vector) linalg.Vector {
	return copyCached(c.phi0, dst)
}

// EstimateMode recovers the bias the data concentrates around from a
// sketch payload y (length M): the median over all cells with a
// non-zero signed count of the cell ratio √depth·y[cell]/S[cell].
// Cells no outlier hashed into have ratio exactly the mode, so the
// estimate is exact (up to float rounding) whenever outliers touch
// fewer than half the populated cells. scratch, reused across calls,
// needs capacity ≥ depth·width; cost is O(M log M), paid once per fold
// generation by a standing PointState, never per query.
func (c *CountSketch) EstimateMode(y linalg.Vector, scratch []float64) float64 {
	if len(y) != c.p.M {
		panic(fmt.Sprintf("sensing: EstimateMode payload length %d, want M=%d", len(y), c.p.M))
	}
	cells := c.depth * c.width
	if cap(scratch) < cells {
		scratch = make([]float64, 0, cells)
	}
	ratios := scratch[:0]
	for cell := 0; cell < cells; cell++ {
		if s := c.signed[cell]; s != 0 {
			ratios = append(ratios, c.sqd*y[cell]/s)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	if len(ratios)%2 == 1 {
		return ratios[mid]
	}
	return (ratios[mid-1] + ratios[mid]) / 2
}

// PointEstimate recovers key j's value from a sketch payload y given a
// mode estimate (from EstimateMode): the median over the key's depth
// cells of sign·√depth·(y[cell] − mode·S[cell]/√depth), plus the mode.
// Cells only this key's deviation hashed into contribute it exactly, so
// the estimate survives up to ⌊(depth−1)/2⌋ collisions with other
// outliers. O(depth), zero allocations: the median buffer lives on the
// stack.
func (c *CountSketch) PointEstimate(y linalg.Vector, j int, mode float64) float64 {
	if len(y) != c.p.M {
		panic(fmt.Sprintf("sensing: PointEstimate payload length %d, want M=%d", len(y), c.p.M))
	}
	if j < 0 || j >= c.p.N {
		panic(fmt.Sprintf("sensing: PointEstimate index %d out of [0,%d)", j, c.p.N))
	}
	var buf [maxCountSketchDepth]float64
	for r := 0; r < c.depth; r++ {
		cell, sign := c.cell(r, j)
		dev := sign * (c.sqd*y[cell] - mode*c.signed[cell])
		// Insertion sort keeps buf[:r+1] ordered; depth ≤ 64 keeps it cheap.
		k := r
		for k > 0 && buf[k-1] > dev {
			buf[k] = buf[k-1]
			k--
		}
		buf[k] = dev
	}
	mid := c.depth / 2
	if c.depth%2 == 1 {
		return mode + buf[mid]
	}
	return mode + (buf[mid-1]+buf[mid])/2
}

var _ Matrix = (*CountSketch)(nil)
