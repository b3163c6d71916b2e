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
// exactly one non-zero per row — sign_r(j) = ±1 at bucket bucket_r(j),
// both derived from a seeded hash of (row, j), which NewCountSketch
// evaluates once per (row, key) into a key-major cell table of 4·depth
// bytes per key that every other method reads — so the matrix is a
// perfectly ordinary linear Φ (columns of norm √depth, which recovery's
// relative tolerances ignore): Updater, WindowStore, the push protocol
// and BOMP recovery all work on it unchanged, and integer data sums into
// exact integer counters in any order.
//
// What the hashed structure adds is an O(depth) estimator that needs no
// recovery at all. The sketch cell (r, b) holds
//
//	C[r,b] = Σ_{i: bucket_r(i)=b} sign_r(i)·x_i,
//
// and the ensemble precomputes the signed key counts
//
//	S[r,b] = Σ_{i: bucket_r(i)=b} sign_r(i).
//
// For data concentrated around an unknown mode m, every cell's ratio
// C/S is a signed-weighted mean of that cell's values — m exactly for
// cells no outlier hashed into — so the median of the ratios over all
// cells (EstimateMode, the median-of-bucket-means estimator) recovers m
// as long as outliers contaminate fewer than half the cells.
// Subtracting the mode's contribution m·S from each cell and taking the
// median over a key's depth cells (PointEstimate) then recovers that
// key's value with the usual count-sketch median guarantee. Both
// estimators read only the sketch payload: no BOMP, no column
// generation, no allocation.
//
// The same precomputed S table is (up to 1/√N) exactly the extension
// column φ₀ = (1/√N)·Σφᵢ that BOMP prepends for the bias, so the
// recovery path and the point-query path agree on what "the mode"
// means — one sketch serves both.
type CountSketch struct {
	p     Params
	depth int
	width int

	// cells[j·depth+r] is column j's cell in row r as cell<<1 | neg,
	// neg set where the sign is −1: the hash's output for every (row,
	// key), computed once by NewCountSketch, 4·depth bytes per key.
	cells  []uint32
	signed linalg.Vector // S[r·width+b], signed key count per cell
	phi0   linalg.Vector // cached extension column = signed/√N
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
	// A cell index travels shifted by one in cells.
	if uint64(p.M) > 1<<31 {
		return nil, fmt.Errorf("sensing: count-sketch M=%d past 2^31", p.M)
	}
	c := &CountSketch{p: p, depth: depth, width: width}
	rowSalt := make([]uint64, depth)
	for r := range rowSalt {
		rowSalt[r] = mix64(p.Seed ^ countSketchSalt + uint64(r+1)*0x9e3779b97f4a7c15)
	}
	// The cell table, and from it S and φ₀, all O(N·depth) once. Bucket
	// and sign both come from one hash of (row, j): the bucket from its
	// upper 63 bits, the sign from its lowest (−1 where it is 0).
	c.cells = make([]uint32, p.N*depth)
	c.signed = make(linalg.Vector, p.M)
	for j := 0; j < p.N; j++ {
		col := c.cells[j*depth : (j+1)*depth]
		for r := range col {
			h := mix64(rowSalt[r] + uint64(j)*0x9e3779b97f4a7c15)
			cell := r*width + int((h>>1)%uint64(width))
			col[r] = uint32(cell)<<1 | uint32(^h&1)
			c.signed[cell] += signOf(col[r])
		}
	}
	c.phi0 = make(linalg.Vector, p.M)
	scale := 1 / math.Sqrt(float64(p.N))
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

// signOf returns a table entry's sign, ±1.
func signOf(e uint32) float64 { return float64(1 - int(e&1)<<1) }

// flip returns v with its sign flipped where the table entry e's sign
// is −1: the bits of sign·v, without the multiply.
func flip(v float64, e uint32) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ uint64(e&1)<<63)
}

// col returns column j's depth table entries.
func (c *CountSketch) col(j int) []uint32 { return c.cells[j*c.depth : (j+1)*c.depth] }

// Depth returns the number of hash rows.
func (c *CountSketch) Depth() int { return c.depth }

// Width returns the buckets per row.
func (c *CountSketch) Width() int { return c.width }

// Params implements Matrix.
func (c *CountSketch) Params() Params { return c.p }

// Col implements Matrix: one ±1 entry per row, added into zeros.
func (c *CountSketch) Col(j int, dst linalg.Vector) linalg.Vector {
	if j < 0 || j >= c.p.N {
		panic(fmt.Sprintf("sensing: column %d out of [0,%d)", j, c.p.N))
	}
	dst = ensure(dst, c.p.M)
	c.AddCol(j, 1, dst)
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
	for _, e := range c.col(j) {
		y[e>>1] += flip(v, e)
	}
}

// Measure implements Matrix in O(nnz(x)·depth) as one AddCol per
// non-zero, in ascending j.
func (c *CountSketch) Measure(x, dst linalg.Vector) linalg.Vector {
	if len(x) != c.p.N {
		panic(fmt.Sprintf("sensing: Measure vector length %d, want N=%d", len(x), c.p.N))
	}
	dst = ensure(dst, c.p.M)
	for j, v := range x {
		if v != 0 {
			c.AddCol(j, v, dst)
		}
	}
	return dst
}

// MeasureSparse implements Matrix as one AddCol per non-zero pair, in k
// order. Cost: O(depth) per pair.
func (c *CountSketch) MeasureSparse(idx []int, vals []float64, dst linalg.Vector) linalg.Vector {
	dst = ensure(dst, c.p.M)
	for k, j := range idx {
		if v := vals[k]; v != 0 {
			c.AddCol(j, v, dst)
		}
	}
	return dst
}

// countSketchCorrChunk is the minimum columns per worker for the
// parallel correlation; a column costs only depth table loads (3–5 ns
// in BenchmarkKernelCountSketchCorrelate), so chunks must be large to
// amortize goroutine dispatch.
const countSketchCorrChunk = 512

// Correlate implements Matrix, fanned over GOMAXPROCS workers. dst[j]
// depends only on column j's cells and r, so the result is the same
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
		for _, e := range c.col(j) {
			sum += flip(r[e>>1], e)
		}
		dst[j] = sum
	}
}

// CorrelateBatch implements Matrix. A column is depth table reads, with
// nothing to regenerate that residuals could share, so each worker's
// range runs correlateRange once per residual: each dsts[q] is
// bit-identical to Correlate(rs[q], ·), and the sum stays in a register.
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
	for q, r := range rs {
		c.correlateRange(r, dsts[q], lo, hi)
	}
}

// ExtensionColumn implements Matrix from the construction-time cache:
// φ₀ = (1/√N)·Σφᵢ has entries S[cell]/√N — the signed-count
// table again, which is why recovery's bias column and the point
// estimators see the same mode.
func (c *CountSketch) ExtensionColumn(dst linalg.Vector) linalg.Vector {
	return copyCached(c.phi0, dst)
}

// EstimateMode recovers the bias the data concentrates around from a
// sketch payload y (length M): the median over all cells with a
// non-zero signed count of the cell ratio y[cell]/S[cell].
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
			ratios = append(ratios, y[cell]/s)
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
// cells of sign·(y[cell] − mode·S[cell]), plus the mode.
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
	for r, e := range c.col(j) {
		dev := flip(y[e>>1]-mode*c.signed[e>>1], e)
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
