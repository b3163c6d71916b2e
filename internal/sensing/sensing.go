// Package sensing implements the compressive-sensing measurement step of
// the paper's distributed aggregation paradigm (§3.1).
//
// Every node derives the same M×N measurement matrix Φ₀ from a shared
// (seed, M, N) triple — entries are i.i.d. N(0, 1/M), the ensemble the
// paper's Theorem 1 assumes — measures its local slice y_l = Φ₀·x_l, and
// ships only the M-vector y_l. Because measurement is linear, the
// aggregator's sum Σy_l equals Φ₀·Σx_l: the sketch of the global
// aggregate, computed without ever materializing it.
//
// Two ensembles, three types. The Gaussian ensemble has two
// interchangeable representations, chosen by New from M·N:
//
//   - Dense stores all M·N entries; fastest for repeated recovery on
//     moderate N (the paper's production queries have N ≈ 10K).
//   - Seeded stores nothing but the parameters and regenerates any column
//     on demand in O(M); this is what makes the key-scaling experiment
//     (Figure 12, N up to 5M) feasible in bounded memory, and it is also
//     how thousands of independent mapper processes can agree on Φ₀
//     without distributing it.
//
// Both derive column j from the same per-column PRNG sub-stream, so they
// produce bit-identical matrices for equal parameters — tested, because
// the protocol's correctness depends on it. The per-column sub-streams
// also make every whole-matrix kernel embarrassingly parallel: Correlate,
// Measure, MeasureSparse and ExtensionColumn fan columns out over
// GOMAXPROCS workers (see parallel.go) while staying bit-identical to
// the serial loop — the software stand-in for the GPU acceleration the
// paper leaves as future work (§5).
//
// CountSketch (countsketch.go) is the other ensemble: hashed columns of
// depth non-zeros, O(depth) per observation, and point queries that need
// no recovery.
package sensing

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"csoutlier/internal/linalg"
	"csoutlier/internal/xrand"
)

// Params identifies a measurement matrix. Nodes that share Params share
// the matrix.
type Params struct {
	M    int    // measurement (sketch) length
	N    int    // key-space (data vector) length
	Seed uint64 // consensus seed
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.M <= 0 || p.N <= 0 {
		return fmt.Errorf("sensing: non-positive dimensions M=%d N=%d", p.M, p.N)
	}
	return nil
}

// CompressionRatio returns M/N, the paper's compression ratio.
func (p Params) CompressionRatio() float64 { return float64(p.M) / float64(p.N) }

// Matrix is a measurement matrix Φ₀ with columns φ₁..φ_N.
type Matrix interface {
	// Params returns the identifying parameters.
	Params() Params
	// Col writes column j (0-based) into dst and returns it.
	Col(j int, dst linalg.Vector) linalg.Vector
	// Measure computes y = Φ₀·x for a dense data vector x of length N,
	// writing into dst (allocated if nil).
	Measure(x linalg.Vector, dst linalg.Vector) linalg.Vector
	// MeasureSparse computes y = Σ vals[i]·φ_{idx[i]} for a sparse slice;
	// indices may repeat (values accumulate).
	MeasureSparse(idx []int, vals []float64, dst linalg.Vector) linalg.Vector
	// AddCols adds Σ vals[k]·φ_{idx[k]} into y (length M) with every y[i]
	// taking its terms in k order: y ends on exactly the bits of one Col
	// and one AddScaled per k, however the implementation gets there.
	// This is Updater.Observe's arithmetic a run of observations at a
	// time, which is what lets a receiver measure a pairs delta frame
	// into the bits the sender's own sketch would have held.
	AddCols(idx []int, vals []float64, y linalg.Vector)
	// Correlate computes Φ₀ᵀ·r — the inner product of every column with
	// r, the dominant cost of each OMP iteration.
	Correlate(r linalg.Vector, dst linalg.Vector) linalg.Vector
	// CorrelateBatch correlates a block of residuals in one pass over
	// the matrix: a regenerating ensemble builds each column once and
	// dots it with every residual, Dense runs the blocked GEMM
	// (linalg.MulMatT). len(rs) == len(dsts), every rs[q] has length M
	// and every dsts[q] length N, and dsts[q] comes out bit-identical to
	// Correlate(rs[q], dsts[q]) — batching never changes recovery bits.
	CorrelateBatch(rs, dsts []linalg.Vector)
	// ExtensionColumn returns φ₀ = (1/√N)·Σφᵢ, the extra column BOMP
	// prepends to represent the unknown bias (paper eq. 3). All
	// implementations cache φ₀ per matrix, so repeated calls cost O(M).
	ExtensionColumn(dst linalg.Vector) linalg.Vector
}

// CorrelateBlock checks a residual block's shapes and correlates it:
// through m's batch kernel, or by a plain Correlate when the block is a
// single residual. Each dsts[q] must be pre-sized to length N; results
// are bit-identical to per-residual Correlate either way.
func CorrelateBlock(m Matrix, rs, dsts []linalg.Vector) {
	p := m.Params()
	if len(rs) != len(dsts) {
		panic(fmt.Sprintf("sensing: CorrelateBlock %d residuals, %d outputs", len(rs), len(dsts)))
	}
	for q := range rs {
		if len(rs[q]) != p.M || len(dsts[q]) != p.N {
			panic(fmt.Sprintf("sensing: CorrelateBlock residual %d/output %d, want M=%d/N=%d",
				len(rs[q]), len(dsts[q]), p.M, p.N))
		}
	}
	if len(rs) > 1 {
		m.CorrelateBatch(rs, dsts)
		return
	}
	for q := range rs {
		m.Correlate(rs[q], dsts[q])
	}
}

// fillColumn writes the canonical column j for params p into dst, which
// must have length p.M. Entries are N(0, 1/M). The generator lives on
// the stack (value constructors), so regenerating a column performs no
// heap allocation.
func fillColumn(p Params, j int, dst linalg.Vector) {
	root := xrand.NewValue(p.Seed)
	rng := root.SplitValue(uint64(j) + 1)
	inv := 1 / math.Sqrt(float64(p.M))
	for i := range dst {
		dst[i] = rng.NormFloat64() * inv
	}
}

// copyCached writes the cached φ₀ into dst (allocating when needed).
func copyCached(phi0 linalg.Vector, dst linalg.Vector) linalg.Vector {
	dst = ensureExact(dst, len(phi0))
	copy(dst, phi0)
	return dst
}

// Dense is a fully materialized measurement matrix.
type Dense struct {
	p    Params
	mat  *linalg.Matrix // M×N row-major
	phi0 linalg.Vector  // cached extension column, computed at NewDense

	// scatterBuf is the dedicated N-length scatter buffer for
	// MeasureSparse, claimed and returned with atomics. Unlike the pooled
	// fallback it survives GC cycles, which is what keeps the steady-state
	// scatter path at 0 allocs/op: sync.Pool entries are reclaimed at GC,
	// and the occasional 64 KB re-allocation showed up as a steady
	// ~200 B/op in BenchmarkKernelDenseMeasureSparse.
	scatterBuf atomic.Pointer[linalg.Vector]
	scatter    vecPool // overflow pool when callers contend for scatterBuf
}

// NewDense builds and stores the full matrix. Memory: M·N·8 bytes.
func NewDense(p Params) (*Dense, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mat := linalg.NewMatrix(p.M, p.N)
	col := make(linalg.Vector, p.M)
	for j := 0; j < p.N; j++ {
		fillColumn(p, j, col)
		for i := 0; i < p.M; i++ {
			mat.Set(i, j, col[i])
		}
	}
	d := &Dense{p: p, mat: mat}
	// φ₀ = (1/√N)·Σφᵢ, via row sums over the materialized storage; the
	// standing-query path re-reads it on every BOMP call, so pay the
	// O(M·N) exactly once here.
	d.phi0 = make(linalg.Vector, p.M)
	for i := 0; i < p.M; i++ {
		s := 0.0
		for _, v := range mat.Row(i) {
			s += v
		}
		d.phi0[i] = s
	}
	d.phi0.Scale(1 / math.Sqrt(float64(p.N)))
	scatter := make(linalg.Vector, p.N)
	d.scatterBuf.Store(&scatter)
	return d, nil
}

// getScatter claims the dedicated scatter buffer, falling back to the
// pool when another MeasureSparse call holds it.
func (d *Dense) getScatter() *linalg.Vector {
	if v := d.scatterBuf.Swap(nil); v != nil {
		return v
	}
	return d.scatter.get(d.p.N)
}

// putScatter returns a scatter buffer, restoring the dedicated slot
// first so the uncontended path never depends on pool survival.
func (d *Dense) putScatter(v *linalg.Vector) {
	if d.scatterBuf.CompareAndSwap(nil, v) {
		return
	}
	d.scatter.put(v)
}

// Params implements Matrix.
func (d *Dense) Params() Params { return d.p }

// Col implements Matrix.
func (d *Dense) Col(j int, dst linalg.Vector) linalg.Vector { return d.mat.Col(j, dst) }

// AddCols implements Matrix a matrix row at a time. A column of the
// row-major storage is M loads N·8 bytes apart, a page each; the same
// loads taken row by row share their pages and overlap their misses,
// which halves the cost of measuring a short run of observations (a
// pairs delta frame) and changes none of its arithmetic.
func (d *Dense) AddCols(idx []int, vals []float64, y linalg.Vector) {
	if len(y) != d.p.M || len(idx) != len(vals) {
		panic(fmt.Sprintf("sensing: AddCols of %d indices, %d values into length %d, want M=%d", len(idx), len(vals), len(y), d.p.M))
	}
	for i := range y {
		row := d.mat.Row(i)
		s := y[i]
		for k, j := range idx {
			s += vals[k] * row[j]
		}
		y[i] = s
	}
}

// Measure implements Matrix.
func (d *Dense) Measure(x, dst linalg.Vector) linalg.Vector {
	if len(x) != d.p.N {
		panic(fmt.Sprintf("sensing: Measure vector length %d, want N=%d", len(x), d.p.N))
	}
	return d.mat.MulVec(x, dst)
}

// MeasureSparse implements Matrix. For inputs that are not genuinely
// sparse relative to N, the column-at-a-time walk over the row-major
// storage is cache-hostile (stride N per element); scattering into a
// pooled dense vector and running the row-major MulVec is the same flop
// count with sequential access, so it wins beyond a small density
// threshold.
func (d *Dense) MeasureSparse(idx []int, vals []float64, dst linalg.Vector) linalg.Vector {
	n, m := d.p.N, d.p.M
	dst = ensure(dst, m)
	if len(idx) > 64 && len(idx) > n/4 {
		xp := d.getScatter()
		x := *xp
		clear(x)
		for k, j := range idx {
			if j < 0 || j >= n {
				panic(fmt.Sprintf("sensing: index %d out of [0,%d)", j, n))
			}
			x[j] += vals[k]
		}
		d.mat.MulVec(x, dst)
		d.putScatter(xp)
		return dst
	}
	for _, j := range idx {
		if j < 0 || j >= n {
			// Explicit check: row-major indexing would otherwise alias a
			// neighbouring row's entry instead of failing fast.
			panic(fmt.Sprintf("sensing: index %d out of [0,%d)", j, n))
		}
	}
	// Row-major gather: accumulate Σ vals[k]·row[idx[k]] one row at a
	// time. Same flop count as the column-at-a-time walk, but the memory
	// access moves forward monotonically inside each row instead of
	// striding N doubles per element, and it reads only nnz/N of the
	// matrix — which is why the dense MulVec above only wins once the
	// input stops being sparse.
	data := d.mat.Data
	for i := 0; i < m; i++ {
		row := data[i*n : i*n+n]
		acc := 0.0
		for k, j := range idx {
			acc += vals[k] * row[j]
		}
		dst[i] += acc
	}
	return dst
}

// Correlate implements Matrix using the goroutine-parallel kernel.
func (d *Dense) Correlate(r, dst linalg.Vector) linalg.Vector {
	return d.mat.ParallelMulVecT(r, dst)
}

// CorrelateBatch implements Matrix via the blocked GEMM: one pass over
// the matrix serves the whole residual block, bit-identical per
// residual to Correlate.
func (d *Dense) CorrelateBatch(rs, dsts []linalg.Vector) {
	d.mat.ParallelMulMatT(rs, dsts)
}

// ExtensionColumn implements Matrix from the per-matrix cache.
func (d *Dense) ExtensionColumn(dst linalg.Vector) linalg.Vector {
	return copyCached(d.phi0, dst)
}

// Seeded is a measurement matrix that regenerates columns on demand.
// Memory: O(M) scratch. Every operation touching all N columns costs the
// PRNG regeneration of M·N Gaussians; those regenerations fan out over
// GOMAXPROCS workers (bit-identically — each column has its own
// sub-stream). Use Dense when the matrix fits.
type Seeded struct {
	p        Params
	cols     vecPool // pooled M-length column scratch
	phi0Once sync.Once
	phi0     linalg.Vector
}

// NewSeeded returns a column-regenerating matrix.
func NewSeeded(p Params) (*Seeded, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Seeded{p: p}, nil
}

// Params implements Matrix.
func (s *Seeded) Params() Params { return s.p }

// Col implements Matrix.
func (s *Seeded) Col(j int, dst linalg.Vector) linalg.Vector {
	if j < 0 || j >= s.p.N {
		panic(fmt.Sprintf("sensing: column %d out of [0,%d)", j, s.p.N))
	}
	dst = ensureExact(dst, s.p.M)
	fillColumn(s.p, j, dst)
	return dst
}

// AddCols implements Matrix as the definition reads: one regenerated
// column and one AddScaled per pair.
func (s *Seeded) AddCols(idx []int, vals []float64, y linalg.Vector) {
	if len(y) != s.p.M || len(idx) != len(vals) {
		panic(fmt.Sprintf("sensing: AddCols of %d indices, %d values into length %d, want M=%d", len(idx), len(vals), len(y), s.p.M))
	}
	col := s.cols.get(s.p.M)
	for k, j := range idx {
		y.AddScaled(vals[k], s.Col(j, *col))
	}
	s.cols.put(col)
}

// Measure implements Matrix. Column regeneration runs in parallel; the
// accumulation folds columns in ascending j on the calling goroutine,
// so the result is bit-identical to the serial loop for any GOMAXPROCS.
func (s *Seeded) Measure(x, dst linalg.Vector) linalg.Vector {
	if len(x) != s.p.N {
		panic(fmt.Sprintf("sensing: Measure vector length %d, want N=%d", len(x), s.p.N))
	}
	dst = ensure(dst, s.p.M)
	// Only non-zero entries regenerate a column; collect them so the
	// parallel fold skips the zeros exactly like the serial loop.
	nz := make([]int, 0, len(x))
	for j, v := range x {
		if v != 0 {
			nz = append(nz, j)
		}
	}
	orderedFold(len(nz), s.p.M, &s.cols,
		func(k int, colDst linalg.Vector) { fillColumn(s.p, nz[k], colDst) },
		func(k int, col linalg.Vector) { dst.AddScaled(x[nz[k]], col) })
	return dst
}

// MeasureSparse implements Matrix. Parallel like Measure, with the same
// ascending-k fold order as the serial loop (bit-identical).
func (s *Seeded) MeasureSparse(idx []int, vals []float64, dst linalg.Vector) linalg.Vector {
	dst = ensure(dst, s.p.M)
	n := s.p.N
	nz := make([]int, 0, len(idx))
	for k, j := range idx {
		if j < 0 || j >= n {
			panic(fmt.Sprintf("sensing: index %d out of [0,%d)", j, n))
		}
		if vals[k] != 0 {
			nz = append(nz, k)
		}
	}
	orderedFold(len(nz), s.p.M, &s.cols,
		func(k int, colDst linalg.Vector) { fillColumn(s.p, idx[nz[k]], colDst) },
		func(k int, col linalg.Vector) { dst.AddScaled(vals[nz[k]], col) })
	return dst
}

// seededCorrChunk is the minimum columns per worker for the parallel
// correlation: one column costs M Gaussian draws, so even small chunks
// amortize dispatch, but single-digit ranges aren't worth a goroutine.
const seededCorrChunk = 16

// Correlate implements Matrix by regenerating every column, fanned over
// GOMAXPROCS workers. dst[j] depends only on column j's sub-stream and
// r, so the result is the same bits for any worker count.
func (s *Seeded) Correlate(r, dst linalg.Vector) linalg.Vector {
	if len(r) != s.p.M {
		panic(fmt.Sprintf("sensing: Correlate vector length %d, want M=%d", len(r), s.p.M))
	}
	dst = ensureExact(dst, s.p.N)
	if kernelWorkers() < 2 || s.p.N < 2*seededCorrChunk {
		s.correlateRange(r, dst, 0, s.p.N)
		return dst
	}
	parallelRanges(s.p.N, seededCorrChunk, func(lo, hi int) {
		s.correlateRange(r, dst, lo, hi)
	})
	return dst
}

// correlateRange fills dst[j] = <φ_j, r> for j in [lo, hi).
func (s *Seeded) correlateRange(r, dst linalg.Vector, lo, hi int) {
	col := s.cols.get(s.p.M)
	for j := lo; j < hi; j++ {
		fillColumn(s.p, j, *col)
		dst[j] = col.Dot(r)
	}
	s.cols.put(col)
}

// CorrelateBatch implements Matrix: each column is regenerated ONCE
// and dotted with every residual, so a q-residual block costs one
// M·N regeneration pass plus q·N dot products — the regeneration, which
// dominates Seeded's correlate cost, is amortized across the block.
// Each dsts[q][j] comes from the same fillColumn bits and the same Dot
// as Correlate(rs[q], ·), so results are bit-identical per residual.
func (s *Seeded) CorrelateBatch(rs, dsts []linalg.Vector) {
	if kernelWorkers() < 2 || s.p.N < 2*seededCorrChunk {
		s.correlateBatchRange(rs, dsts, 0, s.p.N)
		return
	}
	parallelRanges(s.p.N, seededCorrChunk, func(lo, hi int) {
		s.correlateBatchRange(rs, dsts, lo, hi)
	})
}

// correlateBatchRange fills dsts[q][j] = <φ_j, rs[q]> for j in [lo, hi).
func (s *Seeded) correlateBatchRange(rs, dsts []linalg.Vector, lo, hi int) {
	col := s.cols.get(s.p.M)
	for j := lo; j < hi; j++ {
		fillColumn(s.p, j, *col)
		for q, r := range rs {
			dsts[q][j] = col.Dot(r)
		}
	}
	s.cols.put(col)
}

// ExtensionColumn implements Matrix. φ₀ is computed once per matrix
// (with parallel column regeneration, folded in ascending j — the
// serial association) and cached; every later call is an O(M) copy.
func (s *Seeded) ExtensionColumn(dst linalg.Vector) linalg.Vector {
	s.phi0Once.Do(func() {
		phi0 := make(linalg.Vector, s.p.M)
		orderedFold(s.p.N, s.p.M, &s.cols,
			func(j int, colDst linalg.Vector) { fillColumn(s.p, j, colDst) },
			func(j int, col linalg.Vector) { phi0.Add(col) })
		s.phi0 = phi0.Scale(1 / math.Sqrt(float64(s.p.N)))
	})
	return copyCached(s.phi0, dst)
}

// ensure returns dst resized to n and zeroed.
func ensure(dst linalg.Vector, n int) linalg.Vector {
	if cap(dst) < n {
		return make(linalg.Vector, n)
	}
	dst = dst[:n]
	clear(dst)
	return dst
}

// ensureExact returns dst resized to n without zeroing (callers overwrite).
func ensureExact(dst linalg.Vector, n int) linalg.Vector {
	if cap(dst) < n {
		return make(linalg.Vector, n)
	}
	return dst[:n]
}

// AddSketch accumulates src into dst (dst += src): the aggregator's
// global-measurement step y = Σ y_l (paper eq. 1), and also the
// incremental-update path — new data arriving at a node contributes
// Φ₀·Δx, which is simply added to the standing sketch.
func AddSketch(dst, src linalg.Vector) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("sensing: sketch length mismatch %d vs %d", len(dst), len(src)))
	}
	dst.Add(src)
}

// SubSketch removes src from dst (dst -= src): the node-removal path —
// dropping a data center from the aggregation subtracts its sketch,
// again in O(M), no recomputation anywhere (paper §1 challenge 3).
func SubSketch(dst, src linalg.Vector) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("sensing: sketch length mismatch %d vs %d", len(dst), len(src)))
	}
	dst.Sub(src)
}

// SketchBytes returns the wire size of a sketch: M measurements at
// 64 bits each (S_M in the paper's cost accounting, §6.1.2).
func SketchBytes(m int) int64 { return int64(m) * 8 }
