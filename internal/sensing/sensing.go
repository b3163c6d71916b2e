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
//   - Dense stores all M·N entries, column-major: a column — what an
//     observation, a pair of a delta frame or a Gram column reads — is
//     one contiguous run. Fastest for repeated recovery on moderate N
//     (the paper's production queries have N ≈ 10K).
//   - Seeded stores nothing but the parameters and regenerates any column
//     on demand in O(M); this is what makes the key-scaling experiment
//     (Figure 12, N up to 5M) feasible in bounded memory, and it is also
//     how thousands of independent mapper processes can agree on Φ₀
//     without distributing it.
//
// Both derive column j from the same per-column PRNG sub-stream, so they
// produce bit-identical matrices for equal parameters — tested, because
// the protocol's correctness depends on it. The per-column sub-streams
// also make the whole-matrix kernels embarrassingly parallel: Seeded's
// Correlate, Measure, MeasureSparse and ExtensionColumn and Dense's fill
// and Correlate fan columns out over GOMAXPROCS workers (see
// parallel.go) while staying bit-identical to the serial loop — the
// software stand-in for the GPU acceleration the paper leaves as future
// work (§5).
//
// CountSketch (countsketch.go) is the other ensemble: hashed columns of
// depth non-zeros, O(depth) per observation, and point queries that need
// no recovery.
package sensing

import (
	"fmt"
	"math"
	"sync"

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
	// AddCol adds v·φ_j into y (length M): y ends on exactly the bits of
	// one Col and one AddScaled, however the implementation gets there.
	// A run of AddCol calls is Updater.Observe's arithmetic, which is
	// what lets a receiver measure a pairs delta frame into the bits the
	// sender's own sketch would have held. It writes only y, so callers
	// measuring into their own vectors may run concurrently.
	AddCol(j int, v float64, y linalg.Vector)
	// Correlate computes Φ₀ᵀ·r — the inner product of every column with
	// r, the dominant cost of each OMP iteration.
	Correlate(r linalg.Vector, dst linalg.Vector) linalg.Vector
	// CorrelateBatch correlates a block of residuals in one pass over
	// the matrix: each column is built or loaded once and dotted with
	// every residual. len(rs) == len(dsts), every rs[q] has length M
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

// Dense is a fully materialized measurement matrix, stored column-major:
// column j is cols[j*M:(j+1)*M]. A column is what every per-key
// operation reads — an observation or a pair of a delta frame adds one,
// a Gram column dots one — so each is one contiguous run of M floats.
// The whole-matrix kernels walk the columns too, and each keeps the
// per-output accumulation order the row-major layout gave it (Measure:
// linalg.Vector.Dot's four strided partial sums; Correlate: four rows a
// step; φ₀: ascending j), so a Dense answers with the bits a row-major
// linalg.Matrix of the same entries would.
type Dense struct {
	p    Params
	cols []float64     // N columns of M entries
	phi0 linalg.Vector // cached extension column, computed at NewDense
}

// NewDense builds and stores the full matrix. Memory: M·N·8 bytes. Each
// column is filled from its own PRNG sub-stream, so the fill fans out
// over column ranges and the entries are the same bits at any worker
// count.
func NewDense(p Params) (*Dense, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Dense{p: p, cols: make([]float64, p.M*p.N)}
	parallelRanges(p.N, colGenChunk, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			fillColumn(p, j, d.col(j))
		}
	})
	// φ₀ = (1/√N)·Σφᵢ: the standing-query path re-reads it on every BOMP
	// call, so pay the O(M·N) exactly once here.
	d.phi0 = make(linalg.Vector, p.M)
	for j := 0; j < p.N; j++ {
		d.phi0.Add(d.col(j))
	}
	d.phi0.Scale(1 / math.Sqrt(float64(p.N)))
	return d, nil
}

// col returns column j, aliasing the storage.
func (d *Dense) col(j int) linalg.Vector {
	return d.cols[j*d.p.M : (j+1)*d.p.M : (j+1)*d.p.M]
}

// Params implements Matrix.
func (d *Dense) Params() Params { return d.p }

// Col implements Matrix.
func (d *Dense) Col(j int, dst linalg.Vector) linalg.Vector {
	if j < 0 || j >= d.p.N {
		panic(fmt.Sprintf("sensing: column %d out of [0,%d)", j, d.p.N))
	}
	dst = ensureExact(dst, d.p.M)
	copy(dst, d.col(j))
	return dst
}

// AddCol implements Matrix: one contiguous AddScaled.
func (d *Dense) AddCol(j int, v float64, y linalg.Vector) {
	if j < 0 || j >= d.p.N {
		panic(fmt.Sprintf("sensing: index %d out of [0,%d)", j, d.p.N))
	}
	y.AddScaled(v, d.col(j))
}

// Measure implements Matrix with linalg.Vector.Dot's association per
// output: four partial sums over the columns j ≡ 0, 1, 2, 3 (mod 4) below
// the last multiple of four, each taking its columns in ascending j,
// combined as (s0+s1)+(s2+s3), then the remaining columns one at a time.
// Eight columns are read per pass, so each partial sum is loaded and
// stored once per two of its terms. Columns whose x entries are zero add
// ±0 to a partial sum, which changes none of them (a sum that started at
// +0 is never −0), so a pass whose x entries are all zero is skipped.
// Every output is independent of the others, so the rows are summed
// measureBlock at a time, with the three extra partial sums on the stack:
// Measure allocates nothing.
func (d *Dense) Measure(x, dst linalg.Vector) linalg.Vector {
	m := d.p.M
	if len(x) != d.p.N {
		panic(fmt.Sprintf("sensing: Measure vector length %d, want N=%d", len(x), d.p.N))
	}
	dst = ensure(dst, m)
	for lo := 0; lo < m; lo += measureBlock {
		d.measureRows(x, dst[lo:min(lo+measureBlock, m)], lo)
	}
	return dst
}

// measureBlock is how many rows one measureRows call sums: 12 KB of
// stack, and every benchmark workload's M in one block — a
// 128-row block, re-walking every column once per block, read ~25%
// slower at 384×4096. A pooled 3·M scratch instead was re-allocated
// after each GC, which pull nodes measuring concurrently paid in
// alloc_bytes_per_obs.
const measureBlock = 512

// measureRows adds rows [lo, lo+len(s0)) of Φ·x into s0, which is zero.
func (d *Dense) measureRows(x, s0 linalg.Vector, lo int) {
	m, n, cols, b := d.p.M, d.p.N, d.cols, len(s0)
	// Every operand is cut to length b, so the loops below index them
	// with no bounds checks.
	var acc [3][measureBlock]float64
	s1, s2, s3 := acc[0][:b], acc[1][:b], acc[2][:b]
	j := 0
	for ; j+8 <= n; j += 8 {
		x0, x1, x2, x3, x4, x5, x6, x7 := x[j], x[j+1], x[j+2], x[j+3], x[j+4], x[j+5], x[j+6], x[j+7]
		if x0 == 0 && x1 == 0 && x2 == 0 && x3 == 0 && x4 == 0 && x5 == 0 && x6 == 0 && x7 == 0 {
			continue
		}
		c0, c1, c2, c3 := cols[j*m+lo:][:b], cols[(j+1)*m+lo:][:b], cols[(j+2)*m+lo:][:b], cols[(j+3)*m+lo:][:b]
		c4, c5, c6, c7 := cols[(j+4)*m+lo:][:b], cols[(j+5)*m+lo:][:b], cols[(j+6)*m+lo:][:b], cols[(j+7)*m+lo:][:b]
		for i := range s0 {
			s0[i] = s0[i] + c0[i]*x0 + c4[i]*x4
			s1[i] = s1[i] + c1[i]*x1 + c5[i]*x5
			s2[i] = s2[i] + c2[i]*x2 + c6[i]*x6
			s3[i] = s3[i] + c3[i]*x3 + c7[i]*x7
		}
	}
	if j+4 <= n {
		x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3]
		c0, c1, c2, c3 := cols[j*m+lo:][:b], cols[(j+1)*m+lo:][:b], cols[(j+2)*m+lo:][:b], cols[(j+3)*m+lo:][:b]
		for i := range s0 {
			s0[i] += c0[i] * x0
			s1[i] += c1[i] * x1
			s2[i] += c2[i] * x2
			s3[i] += c3[i] * x3
		}
		j += 4
	}
	for i := range s0 {
		s0[i] = (s0[i] + s1[i]) + (s2[i] + s3[i])
	}
	for ; j < n; j++ {
		s0.AddScaled(x[j], cols[j*m+lo:][:b])
	}
}

// MeasureSparse implements Matrix as one AddCol per pair, from zero in
// k order: the arithmetic of Updater.Observe over the same pairs.
func (d *Dense) MeasureSparse(idx []int, vals []float64, dst linalg.Vector) linalg.Vector {
	dst = ensure(dst, d.p.M)
	for k, j := range idx {
		d.AddCol(j, vals[k], dst)
	}
	return dst
}

// Correlate implements Matrix.
func (d *Dense) Correlate(r, dst linalg.Vector) linalg.Vector {
	if len(r) != d.p.M {
		panic(fmt.Sprintf("sensing: Correlate vector length %d, want M=%d", len(r), d.p.M))
	}
	dst = ensureExact(dst, d.p.N)
	if d.parallelCorrelate() {
		d.CorrelateBatch([]linalg.Vector{r}, []linalg.Vector{dst})
		return dst
	}
	// One residual on the calling goroutine: nothing escapes, so the
	// serial path allocates nothing.
	rs, dsts := [1]linalg.Vector{r}, [1]linalg.Vector{dst}
	d.correlateRange(rs[:], dsts[:], 0, d.p.N)
	return dst
}

// CorrelateBatch implements Matrix: four columns are read per pass and
// dotted with every residual while they are cache-hot, so the matrix
// streams from memory once per block, not once per residual. Workers
// own disjoint column ranges and every output sees the same row order,
// so the bits do not depend on the worker count.
func (d *Dense) CorrelateBatch(rs, dsts []linalg.Vector) {
	if !d.parallelCorrelate() {
		d.correlateRange(rs, dsts, 0, d.p.N)
		return
	}
	parallelRanges(d.p.N, denseCorrChunk, func(lo, hi int) {
		d.correlateRange(rs, dsts, lo, hi)
	})
}

// denseCorrChunk is the minimum columns per worker for Dense's
// correlation: a column is M multiply-adds, so it takes a few hundred
// of them to pay for a goroutine.
const denseCorrChunk = 512

// parallelCorrelate reports whether a correlation fans out.
func (d *Dense) parallelCorrelate() bool {
	return kernelWorkers() > 1 && d.p.N >= 2*denseCorrChunk
}

// correlateRange fills dsts[q][j] = <φ_j, rs[q]> for j in [lo, hi), with
// linalg.Matrix.MulVecT's association per output: rows four at a step
// as (x0·φ0 + x1·φ1) + (x2·φ2 + x3·φ3), then the remaining rows one at a
// time. MulVecT skips a step whose residual entries are all zero; here
// it adds ±0 to a sum that started at +0 and so is never −0, which
// changes nothing, and the test would cost more than the step.
//
// Four columns are read per pass, a quarter of the range apart: each of
// the four loads streams through its own quarter of the matrix in
// address order, which the hardware prefetcher follows as it does the
// row-major kernel's four rows. Four adjacent columns, read in
// lockstep, are four short streams that restart every pass, and read
// ~40% slower at 384×4096.
func (d *Dense) correlateRange(rs, dsts []linalg.Vector, lo, hi int) {
	m, cols := d.p.M, d.cols
	s := (hi - lo) / 4
	for j := lo; j < lo+s; j++ {
		// Every operand is cut to capacity m, so one bounds check on the
		// residual covers the four column loads beside it.
		c0, c1, c2, c3 := cols[j*m:][:m:m], cols[(j+s)*m:][:m:m], cols[(j+2*s)*m:][:m:m], cols[(j+3*s)*m:][:m:m]
		for q, r := range rs {
			r = r[:m:m]
			var a0, a1, a2, a3 float64
			i := 0
			for ; i+4 <= m; i += 4 {
				x := r[i : i+4 : i+4]
				e0, e1, e2, e3 := c0[i:i+4:i+4], c1[i:i+4:i+4], c2[i:i+4:i+4], c3[i:i+4:i+4]
				a0 += (x[0]*e0[0] + x[1]*e0[1]) + (x[2]*e0[2] + x[3]*e0[3])
				a1 += (x[0]*e1[0] + x[1]*e1[1]) + (x[2]*e1[2] + x[3]*e1[3])
				a2 += (x[0]*e2[0] + x[1]*e2[1]) + (x[2]*e2[2] + x[3]*e2[3])
				a3 += (x[0]*e3[0] + x[1]*e3[1]) + (x[2]*e3[2] + x[3]*e3[3])
			}
			for ; i < m; i++ {
				a0 += c0[i] * r[i]
				a1 += c1[i] * r[i]
				a2 += c2[i] * r[i]
				a3 += c3[i] * r[i]
			}
			out := dsts[q]
			out[j], out[j+s], out[j+2*s], out[j+3*s] = a0, a1, a2, a3
		}
	}
	for j := lo + 4*s; j < hi; j++ {
		c := cols[j*m:][:m:m]
		for q, r := range rs {
			r = r[:m:m]
			a := 0.0
			i := 0
			for ; i+4 <= m; i += 4 {
				x, e := r[i:i+4:i+4], c[i:i+4:i+4]
				a += (x[0]*e[0] + x[1]*e[1]) + (x[2]*e[2] + x[3]*e[3])
			}
			for ; i < m; i++ {
				a += c[i] * r[i]
			}
			dsts[q][j] = a
		}
	}
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

// AddCol implements Matrix as the definition reads: one regenerated
// column and one AddScaled.
func (s *Seeded) AddCol(j int, v float64, y linalg.Vector) {
	col := s.cols.get(s.p.M)
	y.AddScaled(v, s.Col(j, *col))
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

// colGenChunk is the minimum columns per worker for work that generates
// columns (Seeded's correlation, Dense's fill): one column costs M
// Gaussian draws, so even small chunks
// amortize dispatch, but single-digit ranges aren't worth a goroutine.
const colGenChunk = 16

// Correlate implements Matrix by regenerating every column, fanned over
// GOMAXPROCS workers. dst[j] depends only on column j's sub-stream and
// r, so the result is the same bits for any worker count.
func (s *Seeded) Correlate(r, dst linalg.Vector) linalg.Vector {
	if len(r) != s.p.M {
		panic(fmt.Sprintf("sensing: Correlate vector length %d, want M=%d", len(r), s.p.M))
	}
	dst = ensureExact(dst, s.p.N)
	if kernelWorkers() < 2 || s.p.N < 2*colGenChunk {
		s.correlateRange(r, dst, 0, s.p.N)
		return dst
	}
	parallelRanges(s.p.N, colGenChunk, func(lo, hi int) {
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
	if kernelWorkers() < 2 || s.p.N < 2*colGenChunk {
		s.correlateBatchRange(rs, dsts, 0, s.p.N)
		return
	}
	parallelRanges(s.p.N, colGenChunk, func(lo, hi int) {
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
