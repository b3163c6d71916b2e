// Package csoutlier is a compressive-sensing toolkit for distributed
// outlier detection, reproducing "Distributed Outlier Detection using
// Compressive Sensing" (Yan et al., SIGMOD 2015).
//
// The problem: a huge key→value aggregate is scattered across many
// shared-nothing nodes (x = Σ_l x_l), and an analyst wants the k keys
// whose aggregated values diverge most from the (unknown) mode the rest
// of the data concentrates around — without shipping the data.
//
// The method: every node compresses its local slice with the same
// random Gaussian projection, y_l = Φ₀·x_l, and ships only the M-vector
// y_l (M ≈ O(s·log N) for s-sparse-around-a-bias data). Because
// measurement is linear, Σ y_l = Φ₀·x: the aggregator holds a sketch of
// the exact global aggregate, recovers the mode and outliers with the
// BOMP algorithm, and never sees the raw data. Communication drops from
// O(N·L) to O(M·L).
//
// Basic usage:
//
//	s, _ := csoutlier.NewSketcher(keys, csoutlier.Config{M: 200, Seed: 42})
//	y1, _ := s.SketchPairs(node1Pairs) // at node 1
//	y2, _ := s.SketchPairs(node2Pairs) // at node 2
//	global := y1.Clone()
//	global.Add(y2)                     // at the aggregator
//	report, _ := s.Detect(global, 10)  // top-10 outliers + mode
//
// Sketches are plain []float64 payloads: ship them however you like, or
// use the cmd/csnode + cmd/csagg binaries for a ready-made TCP
// deployment. Sketch.Add and Sketch.Sub give O(M) incremental updates
// when new data arrives or a node joins/leaves the aggregation.
package csoutlier

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csoutlier/internal/keydict"
	"csoutlier/internal/linalg"
	"csoutlier/internal/obs"
	"csoutlier/internal/outlier"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
)

// Ensemble selects the measurement-matrix family. It is the sensing
// layer's Kind — one name table (Ensemble.String, sensing.ParseKind)
// and one set of values, which the sketch codec writes.
type Ensemble = sensing.Kind

const (
	// Gaussian is the paper's ensemble: i.i.d. N(0, 1/M) entries, the
	// strongest recovery guarantees (Theorem 1). Default.
	Gaussian = sensing.KindGaussian
	// CountSketch is the bias-aware count-sketch (Chen & Zhang): Depth
	// hash rows of M/Depth signed buckets. It is a perfectly ordinary
	// linear Φ — Updater, WindowStore, the push protocol and BOMP span
	// queries all work unchanged — but additionally answers single-key
	// point queries in O(Depth) with no recovery at all, via
	// Sketcher.NewPointState. Ingest is O(Depth) per pair; recovery
	// quality trails the Gaussian ensemble, so size M generously when
	// span top-k reports matter too.
	CountSketch = sensing.KindCountSketch
)

// Config parameterizes a Sketcher.
type Config struct {
	// M is the sketch length (measurement count). Larger M recovers more
	// outliers more reliably; communication per node is M·8 bytes.
	// Theorem 1 of the paper: M = O(sᵃ·log N) suffices for s outliers.
	M int
	// Seed is the consensus seed: all nodes participating in one
	// aggregation must use the same Seed (and M, Ensemble, key list).
	Seed uint64
	// MaxIterations caps BOMP's greedy iterations. 0 derives the
	// paper's R = f(k) ∈ [2k, 5k] from the query's k at Detect time.
	MaxIterations int
	// Ensemble selects the measurement family (default Gaussian).
	Ensemble Ensemble
	// Depth is the CountSketch hash-row count, in [1, 64] (0 = 5; odd
	// values make the point estimator's median an order statistic).
	// Each row gets M/Depth buckets. Ignored for Gaussian.
	Depth int
}

// Outlier is one detected outlier.
type Outlier struct {
	Key   string  // the key, from the global dictionary
	Value float64 // the recovered aggregated value
}

// Report is the answer to a k-outlier query.
type Report struct {
	// Outliers are the detected k-outliers, furthest-from-mode first.
	Outliers []Outlier
	// Mode is the recovered bias b the data concentrates around.
	Mode float64
	// Iterations is the number of recovery iterations spent.
	Iterations int
	// Residual is the final recovery residual norm ‖y − Φ·x̂‖₂ — the
	// measurement energy the recovered support does not explain. A
	// persistently high residual on a standing query means the data is
	// less sparse than the measurement budget assumes.
	Residual float64
	// Selection is the recovery engine's internal selection order for
	// this query (an opaque warm hint). A standing query should pass the
	// previous generation's Selection as Warm in the next DetectQuery/
	// DetectBatch call: recovery then fetches the columns it is about to
	// need in one pass instead of one at a time, at identical (bit-exact)
	// output. Safe to pass stale or to drop.
	Selection []int
}

// Sketch is a compressed representation of a node's key→value slice.
// Sketches with equal parameters form a vector space: Add and Sub
// combine and remove slices in O(M).
type Sketch struct {
	// Y is the raw measurement payload (length M). Serialize it any way
	// you like; it is the only thing a node ships.
	Y []float64

	m    int
	n    int
	seed uint64
	ens  Ensemble
	d    int // CountSketch depth (0 for Gaussian)
}

// Clone returns an independent copy.
func (s Sketch) Clone() Sketch {
	y := make([]float64, len(s.Y))
	copy(y, s.Y)
	c := s
	c.Y = y
	return c
}

// compatible reports whether two sketches may be combined.
func (s Sketch) compatible(o Sketch) error {
	if s.m != o.m || s.n != o.n || s.seed != o.seed || s.ens != o.ens || s.d != o.d {
		return fmt.Errorf("csoutlier: incompatible sketches (M=%d/%d, N=%d/%d, seed=%d/%d, ensemble=%d/%d, D=%d/%d)",
			s.m, o.m, s.n, o.n, s.seed, o.seed, s.ens, o.ens, s.d, o.d)
	}
	return nil
}

// Add accumulates another node's sketch (or an incremental-update
// sketch) into s.
func (s Sketch) Add(o Sketch) error {
	if err := s.compatible(o); err != nil {
		return err
	}
	for i, v := range o.Y {
		s.Y[i] += v
	}
	return nil
}

// Sub removes a node's sketch from s — e.g. a data center leaving the
// aggregation.
func (s Sketch) Sub(o Sketch) error {
	if err := s.compatible(o); err != nil {
		return err
	}
	for i, v := range o.Y {
		s.Y[i] -= v
	}
	return nil
}

// Sketcher compresses slices and recovers outliers for one fixed
// (key list, M, seed) consensus. It is safe for concurrent use.
type Sketcher struct {
	cfg    Config
	dict   *keydict.Dictionary
	spec   sensing.Spec   // the consensus: what every participant must share, D resolved
	matrix sensing.Matrix // sensing.New(spec): dense when affordable, seeded otherwise

	// gram is the matrix's Gram-column cache (Φᵀφₛ for the columns
	// recovery has selected), shared by every workspace below: what one
	// query computed, the next one — a later generation of the same
	// standing query, or another query on the same data — finds.
	gram *recovery.GramCache

	// wsHeld and ws recycle recovery workspaces across Detect/Recover
	// calls, so a standing query replaying BOMP on each refreshed sketch
	// reuses all recovery scratch (QR factorization and correlation
	// buffers) instead of reallocating it per query.
	// wsHeld is one strongly-held workspace in front of the pool: a pool
	// is emptied by two GCs in a row, and a warmed Sketcher serving one
	// query at a time must not re-grow ~2 MB of buffers whenever that
	// happens. The pool takes the overflow of concurrent queries.
	wsHeld atomic.Pointer[recovery.Workspace]
	ws     sync.Pool

	// colPool recycles M-length scratch vectors for column generation and
	// sparse measurement across every Updater and WindowStore bound to
	// this Sketcher. Generating a Φ column is O(M) PRNG work; doing it on
	// a pooled buffer outside the ingest mutexes is what lets concurrent
	// writers scale instead of serializing on the critical section.
	colPool sync.Pool

	// metrics, when installed by Instrument, observes every Detect call.
	// Loaded atomically so instrumented and uninstrumented Sketchers pay
	// the same lock-free read on the recovery path.
	metrics atomic.Pointer[detectMetrics]
}

// detectMetrics is the recovery path's observability: BOMP wall time,
// iterations spent, and the residual energy left unexplained.
type detectMetrics struct {
	seconds    *obs.Histogram
	iterations *obs.Histogram
	residual   *obs.Gauge
	detects    *obs.Counter

	// Exact work counters, both paths.
	gramHits      *obs.Counter
	gramMisses    *obs.Counter
	correlateCols *obs.Counter

	// Batch-engine metrics (DetectBatch / DetectQuery).
	batches      *obs.Counter
	batchQueries *obs.Counter
	batchWarm    *obs.Counter
	batchSeconds *obs.Histogram

	// bompPicks is recovery_solver_picks_total{solver="bomp"}: the family
	// predates the single-solver path and the end-to-end benchmark reads
	// it by that name.
	bompPicks *obs.Counter
}

// Instrument registers the recovery path's metrics in reg and starts
// observing every subsequent Detect call:
//
//	recovery_detect_seconds      — BOMP wall time per k-outlier query
//	recovery_detect_iterations   — greedy columns selected per query
//	recovery_residual_norm       — last query's final ‖y − Φ·x̂‖₂
//	recovery_detects_total       — queries answered by BOMP
//
// the exact work behind them:
//
//	recovery_gram_hits_total          — Gram columns Φᵀφₛ found in the cache
//	recovery_gram_misses_total        — Gram columns computed (one correlate each)
//	recovery_correlate_columns_total  — dictionary columns × vectors correlated
//	                                    with them: N per query, N per miss
//
// and the batch engine's (DetectBatch / DetectQuery):
//
//	recovery_batches_total         — batched recovery passes
//	recovery_batch_queries_total   — queries served batched
//	recovery_batch_warm_total      — of those, warm-hinted
//	recovery_batch_seconds         — wall time per batched pass
//
// plus, under the name dashboards and the end-to-end benchmark already
// read:
//
//	recovery_solver_picks_total{solver="bomp"} — queries answered, both paths
//
// Call it once at daemon startup with the registry served at
// -metrics-addr; it is safe (but pointless) to call more than once.
func (s *Sketcher) Instrument(reg *obs.Registry) {
	dm := &detectMetrics{
		seconds: reg.Histogram("recovery_detect_seconds",
			"BOMP recovery wall time per outlier query, in seconds", obs.LatencyBuckets()),
		iterations: reg.Histogram("recovery_detect_iterations",
			"greedy recovery iterations (columns selected) per outlier query", obs.ExpBuckets(1, 2, 12)),
		residual: reg.Gauge("recovery_residual_norm",
			"final recovery residual norm of the most recent outlier query"),
		detects: reg.Counter("recovery_detects_total",
			"outlier queries answered by BOMP recovery"),
		batches: reg.Counter("recovery_batches_total",
			"batched recovery passes (DetectBatch calls doing work)"),
		batchQueries: reg.Counter("recovery_batch_queries_total",
			"outlier queries served through the batched recovery engine"),
		batchWarm: reg.Counter("recovery_batch_warm_total",
			"batched queries that carried a warm-start hint"),
		gramHits: reg.Counter("recovery_gram_hits_total",
			"Gram columns recovery found in the Sketcher's cache"),
		gramMisses: reg.Counter("recovery_gram_misses_total",
			"Gram columns recovery had to compute, one correlate each"),
		correlateCols: reg.Counter("recovery_correlate_columns_total",
			"dictionary columns correlated, times the vectors correlated with them"),
		batchSeconds: reg.Histogram("recovery_batch_seconds",
			"wall time per batched recovery pass, in seconds", obs.LatencyBuckets()),
		bompPicks: reg.CounterVec("recovery_solver_picks_total",
			"outlier queries routed to each recovery solver", "solver").With("bomp"),
	}
	s.metrics.Store(dm)
}

// NewSketcher builds a Sketcher over the global key list. The key list
// defines the vectorization order; every participant must supply the
// same set of keys (order-insensitive — the dictionary canonicalizes by
// sorting).
func NewSketcher(keys []string, cfg Config) (*Sketcher, error) {
	if len(keys) == 0 {
		return nil, errors.New("csoutlier: empty key list")
	}
	if cfg.M <= 0 {
		return nil, fmt.Errorf("csoutlier: M must be positive, got %d", cfg.M)
	}
	b := keydict.NewBuilder()
	b.AddAll(keys)
	if b.Len() != len(keys) {
		return nil, fmt.Errorf("csoutlier: key list contains %d duplicates", len(keys)-b.Len())
	}
	dict := b.Freeze()
	if cfg.M > dict.N() {
		return nil, fmt.Errorf("csoutlier: M=%d exceeds key-space size N=%d (no compression)", cfg.M, dict.N())
	}
	spec := sensing.Spec{
		Params: sensing.Params{M: cfg.M, N: dict.N(), Seed: cfg.Seed},
		Kind:   cfg.Ensemble,
		D:      cfg.Depth,
	}.Resolve()
	mat, err := sensing.New(spec, 0)
	if err != nil {
		return nil, err
	}
	return &Sketcher{cfg: cfg, dict: dict, spec: spec, matrix: mat, gram: recovery.NewGramCache(mat)}, nil
}

// N returns the key-space size.
func (s *Sketcher) N() int { return s.dict.N() }

// M returns the sketch length.
func (s *Sketcher) M() int { return s.spec.M }

// Keys returns the canonical (sorted) key order.
func (s *Sketcher) Keys() []string { return s.dict.Keys() }

// CompressionRatio returns M/N — the fraction of ALL-shipping
// communication a sketch costs.
func (s *Sketcher) CompressionRatio() float64 { return s.spec.CompressionRatio() }

// sketchID returns this sketcher's consensus identity without a payload
// — enough for compatibility checks, with no O(M) allocation.
func (s *Sketcher) sketchID() Sketch {
	return Sketch{m: s.spec.M, n: s.spec.N, seed: s.spec.Seed, ens: s.spec.Kind, d: s.spec.D}
}

// emptySketch returns a zero sketch with this sketcher's identity.
func (s *Sketcher) emptySketch() Sketch {
	out := s.sketchID()
	out.Y = make([]float64, s.spec.M)
	return out
}

// getCol checks an M-length scratch vector out of the shared pool.
func (s *Sketcher) getCol() *linalg.Vector {
	if v, ok := s.colPool.Get().(*linalg.Vector); ok {
		return v
	}
	v := make(linalg.Vector, s.spec.M)
	return &v
}

// putCol returns a scratch vector to the pool.
func (s *Sketcher) putCol(v *linalg.Vector) { s.colPool.Put(v) }

// ZeroSketch returns an all-zero sketch, the identity for Add — useful
// as an accumulator at the aggregator.
func (s *Sketcher) ZeroSketch() Sketch { return s.emptySketch() }

// SketchPairs compresses a node's local aggregation, given as key→value
// pairs. Keys must come from the global key list; missing keys simply
// contribute zero. This is the node-side operation (CS-Mapper).
func (s *Sketcher) SketchPairs(pairs map[string]float64) (Sketch, error) {
	idx, vals, err := s.dict.SparseVectorize(pairs)
	if err != nil {
		return Sketch{}, err
	}
	if err := checkFinite(vals); err != nil {
		return Sketch{}, err
	}
	out := s.emptySketch()
	s.matrix.MeasureSparse(idx, vals, out.Y)
	return out, nil
}

// SketchVector compresses an already-vectorized slice (values in the
// canonical key order, length N).
func (s *Sketcher) SketchVector(x []float64) (Sketch, error) {
	if len(x) != s.spec.N {
		return Sketch{}, fmt.Errorf("csoutlier: vector length %d, want N=%d", len(x), s.spec.N)
	}
	if err := checkFinite(x); err != nil {
		return Sketch{}, err
	}
	out := s.emptySketch()
	s.matrix.Measure(x, out.Y)
	return out, nil
}

// FromPayload reconstructs a Sketch around a raw payload received from
// a node (length must be M).
func (s *Sketcher) FromPayload(y []float64) (Sketch, error) {
	if len(y) != s.spec.M {
		return Sketch{}, fmt.Errorf("csoutlier: payload length %d, want M=%d", len(y), s.spec.M)
	}
	if err := checkFinite(y); err != nil {
		return Sketch{}, err
	}
	out := s.emptySketch()
	copy(out.Y, y)
	return out, nil
}

// workspace checks a recovery workspace out: the held one when no other
// query has it, else one from the pool.
func (s *Sketcher) workspace() *recovery.Workspace {
	if ws := s.wsHeld.Swap(nil); ws != nil {
		return ws
	}
	if ws, ok := s.ws.Get().(*recovery.Workspace); ok {
		return ws
	}
	return s.gram.NewWorkspace()
}

// putWorkspace returns a checked-out workspace, refilling the held slot
// first.
func (s *Sketcher) putWorkspace(ws *recovery.Workspace) {
	if !s.wsHeld.CompareAndSwap(nil, ws) {
		s.ws.Put(ws)
	}
}

// iterations is BOMP's iteration budget for a k-outlier query:
// Config.MaxIterations, or the paper's R = f(k) when that is 0.
func (s *Sketcher) iterations(k int) int {
	if s.cfg.MaxIterations != 0 {
		return s.cfg.MaxIterations
	}
	return recovery.IterationBudget(k)
}

// Detect recovers the k-outliers and the mode from an aggregated global
// sketch by BOMP recovery (the aggregator-side operation, CS-Reducer).
func (s *Sketcher) Detect(global Sketch, k int) (*Report, error) {
	if err := global.compatible(s.sketchID()); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("csoutlier: k must be positive, got %d", k)
	}
	iters := s.iterations(k)
	var start time.Time
	m := s.metrics.Load()
	if m != nil {
		start = time.Now()
	}
	ws := s.workspace()
	defer s.putWorkspace(ws)
	res, err := ws.BOMP(s.matrix, global.Y, recovery.Options{MaxIterations: iters})
	if err != nil {
		return nil, err
	}
	if m != nil {
		m.seconds.Observe(time.Since(start).Seconds())
		m.iterations.Observe(float64(res.Iterations))
		m.residual.Set(res.Residual)
		m.detects.Inc()
		m.bompPicks.Inc()
		m.observeGram(ws.GramStats())
	}
	return s.reportFromResult(res, k), nil
}

func (m *detectMetrics) observeGram(g recovery.GramStats) {
	m.gramHits.Add(int64(g.Hits))
	m.gramMisses.Add(int64(g.Misses))
	m.correlateCols.Add(int64(g.CorrelateColumns))
}

// reportFromResult packages a recovery result into a Report, copying
// everything out of the workspace-owned slices so the workspace can go
// back to the pool.
func (s *Sketcher) reportFromResult(res *recovery.Result, k int) *Report {
	cands := make([]outlier.KV, len(res.Support))
	for i, j := range res.Support {
		cands[i] = outlier.KV{Index: j, Value: res.X[j]}
	}
	top := outlier.TopKOf(cands, res.Mode, k)
	rep := &Report{
		Mode:       res.Mode,
		Iterations: res.Iterations,
		Residual:   res.Residual,
		Selection:  append([]int(nil), res.Selection...),
	}
	for _, kv := range top {
		rep.Outliers = append(rep.Outliers, Outlier{Key: s.dict.Key(kv.Index), Value: kv.Value})
	}
	return rep
}

// BatchQuery is one query in a DetectBatch call.
type BatchQuery struct {
	// Global is the aggregated sketch to recover from.
	Global Sketch
	// K is the number of outliers to report.
	K int
	// Warm is the previous generation's Report.Selection for this
	// standing query, or nil for a cold solve. Stale hints are safe: the
	// answer is bit-identical to a cold Detect either way.
	Warm []int
}

// DetectQuery is Detect with a warm-start hint: a standing query passes
// the previous generation's Report.Selection to amortize the recovery
// work across generations. The report is bit-identical to Detect's.
func (s *Sketcher) DetectQuery(global Sketch, k int, warm []int) (*Report, error) {
	reps, err := s.DetectBatch([]BatchQuery{{Global: global, K: k, Warm: warm}})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// DetectBatch answers many outlier queries in one pass through the
// batched recovery engine: every query's first correlation and every
// Gram column a warm hint names that the cache lacks go through a single
// block kernel call that regenerates each dictionary column once for the
// whole batch. Each report is bit-identical to an independent Detect on
// the same sketch.
func (s *Sketcher) DetectBatch(queries []BatchQuery) ([]*Report, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	id := s.sketchID()
	items := make([]recovery.BatchItem, len(queries))
	for i, q := range queries {
		if err := q.Global.compatible(id); err != nil {
			return nil, fmt.Errorf("csoutlier: batch query %d: %w", i, err)
		}
		if q.K <= 0 {
			return nil, fmt.Errorf("csoutlier: batch query %d: k must be positive, got %d", i, q.K)
		}
		items[i] = recovery.BatchItem{Y: q.Global.Y, Warm: q.Warm, Opt: recovery.Options{MaxIterations: s.iterations(q.K)}}
	}
	m := s.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}

	// One workspace per query, held until its report is built: results
	// alias them.
	wss := make([]*recovery.Workspace, len(queries))
	for i := range wss {
		wss[i] = s.workspace()
	}
	defer func() {
		for _, ws := range wss {
			s.putWorkspace(ws)
		}
	}()
	results, stats, err := recovery.BOMPBatch(s.matrix, wss, items)
	if err != nil {
		return nil, err
	}

	reports := make([]*Report, len(results))
	for i, res := range results {
		reports[i] = s.reportFromResult(res, queries[i].K)
		if m != nil {
			m.iterations.Observe(float64(res.Iterations))
			m.residual.Set(res.Residual)
		}
	}
	if m != nil {
		m.batchSeconds.Observe(time.Since(start).Seconds())
		m.batches.Inc()
		m.detects.Add(int64(len(queries)))
		m.bompPicks.Add(int64(len(queries)))
		m.batchQueries.Add(int64(stats.Items))
		m.batchWarm.Add(int64(stats.Warm))
		m.observeGram(stats.GramStats)
	}
	return reports, nil
}

// Recover reconstructs the full (approximate) global aggregate from the
// sketch: the mode everywhere except on the recovered support. maxIters
// ≤ 0 uses min(M, N+1).
func (s *Sketcher) Recover(global Sketch, maxIters int) (map[string]float64, float64, error) {
	if err := global.compatible(s.sketchID()); err != nil {
		return nil, 0, err
	}
	ws := s.workspace()
	defer s.putWorkspace(ws)
	res, err := ws.BOMP(s.matrix, global.Y, recovery.Options{MaxIterations: maxIters})
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]float64, len(res.Support))
	for _, j := range res.Support {
		out[s.dict.Key(j)] = res.X[j]
	}
	return out, res.Mode, nil
}

// ExactOutliers answers the k-outlier query on uncompressed data — the
// transmit-ALL ground truth, provided for validation and for callers
// that want the same ranking semantics without sketching. The mode is
// the exact majority value when one exists, else the supplied data's
// value closest to the recovered concentration is not defined and 0 is
// used.
func ExactOutliers(pairs map[string]float64, k int) ([]Outlier, float64) {
	keys := make([]string, 0, len(pairs))
	for key := range pairs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	x := make([]float64, len(keys))
	for i, key := range keys {
		x[i] = pairs[key]
	}
	mode, _ := outlier.Mode(x)
	top := outlier.TopK(x, mode, k)
	out := make([]Outlier, len(top))
	for i, kv := range top {
		out[i] = Outlier{Key: keys[kv.Index], Value: kv.Value}
	}
	return out, mode
}
