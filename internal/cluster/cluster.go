// Package cluster is the distributed substrate of the reproduction: the
// shared-nothing node/aggregator topology from the paper's §1 and §3, a
// single-round sketch-collection protocol with failure as the normal
// case, and exact communication-cost accounting using the paper's
// wire-size constants (§6.1.2).
//
// A node holds a vectorized local slice x_l (ordered by the global key
// dictionary) and answers a small query API; the aggregator fans a
// request out to all nodes in parallel, combines the responses, and runs
// recovery. Two node implementations exist: LocalNode (in-process, used
// by the experiment harness) and the TCP client/server in transport.go
// (a real networked deployment over net and the binary frames of
// internal/frame — the push stream's codec with the pull protocol's own
// kinds — used by cmd/csnode and cmd/csagg).
package cluster

import (
	"context"
	"fmt"
	"sync"

	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
)

// Wire sizes from the paper's cost model (§6.1.2): a vectorized value or
// a measurement is 64 bits, a keyid–value tuple is 96 bits.
const (
	BytesPerValue       = 8
	BytesPerTuple       = 12
	BytesPerMeasurement = 8
)

// NodeAPI is the query surface a remote node exposes to the aggregator.
// Every method is one message exchange; implementations must be safe for
// concurrent use and MUST honor context cancellation — when ctx is done,
// a blocked call has to return promptly (with ctx.Err() or a wrapped
// deadline error). The fault-tolerant collector relies on this to cancel
// stragglers without leaking goroutines.
type NodeAPI interface {
	// ID identifies the node (e.g. a data-center name).
	ID() string
	// Sketch measures the local slice with the shared matrix spec
	// (consensus parameters + ensemble) and returns y_l = Φ₀·x_l
	// (paper §3.1 "Local Compression").
	Sketch(ctx context.Context, spec sensing.Spec) (linalg.Vector, error)
	// FullVector returns the entire local slice — the transmit-ALL
	// baseline's request.
	FullVector(ctx context.Context) (linalg.Vector, error)
	// SampleValues returns the local values at the given key positions —
	// round 1 of the K+δ baseline.
	SampleValues(ctx context.Context, idx []int) ([]float64, error)
	// LocalOutliers returns the node's top-count local outliers with
	// respect to the supplied mode — round 3 of the K+δ baseline.
	LocalOutliers(ctx context.Context, mode float64, count int) ([]outlier.KV, error)
}

// LocalNode is an in-process NodeAPI over a vectorized slice.
type LocalNode struct {
	name string
	mu   sync.RWMutex
	x    linalg.Vector

	// phi is the measurement matrix of the last spec a Sketch request
	// carried, see matrix. One slot per node: nodes of one process share
	// nothing, as nodes of a deployment cannot.
	phiMu   sync.Mutex
	phiSpec sensing.Spec
	phi     sensing.Matrix
}

// NewLocalNode wraps a vectorized slice. The slice is NOT copied; use
// Update to mutate it afterwards.
func NewLocalNode(name string, x linalg.Vector) *LocalNode {
	return &LocalNode{name: name, x: x}
}

// ID implements NodeAPI.
func (n *LocalNode) ID() string { return n.name }

// Sketch implements NodeAPI. Between rounds the node holds Φ₀ for the
// spec it served last, so a standing aggregator pays one y_l = Φ₀·x_l
// per round and nothing else; Update cannot stale it, because Φ₀ is a
// function of the spec alone.
func (n *LocalNode) Sketch(ctx context.Context, spec sensing.Spec) (linalg.Vector, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if spec.N != len(n.x) {
		return nil, fmt.Errorf("cluster: node %s holds N=%d, request says N=%d", n.name, len(n.x), spec.N)
	}
	m, err := n.matrix(spec)
	if err != nil {
		return nil, err
	}
	return m.Measure(n.x, nil), nil
}

// nodeDenseLimit is the largest M·N a node stores Gaussian Φ₀ for
// (32 MB); above it columns are regenerated per measurement, so what a
// node holds between rounds stays bounded whatever N is.
const nodeDenseLimit = 1 << 22

// matrix returns Φ₀ for spec: the held one when spec is the last one
// served, a new one that replaces it otherwise. Building under the lock
// makes concurrent first requests for one spec build it once.
func (n *LocalNode) matrix(spec sensing.Spec) (sensing.Matrix, error) {
	n.phiMu.Lock()
	defer n.phiMu.Unlock()
	if n.phi != nil && n.phiSpec == spec {
		return n.phi, nil
	}
	m, err := sensing.New(spec, nodeDenseLimit)
	if err != nil {
		return nil, err
	}
	n.phiSpec, n.phi = spec, m
	return m, nil
}

// FullVector implements NodeAPI.
func (n *LocalNode) FullVector(ctx context.Context) (linalg.Vector, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.x.Clone(), nil
}

// SampleValues implements NodeAPI.
func (n *LocalNode) SampleValues(ctx context.Context, idx []int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]float64, len(idx))
	for i, j := range idx {
		if j < 0 || j >= len(n.x) {
			return nil, fmt.Errorf("cluster: sample index %d out of [0,%d)", j, len(n.x))
		}
		out[i] = n.x[j]
	}
	return out, nil
}

// LocalOutliers implements NodeAPI.
func (n *LocalNode) LocalOutliers(ctx context.Context, mode float64, count int) ([]outlier.KV, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return outlier.TopK(n.x, mode, count), nil
}

// Update adds delta into the node's slice in place — the incremental
// new-data path (paper §1 challenge 2: terabytes of new click logs every
// 10 minutes). The next Sketch reflects the update; a standing sketch
// can equivalently be patched with sensing.AddSketch of Φ₀·delta.
func (n *LocalNode) Update(delta linalg.Vector) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(delta) != len(n.x) {
		return fmt.Errorf("cluster: update length %d, node holds %d", len(delta), len(n.x))
	}
	n.x.Add(delta)
	return nil
}

// CommStats records the logical communication and the transport effort
// of one aggregation. Bytes/Messages/Rounds use the paper's cost model;
// the attempt counters come from the fault-tolerant collection path
// (zero on the strict, non-retrying paths).
type CommStats struct {
	Bytes    int64 // total payload bytes, paper constants
	Messages int   // node→aggregator or aggregator→node messages
	Rounds   int   // protocol rounds (CS and ALL: 1; K+δ: 3)
	Attempts int   // sketch RPCs attempted, including retries
	Retries  int   // attempts beyond each node's first
	Timeouts int   // attempts that died on a deadline
}

// Add accumulates other into s.
func (s *CommStats) Add(other CommStats) {
	s.Bytes += other.Bytes
	s.Messages += other.Messages
	if other.Rounds > s.Rounds {
		s.Rounds = other.Rounds
	}
	s.Attempts += other.Attempts
	s.Retries += other.Retries
	s.Timeouts += other.Timeouts
}

// CollectSketches asks every node for its sketch in parallel, sums them
// into the global measurement y = Σ y_l (paper eq. 1), and accounts
// L·M·8 bytes of communication in one round. It is the strict (all
// nodes must answer) path; CollectSketchesCtx adds deadlines, retries
// and quorum semantics.
func CollectSketches(nodes []NodeAPI, spec sensing.Spec) (linalg.Vector, CommStats, error) {
	if len(nodes) == 0 {
		return nil, CommStats{}, fmt.Errorf("cluster: no nodes")
	}
	ctx := context.Background()
	ys := make([]linalg.Vector, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node NodeAPI) {
			defer wg.Done()
			ys[i], errs[i] = node.Sketch(ctx, spec)
		}(i, node)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, CommStats{}, fmt.Errorf("cluster: node %s: %w", nodes[i].ID(), err)
		}
	}
	global := make(linalg.Vector, spec.M)
	for i, y := range ys {
		if len(y) != spec.M {
			return nil, CommStats{}, fmt.Errorf("cluster: node %s returned sketch of length %d, want %d", nodes[i].ID(), len(y), spec.M)
		}
		sensing.AddSketch(global, y)
	}
	stats := CommStats{
		Bytes:    int64(len(nodes)) * sensing.SketchBytes(spec.M),
		Messages: len(nodes),
		Rounds:   1,
	}
	return global, stats, nil
}

// DetectResult is the aggregator's answer to a k-outlier query.
type DetectResult struct {
	Outliers []outlier.KV // the k detected outliers, strongest first
	Mode     float64      // recovered mode b
	Recovery *recovery.Result
	Stats    CommStats
}

// Detect runs the paper's full pipeline: collect sketches, recover with
// BOMP using the R = f(k) iteration budget, and select the k recovered
// entries furthest from the recovered mode.
func Detect(nodes []NodeAPI, p sensing.Params, k int, opt recovery.Options) (*DetectResult, error) {
	spec := sensing.GaussianSpec(p)
	y, stats, err := CollectSketches(nodes, spec)
	if err != nil {
		return nil, err
	}
	res, err := DetectSketch(y, spec, k, opt)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}

// DetectSketch runs the aggregator-side recovery on an already-collected
// global sketch — for callers that gathered sketches themselves (e.g.
// via CollectSketchesCtx with a quorum, or over a custom transport).
func DetectSketch(y linalg.Vector, spec sensing.Spec, k int, opt recovery.Options) (*DetectResult, error) {
	m, err := sensing.New(spec, 0)
	if err != nil {
		return nil, err
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = recovery.IterationBudget(k)
	}
	res, err := recovery.BOMP(m, y, opt)
	if err != nil {
		return nil, err
	}
	cands := make([]outlier.KV, len(res.Support))
	for i, j := range res.Support {
		cands[i] = outlier.KV{Index: j, Value: res.X[j]}
	}
	return &DetectResult{
		Outliers: outlier.TopKOf(cands, res.Mode, k),
		Mode:     res.Mode,
		Recovery: res,
	}, nil
}
