// Package cluster is the pull protocol of the reproduction: the
// shared-nothing node/aggregator topology from the paper's §1 and §3, a
// single-round sketch-collection protocol with failure as the normal
// case, and the round's communication cost at the paper's 64 bits per
// measurement (§6.1.2).
//
// A node holds a vectorized local slice x_l (ordered by the global key
// dictionary) and answers a small query API; the aggregator fans a
// request out to all nodes in parallel and sums the responses, and the
// caller recovers. Two node implementations exist: LocalNode (in
// process; cmd/csnode serves one) and the TCP client/server in
// transport.go (a real networked deployment over net and the binary
// frames of internal/frame — the push stream's codec with the pull
// protocol's own kinds — used by cmd/csnode and, through
// Sketcher.DetectCluster, cmd/csagg). The wire carries the paper's round
// and nothing else: a node's ID and its sketch.
package cluster

import (
	"context"
	"fmt"
	"sync"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
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

// FullVector returns a copy of the entire local slice: the exact oracle
// the benchmark's oneshot_pull workload checks each round against. The
// pull wire does not carry it.
func (n *LocalNode) FullVector(ctx context.Context) (linalg.Vector, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.x.Clone(), nil
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
