package csoutlier

import (
	"context"
	"fmt"
	"sync"
	"time"

	"csoutlier/internal/cluster"
)

// ClusterOptions tunes DetectCluster's fault tolerance. The zero value
// requires every node, makes two attempts per node, and bounds each
// RPC at 10 seconds.
type ClusterOptions struct {
	// MinNodes is the quorum: proceed once this many node sketches are
	// in (0 = require all). Sketch linearity makes the partial sum the
	// exact sketch of the aggregate over the responders, so a smaller
	// quorum trades data-window coverage for availability — it never
	// corrupts the answer over the nodes that are in.
	MinNodes int
	// NodeTimeout bounds the dial and each sketch attempt against one
	// node (0 = default 10s; <0 = only ctx bounds them).
	NodeTimeout time.Duration
	// MaxAttempts is how many times a node is asked for its sketch before
	// it is declared failed (0 = default 2). Every attempt is one
	// exchange; one that follows a broken connection dials a fresh one.
	MaxAttempts int
	// BackoffSeed seeds the retry jitter between a node's attempts (one
	// stream per node, split off this seed by node ID), making the pull
	// path's timing deterministic for a given seed — simtest plumbs the
	// scenario seed through here. 0 uses a fixed default seed (still
	// deterministic, but not scenario-scoped).
	BackoffSeed uint64
}

// NodeReport is one node's view of a DetectCluster run.
type NodeReport struct {
	Addr     string        // address as given to DetectCluster
	ID       string        // node-reported name ("" when dialing failed)
	Included bool          // whether its sketch is in the aggregate
	Err      string        // terminal error when not included
	Attempts int           // sketch attempts made against it
	Retries  int           // attempts beyond the first
	Timeouts int           // attempts that died on a deadline
	Redials  int           // transport connections re-established
	RTT      time.Duration // round-trip time of the last attempt
	Bytes    int64         // raw wire bytes exchanged (both directions)
}

// ClusterStats aggregates the communication cost of a DetectCluster
// run across all nodes.
type ClusterStats struct {
	Bytes    int64 // sketch payload bytes shipped
	Messages int   // successful sketch responses
	Rounds   int   // communication rounds (always 1 for CS collection)
	Attempts int   // sketch RPCs attempted, including retries
	Retries  int   // attempts beyond each node's first
	Timeouts int   // attempts that died on a deadline
}

// ClusterReport is DetectCluster's answer: the outlier report plus
// exactly which nodes the aggregate covers and what collecting it cost.
type ClusterReport struct {
	Report
	// Global is the summed sketch the report was recovered from — for
	// further queries on the same aggregate (Aggregate, DetectQuery)
	// without another round. Zero when the quorum was missed.
	Global   Sketch
	Included []string     // IDs of nodes whose sketches are in the sum
	Failed   []NodeReport // nodes excluded (dial failures and RPC failures)
	Nodes    []NodeReport // every node, in addrs order
	Stats    ClusterStats
}

// DetectCluster runs the full distributed query against csnode servers:
// dial every address, collect compatible sketches in one fault-tolerant
// round (per-node retries, deadlines, straggler drop), sum them, and
// recover the k-outliers and mode from the aggregate.
//
// Failures are part of the result, not only the error path: a node that
// cannot be dialed or never produces a sketch within its attempts is
// excluded and reported in Failed, and the query still succeeds as long
// as opts.MinNodes sketches arrive. The returned report says exactly
// which nodes the answer covers and what each one cost (attempts,
// retries, timeouts, RTT, wire bytes).
//
// Every node must run with the same key dictionary as this Sketcher;
// the spec shipped with the request carries the rest of the consensus
// (M, seed, ensemble).
func (s *Sketcher) DetectCluster(ctx context.Context, addrs []string, k int, opts ClusterOptions) (*ClusterReport, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("csoutlier: no node addresses")
	}
	if k <= 0 {
		return nil, fmt.Errorf("csoutlier: k must be positive, got %d", k)
	}
	min := opts.MinNodes
	if min <= 0 || min > len(addrs) {
		min = len(addrs)
	}
	nodeTimeout := opts.NodeTimeout
	if nodeTimeout == 0 {
		nodeTimeout = 10 * time.Second
	} else if nodeTimeout < 0 {
		nodeTimeout = 0
	}

	// Dial everyone concurrently, one exchange each under the node
	// timeout; a dead address is a failed node, not a failed query.
	remotes := make([]*cluster.RemoteNode, len(addrs))
	dialErrs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			dctx, cancel := ctx, func() {}
			if nodeTimeout > 0 {
				dctx, cancel = context.WithTimeout(ctx, nodeTimeout)
			}
			defer cancel()
			remotes[i], dialErrs[i] = cluster.Dial(dctx, addr)
		}(i, addr)
	}
	wg.Wait()

	rep := &ClusterReport{Nodes: make([]NodeReport, len(addrs))}
	var nodes []cluster.NodeAPI
	live := make(map[string]int) // node ID → index into rep.Nodes
	for i, addr := range addrs {
		nr := &rep.Nodes[i]
		nr.Addr = addr
		if dialErrs[i] != nil {
			nr.Err = dialErrs[i].Error()
			continue
		}
		rn := remotes[i]
		defer rn.Close()
		nr.ID = rn.ID()
		if _, dup := live[rn.ID()]; dup {
			nr.Err = fmt.Sprintf("duplicate node ID %q (already dialed at another address)", rn.ID())
			continue
		}
		live[rn.ID()] = i
		nodes = append(nodes, rn)
	}
	if len(nodes) < min {
		for _, nr := range rep.Nodes {
			if nr.Err != "" {
				rep.Failed = append(rep.Failed, nr)
			}
		}
		return rep, fmt.Errorf("csoutlier: only %d/%d nodes reachable (need %d)", len(nodes), len(addrs), min)
	}

	part, err := cluster.CollectSketches(ctx, nodes, s.spec, cluster.CollectOptions{
		MinNodes:    min,
		MaxAttempts: opts.MaxAttempts,
		NodeTimeout: nodeTimeout,
		BackoffSeed: opts.BackoffSeed,
	})

	// Fold the collection's per-node stats and the transport health into
	// the report, whether or not the collection met its quorum.
	for id, ns := range part.Nodes {
		i, ok := live[id]
		if !ok {
			continue
		}
		nr := &rep.Nodes[i]
		nr.Included = ns.OK
		nr.Err = ns.Err
		nr.Attempts = ns.Attempts
		nr.Retries = ns.Retries
		nr.Timeouts = ns.Timeouts
		nr.RTT = ns.RTT
		h := remotes[i].Health()
		nr.Redials = h.Redials
		nr.Bytes = h.BytesRead + h.BytesWritten
	}
	for _, nr := range rep.Nodes {
		if !nr.Included {
			rep.Failed = append(rep.Failed, nr)
		}
	}
	rep.Included = part.Included
	rep.Stats = ClusterStats{
		Bytes:    part.Stats.Bytes,
		Messages: part.Stats.Messages,
		Rounds:   part.Stats.Rounds,
		Attempts: part.Stats.Attempts,
		Retries:  part.Stats.Retries,
		Timeouts: part.Stats.Timeouts,
	}
	if err != nil {
		return rep, fmt.Errorf("csoutlier: cluster collection failed: %w", err)
	}

	global, err := s.fromPayload(part.Sketch)
	if err != nil {
		return rep, err
	}
	out, err := s.Detect(global, k)
	if err != nil {
		return rep, err
	}
	rep.Report, rep.Global = *out, global
	return rep, nil
}
