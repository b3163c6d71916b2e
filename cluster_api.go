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
	// NodeTimeout bounds each sketch attempt against one node
	// (0 = default 10s; <0 = only ctx bounds it).
	NodeTimeout time.Duration
	// MaxAttempts is how many times a node is asked before it is
	// declared failed (0 = default 2).
	MaxAttempts int
	// DialRetries is the transport-level retry budget per RPC: a broken
	// connection is re-dialed with backoff this many times before the
	// attempt fails (0 = default 2; <0 disables).
	DialRetries int
	// QuorumGrace bounds the extra wait for stragglers once the quorum
	// is reached (0 = keep waiting for all nodes or ctx).
	QuorumGrace time.Duration
	// BackoffSeed seeds every retry-jitter RNG the query uses (one per
	// dialed node plus the collector's per-node retry streams), making
	// the whole pull path's timing deterministic for a given seed —
	// simtest plumbs the scenario seed through here. 0 keeps the
	// per-address default seeding (still deterministic, but not
	// scenario-scoped).
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

	dialOpts := cluster.DialOptions{
		RequestTimeout: nodeTimeout,
		MaxRetries:     opts.DialRetries,
	}
	if nodeTimeout == 0 {
		dialOpts.RequestTimeout = -1
	}

	// Dial everyone concurrently; a dead address is a failed node, not a
	// failed query.
	remotes := make([]*cluster.RemoteNode, len(addrs))
	dialErrs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			do := dialOpts
			if opts.BackoffSeed != 0 {
				// Decorrelate per-node jitter streams off the one seed.
				do.BackoffSeed = opts.BackoffSeed + uint64(i+1)*0x9e3779b97f4a7c15
			}
			remotes[i], dialErrs[i] = cluster.DialContext(ctx, addr, do)
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

	part, err := cluster.CollectSketchesCtx(ctx, nodes, s.spec, cluster.CollectOptions{
		MinNodes:    min,
		MaxAttempts: opts.MaxAttempts,
		NodeTimeout: nodeTimeout,
		QuorumGrace: opts.QuorumGrace,
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

	global, err := s.FromPayload(part.Sketch)
	if err != nil {
		return rep, err
	}
	out, err := s.Detect(global, k)
	if err != nil {
		return rep, err
	}
	rep.Report = *out
	return rep, nil
}
