package csoutlier

import (
	"context"
	"fmt"

	"csoutlier/internal/cluster"
)

// ClusterOptions tunes DetectCluster's fault tolerance: the quorum, the
// per-node deadline, the attempts per node and the retry jitter's seed.
// The zero value requires every node, makes two attempts per node, and
// bounds each exchange at 10 seconds.
type ClusterOptions = cluster.Options

// NodeReport is one node's view of a DetectCluster round: its address
// and ID, whether its sketch is in the sum or why not, and what asking
// it cost (attempts, retries, timeouts, redials, last RTT, wire bytes).
type NodeReport = cluster.NodeReport

// ClusterStats is what a DetectCluster round cost across all nodes:
// sketch bytes, messages and rounds, and the attempts, retries and
// timeouts it took.
type ClusterStats = cluster.Stats

// ClusterReport is DetectCluster's answer: the outlier report plus
// exactly which nodes the aggregate covers and what collecting it cost.
// The embedded round holds Included (IDs of nodes whose sketches are in
// the sum), Failed (nodes excluded: dial, duplicate-ID and sketch
// failures), Nodes (every node, in addrs order) and Stats.
type ClusterReport struct {
	Report
	// Global is the summed sketch the report was recovered from — for
	// further queries on the same aggregate (Aggregate, DetectQuery)
	// without another round. Zero when the quorum was missed.
	Global Sketch
	cluster.Round
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
	if k <= 0 {
		return nil, fmt.Errorf("csoutlier: k must be positive, got %d", k)
	}
	sum, round, err := cluster.Collect(ctx, addrs, s.spec, opts)
	if round == nil {
		return nil, fmt.Errorf("csoutlier: %w", err)
	}
	rep := &ClusterReport{Round: *round}
	if err != nil {
		return rep, fmt.Errorf("csoutlier: %w", err)
	}
	global, err := s.fromPayload(sum)
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
