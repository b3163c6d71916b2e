package tier

import (
	"context"
	"errors"
	"fmt"

	"csoutlier"
	"csoutlier/internal/stream"
)

// ShardedNode is a data center's leaf presence in a sharded
// deployment: one stream.Node per shard, all sharing a logical
// identity, with observations routed to the owning shard's sketch by
// the ShardMap. Each per-shard node speaks the ordinary push protocol
// to its shard's relay (or root) — sharding is invisible one level up.
type ShardedNode struct {
	m     *ShardMap
	nodes []*stream.Node
}

// DialSharded connects one leaf node per shard. addrs[i] is shard i's
// push-listener address, sks[i] its measurement consensus (from
// ShardMap.Sketchers). opts applies to every shard node. Each shard
// node is its own incarnation with its own epoch, and its jitter is
// seeded from its shard's consensus, so the shard connections do not
// reconnect in lockstep.
func DialSharded(ctx context.Context, m *ShardMap, sks []*csoutlier.Sketcher, addrs []string, id string, opts stream.NodeOptions) (*ShardedNode, error) {
	if len(sks) != m.Shards() || len(addrs) != m.Shards() {
		return nil, fmt.Errorf("tier: sharded node needs %d sketchers and addresses, got %d and %d",
			m.Shards(), len(sks), len(addrs))
	}
	sn := &ShardedNode{m: m, nodes: make([]*stream.Node, m.Shards())}
	for i := range sn.nodes {
		n, err := stream.Dial(ctx, addrs[i], sks[i], id, opts)
		if err != nil {
			for _, prev := range sn.nodes[:i] {
				prev.Abort()
			}
			return nil, fmt.Errorf("tier: shard %d: %w", i, err)
		}
		sn.nodes[i] = n
	}
	return sn, nil
}

// Observe routes one observation to the owning shard's standing
// sketch. O(M_shard), no network.
func (sn *ShardedNode) Observe(key string, delta float64) error {
	return sn.nodes[sn.m.Route(key)].Observe(key, delta)
}

// Node returns shard i's underlying stream node (stats, tests).
func (sn *ShardedNode) Node(i int) *stream.Node { return sn.nodes[i] }

// Flush captures and pushes every shard's pending deltas, in shard
// order.
func (sn *ShardedNode) Flush(ctx context.Context) error {
	var errs []error
	for i, n := range sn.nodes {
		if err := n.Flush(ctx); err != nil {
			errs = append(errs, fmt.Errorf("tier: shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Sync heartbeats every shard connection (adopting each tree's current
// window) and drains pending frames, in shard order.
func (sn *ShardedNode) Sync(ctx context.Context) error {
	var errs []error
	for i, n := range sn.nodes {
		if err := n.Sync(ctx); err != nil {
			errs = append(errs, fmt.Errorf("tier: shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Close flushes and disconnects every shard node, in shard order.
func (sn *ShardedNode) Close(ctx context.Context) error {
	var errs []error
	for i, n := range sn.nodes {
		if err := n.Close(ctx); err != nil {
			errs = append(errs, fmt.Errorf("tier: shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Abort drops every shard connection and all pending frames — a crash.
func (sn *ShardedNode) Abort() {
	for _, n := range sn.nodes {
		n.Abort()
	}
}
