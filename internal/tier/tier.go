// Package tier composes the push pipeline (internal/stream) into a
// hierarchical, sharded aggregation topology — the paper's own
// geo-distributed argument taken to its structural conclusion. Because
// sketches are linear (y = Φ·x, so Φ·(x₁+x₂) = Φ·x₁ + Φ·x₂), a tree of
// aggregators computes exactly the flat fold: a Relay accepts node
// pushes on its own listener, folds them into its regional window ring,
// and forwards the *folded* per-window sketch upward as a single delta
// frame — the root's windows stay bit-identical to what a single global
// aggregator would hold, while its fan-in drops from every node to one
// frame per (relay, window, forward).
//
// Key-space sharding is the orthogonal scale axis: a ShardMap splits
// the global dictionary into version-stamped contiguous key ranges,
// each shard with its own measurement consensus (Spec + derived seed),
// so N can grow past what one Φ row-block handles. A Router fans span
// outlier queries and point-query watch lists out across the shard
// roots and merges the answers.
//
// Exactly-once semantics extend through the extra hop unchanged in
// mechanism: an upward frame is tagged (relay-identity, upEpoch,
// window, upSeq) where the identity string carries (shard, tier) — see
// FrameID — so the root's ordinary per-(node, epoch) dedup books refuse
// upward duplicates exactly as they refuse leaf duplicates. A relay
// restart bumps the upward epoch only when volatile; a durable relay
// restores its upward frame state from Snapshot.Extra and replays
// byte-identical frames the root dedups. See Relay for the staging
// discipline that makes "leaf frame folded" and "upward frame durable"
// a single atomic event.
package tier

import (
	"fmt"
	"sort"

	"csoutlier"
	"csoutlier/internal/xrand"
)

// shardSeedLabel derives per-shard consensus seeds from Spec.BaseSeed.
const shardSeedLabel = 0x7e1a9b4dc2f08e53

// FrameID is the upward identity a relay announces to its parent:
// the ordinary node-identity string of the push protocol, prefixed
// with the (shard, tier-level) coordinates. The parent's dedup books
// need no schema change — the coordinates ride inside the name, so
// frames from different shards or levels can never collide in one
// book, and a frame misrouted to the wrong shard's tree is also
// rejected by the shard's seed consensus in the sketch codec.
func FrameID(shard, level int, id string) string {
	return fmt.Sprintf("s%02d.t%d.%s", shard, level, id)
}

// Spec is the per-shard measurement consensus template: csoutlier
// Config minus the seed, which each shard derives from BaseSeed so no
// two shards share a Φ (a cross-shard misroute then fails codec
// validation instead of folding garbage).
type Spec struct {
	// M is the per-shard sketch length.
	M int
	// BaseSeed seeds the per-shard consensus seed derivation.
	BaseSeed uint64
	// MaxIterations, Ensemble, Depth pass through to csoutlier.Config
	// per shard.
	MaxIterations int
	Ensemble      csoutlier.Ensemble
	Depth         int
}

// Shard is one contiguous key range of a ShardMap.
type Shard struct {
	Index int
	// Keys is the shard's sorted key range — a sub-slice of the map's
	// sorted global key space; do not mutate.
	Keys []string
	// Seed is the shard's derived consensus seed.
	Seed uint64
}

// ShardMap is a version-stamped partition of the global dictionary
// into contiguous key ranges. All parties of one deployment (leaf
// nodes, relays, roots, routers) must build it from the same key set,
// shard count, spec and version — Route is a pure function of the
// sorted key space, so they all agree without coordination.
type ShardMap struct {
	version uint64
	spec    Spec
	keys    []string // global key space, sorted
	shards  []Shard
	lo      []string // lo[i] = first key of shard i
}

// NewShardMap partitions keys into `shards` near-equal contiguous
// ranges of the sorted key space and derives each shard's consensus
// seed from spec.BaseSeed.
func NewShardMap(keys []string, shards int, spec Spec, version uint64) (*ShardMap, error) {
	if shards < 1 {
		return nil, fmt.Errorf("tier: shard count %d < 1", shards)
	}
	if len(keys) < shards {
		return nil, fmt.Errorf("tier: %d keys cannot fill %d shards", len(keys), shards)
	}
	if spec.M < 1 {
		return nil, fmt.Errorf("tier: spec M %d < 1", spec.M)
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("tier: duplicate key %q", sorted[i])
		}
	}
	m := &ShardMap{
		version: version,
		spec:    spec,
		keys:    sorted,
		shards:  make([]Shard, shards),
		lo:      make([]string, shards),
	}
	rng := xrand.New(spec.BaseSeed)
	for i := 0; i < shards; i++ {
		start := i * len(sorted) / shards
		end := (i + 1) * len(sorted) / shards
		m.shards[i] = Shard{
			Index: i,
			Keys:  sorted[start:end:end],
			Seed:  rng.Split(shardSeedLabel ^ uint64(i)).Uint64(),
		}
		m.lo[i] = sorted[start]
	}
	return m, nil
}

// Version returns the partition's version stamp.
func (m *ShardMap) Version() uint64 { return m.version }

// Spec returns the per-shard consensus template.
func (m *ShardMap) Spec() Spec { return m.spec }

// Shards returns the shard count.
func (m *ShardMap) Shards() int { return len(m.shards) }

// Shard returns shard i.
func (m *ShardMap) Shard(i int) Shard { return m.shards[i] }

// Keys returns the sorted global key space; do not mutate.
func (m *ShardMap) Keys() []string { return m.keys }

// Route returns the index of the shard owning key. Keys outside the
// dictionary still route (to the range they would sort into); the
// shard's sketcher rejects them, exactly as a flat deployment would.
func (m *ShardMap) Route(key string) int {
	// First shard whose range starts after key, minus one.
	i := sort.Search(len(m.lo), func(i int) bool { return m.lo[i] > key })
	if i == 0 {
		return 0
	}
	return i - 1
}

// Sketcher builds shard i's measurement consensus.
func (m *ShardMap) Sketcher(i int) (*csoutlier.Sketcher, error) {
	sh := m.shards[i]
	sk, err := csoutlier.NewSketcher(sh.Keys, csoutlier.Config{
		M:             m.spec.M,
		Seed:          sh.Seed,
		MaxIterations: m.spec.MaxIterations,
		Ensemble:      m.spec.Ensemble,
		Depth:         m.spec.Depth,
	})
	if err != nil {
		return nil, fmt.Errorf("tier: shard %d sketcher: %w", i, err)
	}
	return sk, nil
}

// Sketchers builds every shard's measurement consensus, in shard order.
func (m *ShardMap) Sketchers() ([]*csoutlier.Sketcher, error) {
	out := make([]*csoutlier.Sketcher, len(m.shards))
	for i := range m.shards {
		sk, err := m.Sketcher(i)
		if err != nil {
			return nil, err
		}
		out[i] = sk
	}
	return out, nil
}
