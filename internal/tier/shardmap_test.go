package tier

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"csoutlier"
	"csoutlier/internal/stream"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%03d", i)
	}
	return keys
}

func TestShardMapPartition(t *testing.T) {
	keys := testKeys(100)
	// Feed the keys shuffled: the map must sort them itself so every
	// party derives the same partition regardless of input order.
	shuffled := append([]string(nil), keys...)
	for i := range shuffled {
		j := (i * 37) % len(shuffled)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	m, err := NewShardMap(shuffled, 3, Spec{M: 16, BaseSeed: 42}, 7)
	if err != nil {
		t.Fatalf("NewShardMap: %v", err)
	}
	if m.version != 7 {
		t.Fatalf("version = %d, want 7", m.version)
	}
	if m.Shards() != 3 {
		t.Fatalf("Shards = %d, want 3", m.Shards())
	}
	total := 0
	seeds := map[uint64]bool{}
	var reassembled []string
	for i := 0; i < m.Shards(); i++ {
		sh := m.Shard(i)
		if sh.Index != i {
			t.Fatalf("shard %d Index = %d", i, sh.Index)
		}
		if len(sh.Keys) < 33 || len(sh.Keys) > 34 {
			t.Fatalf("shard %d has %d keys, want near-equal split of 100/3", i, len(sh.Keys))
		}
		if !sort.StringsAreSorted(sh.Keys) {
			t.Fatalf("shard %d keys not sorted", i)
		}
		if seeds[sh.Seed] {
			t.Fatalf("shard %d reuses a sibling's seed %d", i, sh.Seed)
		}
		seeds[sh.Seed] = true
		total += len(sh.Keys)
		reassembled = append(reassembled, sh.Keys...)
		for _, key := range sh.Keys {
			if got := m.Route(key); got != i {
				t.Fatalf("Route(%q) = %d, want %d", key, got, i)
			}
		}
	}
	if total != 100 {
		t.Fatalf("shards cover %d keys, want 100", total)
	}
	// Contiguity: concatenating shard ranges in order is the sorted
	// global key space.
	for i, key := range reassembled {
		if key != keys[i] {
			t.Fatalf("reassembled[%d] = %q, want %q (ranges not contiguous)", i, key, keys[i])
		}
	}
	// Determinism: an identically-configured map derives identical seeds.
	m2, err := NewShardMap(keys, 3, Spec{M: 16, BaseSeed: 42}, 7)
	if err != nil {
		t.Fatalf("NewShardMap (sorted input): %v", err)
	}
	for i := 0; i < 3; i++ {
		if m.Shard(i).Seed != m2.Shard(i).Seed {
			t.Fatalf("shard %d seed differs between identically-configured maps", i)
		}
	}
}

func TestShardMapRouteOutOfDictionary(t *testing.T) {
	m, err := NewShardMap(testKeys(10), 2, Spec{M: 4, BaseSeed: 1}, 1)
	if err != nil {
		t.Fatalf("NewShardMap: %v", err)
	}
	// Below the first key routes to shard 0; above the last, to the
	// final shard. (The shard's sketcher then rejects the unknown key,
	// exactly as a flat deployment's would.)
	if got := m.Route("aaa"); got != 0 {
		t.Fatalf("Route(below range) = %d, want 0", got)
	}
	if got := m.Route("zzz"); got != 1 {
		t.Fatalf("Route(above range) = %d, want 1", got)
	}
}

func TestShardMapRejects(t *testing.T) {
	if _, err := NewShardMap(testKeys(4), 0, Spec{M: 2, BaseSeed: 1}, 1); err == nil {
		t.Fatal("accepted 0 shards")
	}
	if _, err := NewShardMap(testKeys(2), 3, Spec{M: 2, BaseSeed: 1}, 1); err == nil {
		t.Fatal("accepted more shards than keys")
	}
	if _, err := NewShardMap(testKeys(4), 2, Spec{BaseSeed: 1}, 1); err == nil {
		t.Fatal("accepted M = 0")
	}
	if _, err := NewShardMap([]string{"a", "b", "a"}, 2, Spec{M: 2, BaseSeed: 1}, 1); err == nil {
		t.Fatal("accepted duplicate keys")
	}
}

func TestShardMapSketchers(t *testing.T) {
	m, err := NewShardMap(testKeys(64), 2, Spec{M: 16, BaseSeed: 99, Depth: 4, Ensemble: csoutlier.CountSketch}, 1)
	if err != nil {
		t.Fatalf("NewShardMap: %v", err)
	}
	sks, err := m.Sketchers()
	if err != nil {
		t.Fatalf("Sketchers: %v", err)
	}
	if len(sks) != 2 {
		t.Fatalf("got %d sketchers, want 2", len(sks))
	}
	for i, sk := range sks {
		if got := len(sk.Keys()); got != 32 {
			t.Fatalf("shard %d sketcher has %d keys, want 32", i, got)
		}
		if !sk.SupportsPointQuery() {
			t.Fatalf("shard %d sketcher lost the count-sketch point path", i)
		}
	}
	// Cross-shard consensus mismatch: a delta measured under shard 0's
	// seed must be rejected by shard 1's sketcher — the codec-level
	// guard behind "a misrouted frame can never corrupt the aggregate".
	u := sks[0].NewUpdater()
	if err := u.Observe(m.Shard(0).Keys[0], 3.5); err != nil {
		t.Fatalf("observe: %v", err)
	}
	delta := sks[0].ZeroSketch()
	if _, err := u.DrainInto(delta); err != nil {
		t.Fatalf("drain: %v", err)
	}
	raw, err := delta.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if _, err := sks[1].UnmarshalSketch(raw); err == nil {
		t.Fatal("shard 1 accepted a shard-0 sketch (seed consensus not enforced)")
	}
}

// TestOneShardMapIsTheFlatConsensus: a one-shard map's shard keeps
// BaseSeed, so its sketcher names the identity a flat NewSketcher with
// that seed names, and a leaf dialed through the map folds into a flat
// aggregator bit for bit what a flat updater measures of the same
// observations in the same order. A map of two
// shards still derives its seeds.
func TestOneShardMapIsTheFlatConsensus(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	keys := testKeys(64)
	for _, spec := range []Spec{{M: 16, BaseSeed: 42}, {M: 20, BaseSeed: 7, Ensemble: csoutlier.CountSketch, Depth: 5}} {
		m, err := NewShardMap(keys, 1, spec, 1)
		if err != nil {
			t.Fatalf("NewShardMap: %v", err)
		}
		sharded, err := m.Sketcher(0)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := csoutlier.NewSketcher(keys, csoutlier.Config{M: spec.M, Seed: spec.BaseSeed, Ensemble: spec.Ensemble, Depth: spec.Depth})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sharded.AppendIdentity(nil), flat.AppendIdentity(nil); !bytes.Equal(got, want) {
			t.Fatalf("%v: one-shard identity %x, flat %x", spec.Ensemble, got, want)
		}
		root, addr := serveRoot(t, flat, stream.AggregatorOptions{Windows: 2})
		sn, err := DialSharded(ctx, m, []*csoutlier.Sketcher{sharded}, []string{addr}, "dc0", stream.NodeOptions{})
		if err != nil {
			t.Fatalf("%v: DialSharded into a flat root: %v", spec.Ensemble, err)
		}
		u, want := flat.NewUpdater(), flat.ZeroSketch()
		for i, key := range []string{"key003", "key017", "key060"} {
			v := []float64{5, -2.5, 1}[i]
			if err := sn.Observe(key, v); err != nil {
				t.Fatal(err)
			}
			if err := u.Observe(key, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := sn.Close(ctx); err != nil {
			t.Fatalf("%v: Close: %v", spec.Ensemble, err)
		}
		if _, err := u.DrainInto(want); err != nil {
			t.Fatal(err)
		}
		got, err := root.WindowSketch(0)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("%v window", spec.Ensemble), got, want)
	}
	two, err := NewShardMap(keys, 2, Spec{M: 16, BaseSeed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if two.Shard(0).Seed == 42 || two.Shard(1).Seed == 42 {
		t.Fatal("a two-shard map handed a shard its BaseSeed")
	}
}

func TestFrameID(t *testing.T) {
	if got := frameID(3, "relayA"); got != "s03.t1.relayA" {
		t.Fatalf("frameID = %q", got)
	}
	if frameID(0, "x") == frameID(1, "x") {
		t.Fatal("frameID collides across shards")
	}
}
