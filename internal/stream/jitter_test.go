package stream_test

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"csoutlier/internal/stream"
	"csoutlier/internal/tier"
)

// draws returns n's next eight waits before retry attempt 3.
func draws(n *stream.Node) []time.Duration {
	out := make([]time.Duration, 8)
	for i := range out {
		out[i] = n.Backoff(3)
	}
	return out
}

// TestSenderJitter: a sender seeds its backoff jitter from its name and
// its consensus identity, with no option to set. Two Dials of one name
// under one consensus draw the same stream, the shard nodes of one
// DialSharded draw different ones, and NodeOptions{} backs off from
// 25ms up to 1s.
func TestSenderJitter(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sk := stream.TestSketcher(t, 64, 32, 17)
	_, addr := stream.ServeAgg(t, sk, stream.AggregatorOptions{Windows: 2})
	dial := func() *stream.Node {
		t.Helper()
		n, err := stream.Dial(ctx, addr, sk, "twin", stream.NodeOptions{})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		return n
	}

	t.Run("one name under one consensus draws one stream", func(t *testing.T) {
		first := dial()
		a := draws(first)
		first.Abort()
		second := dial()
		defer second.Abort()
		if b := draws(second); !slices.Equal(a, b) {
			t.Fatalf("the two incarnations drew %v and %v", a, b)
		}
	})

	t.Run("the shard nodes of one name draw different streams", func(t *testing.T) {
		keys := make([]string, 300)
		for i := range keys {
			keys[i] = fmt.Sprintf("key%03d", i)
		}
		m, err := tier.NewShardMap(keys, 3, tier.Spec{M: 24, BaseSeed: 5}, 1)
		if err != nil {
			t.Fatal(err)
		}
		sks, err := m.Sketchers()
		if err != nil {
			t.Fatal(err)
		}
		addrs := make([]string, len(sks))
		for i, s := range sks {
			_, addrs[i] = stream.ServeAgg(t, s, stream.AggregatorOptions{Windows: 2})
		}
		sn, err := tier.DialSharded(ctx, m, sks, addrs, "dc0", stream.NodeOptions{})
		if err != nil {
			t.Fatalf("DialSharded: %v", err)
		}
		defer sn.Abort()
		var seen [][]time.Duration
		for i := range sks {
			d := draws(sn.Node(i))
			for j, prev := range seen {
				if slices.Equal(prev, d) {
					t.Fatalf("shards %d and %d drew the same stream %v", j, i, d)
				}
			}
			seen = append(seen, d)
		}
	})

	t.Run("NodeOptions{} backs off from 25ms up to 1s", func(t *testing.T) {
		n := dial()
		defer n.Abort()
		for _, c := range []struct {
			attempt  int
			from, to time.Duration
		}{{1, 12500 * time.Microsecond, 25 * time.Millisecond}, {40, 500 * time.Millisecond, time.Second}} {
			var top time.Duration
			for range 64 {
				d := n.Backoff(c.attempt)
				if d < c.from || d > c.to {
					t.Fatalf("attempt %d waits %v, want [%v, %v]", c.attempt, d, c.from, c.to)
				}
				top = max(top, d)
			}
			if top < c.to*9/10 {
				t.Errorf("attempt %d: 64 draws reach only %v of up to %v", c.attempt, top, c.to)
			}
		}
	})
}
