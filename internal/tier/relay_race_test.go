package tier

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"csoutlier/internal/stream"
)

// TestRelayForwardRace runs leaf folds, upward forwards, root rotations
// and stats scrapes concurrently under the race detector. The point is
// the locking seams: OnApplied fires under the aggregator's mutex and
// takes fmu; Forward stages under fmu alone; the sender's callback
// commits the leaves' Stable and rotates under sendMu, for which Forward
// and Sync contend; Stats and the metrics scraper read everything from
// outside.
func TestRelayForwardRace(t *testing.T) {
	if testing.Short() {
		t.Skip("timed concurrency soak")
	}
	sk := tierSketcher(t, 64, 32, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{Windows: 8})
	relay, err := NewRelay(ctx, sk, RelayOptions{
		ID:       "r0",
		Upstream: rootAddr,
		Agg:      stream.AggregatorOptions{Windows: 8},
	})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	relayAddr := serveRelay(t, relay)

	const L = 3
	leaves := make([]*stream.Node, L)
	for l := range leaves {
		n, err := stream.Dial(ctx, relayAddr, sk, fmt.Sprintf("node%02d", l), stream.NodeOptions{})
		if err != nil {
			t.Fatalf("Dial leaf %d: %v", l, err)
		}
		leaves[l] = n
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Leaf pushers: fold deltas into the relay as fast as the
	// stop-and-wait protocol allows.
	for l := range leaves {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			leaf := leaves[l]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("key%03d", (i*7+l)%64)
				if err := leaf.Observe(key, float64(1+l)); err != nil {
					t.Errorf("leaf %d observe: %v", l, err)
					return
				}
				if err := leaf.Flush(ctx); err != nil {
					t.Errorf("leaf %d flush: %v", l, err)
					return
				}
			}
		}(l)
	}

	// Forwarder: stage + drain upward, continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := relay.Forward(ctx); err != nil {
				t.Errorf("Forward: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Rotator: advance the root clock and let the relay adopt it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			select {
			case <-stop:
				return
			case <-time.After(40 * time.Millisecond):
			}
			root.Rotate()
			if err := relay.Sync(ctx); err != nil {
				t.Errorf("relay sync: %v", err)
				return
			}
		}
	}()

	// Readers: stats and regional window snapshots from outside.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = relay.Stats()
			_ = root.Stats()
			if _, err := relay.Aggregator().WindowSketch(0); err != nil {
				t.Errorf("relay window: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	for l, leaf := range leaves {
		if err := leaf.Close(ctx); err != nil {
			t.Fatalf("leaf %d close: %v", l, err)
		}
	}
	if err := relay.Close(ctx); err != nil {
		t.Fatalf("relay close: %v", err)
	}

	st := relay.Stats()
	if st.Forwards == 0 || st.FramesStaged == 0 {
		t.Fatalf("soak did nothing: %+v", st)
	}
	rs := root.Stats()
	if rs.Applied == 0 {
		t.Fatalf("root applied nothing: %+v", rs)
	}
	// Close flushed and forwarded everything, so the conservation
	// invariant holds at quiescence even after concurrent rotations.
	var captured int64
	for _, n := range leaves {
		captured += n.Stats().Captured
	}
	if rs.Applied+rs.ShedFolds != captured {
		t.Fatalf("conservation at quiescence: root applied %d + shed %d != captures %d",
			rs.Applied, rs.ShedFolds, captured)
	}
}
