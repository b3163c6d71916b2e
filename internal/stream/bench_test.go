package stream

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"csoutlier"
)

// BenchmarkStreamFold measures aggregator ingest throughput — delta
// frames folded per second — with the network stripped away: frames are
// decoded into one connection's scratch, then go through the
// idempotency tracker and the window-store fold, exactly what a handler
// does between reading a frame and acking it. b.SetBytes reports the
// wire-side delta payload, so ns/op and MB/s both come out of one run.
// The M= cells fold a sketch payload (what a relay forwards, and any
// leaf delta from the size crossover up); pairs16 folds a
// 16-observation leaf flush as it now travels, measured here instead of
// at the leaf.
func BenchmarkStreamFold(b *testing.B) { benchFold(b, false) }

// BenchmarkStreamFoldBare is BenchmarkStreamFold on the decode and
// applyFrame that apply wraps — the uninstrumented fold. Comparing the
// two pins the instrumentation overhead (two or three atomic counter
// increments per frame, plus a sampled 1-in-16 histogram observation;
// the acceptance budget is ≤2%).
func BenchmarkStreamFoldBare(b *testing.B) { benchFold(b, true) }

func benchFold(b *testing.B, bare bool) {
	for _, c := range []struct {
		name  string
		m     int
		pairs int // observations shipped as pairs; 0 = a sketch payload
	}{{"M=256", 256, 0}, {"M=1024", 1024, 0}, {"pairs16/M=256", 256, 16}} {
		b.Run(c.name, func(b *testing.B) {
			sk := benchSketcher(b, 4096, c.m)
			agg, err := NewAggregator(sk, AggregatorOptions{Windows: 8})
			if err != nil {
				b.Fatal(err)
			}
			defer agg.Close(context.Background())
			delta := sk.ZeroSketch()
			fold := func(req pushRequest) Ack { return agg.apply(req, &delta) }
			if bare {
				fold = func(req pushRequest) Ack {
					err := sk.UnmarshalSketchInto(req.Payload, delta)
					agg.in.mu.Lock()
					defer agg.in.mu.Unlock()
					return agg.applyFrame(req, delta, err)
				}
			}
			payload := benchDelta(b, sk)
			if c.pairs > 0 {
				payload = benchPairs(b, sk, c.pairs)
			}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ack := fold(pushRequest{
					Kind: pushDelta, Node: "bench", Epoch: 1,
					Window: 1, Seq: uint64(i + 1), Payload: payload,
				})
				if !ack.Applied {
					b.Fatalf("fold %d not applied: %+v", i, ack)
				}
			}
		})
	}
}

// BenchmarkStreamPushTCP measures end-to-end push throughput over
// loopback TCP: binary framing and the fold on the handler goroutine,
// one stop-and-wait client — for a sketch payload and for a
// 16-observation flush as pairs.
func BenchmarkStreamPushTCP(b *testing.B) {
	for _, pairs := range []int{0, 16} {
		name := "sketch"
		if pairs > 0 {
			name = fmt.Sprintf("pairs%d", pairs)
		}
		b.Run(name, func(b *testing.B) {
			sk := benchSketcher(b, 4096, 256)
			agg, err := NewAggregator(sk, AggregatorOptions{Windows: 8})
			if err != nil {
				b.Fatal(err)
			}
			defer agg.Close(context.Background())
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go agg.Serve(ln)
			c, err := DialClient(context.Background(), ln.Addr().String(), 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Hello("bench", 1); err != nil {
				b.Fatal(err)
			}
			payload := benchDelta(b, sk)
			if pairs > 0 {
				payload = benchPairs(b, sk, pairs)
			}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ack, err := c.PushDelta("bench", 1, 1, uint64(i+1), 1, payload)
				if err != nil || !ack.Applied {
					b.Fatalf("push %d: %v / %+v", i, err, ack)
				}
			}
		})
	}
}

// BenchmarkSnapshotWrite measures the full durability cost of one
// snapshot — capture under the aggregator lock, canonical encode,
// temp-file write, fsync, atomic rename, commit — for a loaded
// aggregator (full window ring, 8 member nodes). b.SetBytes reports
// the encoded snapshot size, so ns/op and MB/s come out of one run;
// the capture-only pause the fold path actually sees is tracked
// separately by the stream_snapshot_seconds histogram.
func BenchmarkSnapshotWrite(b *testing.B) {
	for _, m := range []int{256, 1024} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			sk := benchSketcher(b, 4096, m)
			agg, err := NewAggregator(sk, AggregatorOptions{Windows: 8, Durable: true})
			if err != nil {
				b.Fatal(err)
			}
			defer agg.Close(context.Background())
			payload := benchDelta(b, sk)
			for w := 1; w <= 8; w++ {
				for n := 0; n < 8; n++ {
					ack := agg.apply(pushRequest{
						Kind: pushDelta, Node: fmt.Sprintf("bench%d", n), Epoch: 1,
						Window: uint64(w), Seq: uint64(w), Payload: payload,
					}, new(csoutlier.Sketch))
					if !ack.Applied {
						b.Fatalf("fold not applied: %+v", ack)
					}
				}
				if w < 8 {
					agg.Rotate()
				}
			}
			snap, err := agg.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			data, err := snap.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			path := b.TempDir() + "/state.bin"
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := agg.WriteSnapshot(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPointQuery measures the warm recovery-free point-query fast
// path: one shared-lock acquire, one atomic generation check, depth
// hashed cell reads. The acceptance bar is 0 allocs/op and ≥50× the
// cold single-key BOMP answer (BenchmarkDetectQueryCold, same
// aggregator shape).
func BenchmarkPointQuery(b *testing.B) {
	agg, key := benchPointAggregator(b)
	if _, err := agg.PointQuery(0, 0, key, 1000); err != nil {
		b.Fatal(err) // warm the span's point state
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.PointQuery(0, 0, key, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointQueryParallel is the dashboard shape: many goroutines
// hammering warm point queries concurrently. The fast path holds pmu
// only shared, so throughput should scale with cores until the RLock
// cache line saturates.
func BenchmarkPointQueryParallel(b *testing.B) {
	agg, key := benchPointAggregator(b)
	if _, err := agg.PointQuery(0, 0, key, 1000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := agg.PointQuery(0, 0, key, 1000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDetectQueryCold is the before picture: answering one key's
// outlier status through the span top-k path when the recovery cache
// cannot help — every iteration folds a delta (staling the cache) and
// pays a full BOMP recovery. Same count-sketch aggregator as
// BenchmarkPointQuery, so the ratio isolates the query path.
func BenchmarkDetectQueryCold(b *testing.B) {
	agg, _ := benchPointAggregator(b)
	payload := benchDelta(b, agg.sk)
	delta := agg.sk.ZeroSketch()
	seq := uint64(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ack := agg.apply(pushRequest{
			Kind: pushDelta, Node: "bench", Epoch: 1,
			Window: 1, Seq: seq, Payload: payload,
		}, &delta)
		if !ack.Applied {
			b.Fatalf("fold not applied: %+v", ack)
		}
		seq++
		if _, err := agg.Outliers(0, 0, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPointAggregator builds a count-sketch aggregator (N=4096,
// M=448, depth 7 → width 64) with one folded delta, plus a key to
// query.
func benchPointAggregator(b *testing.B) (*Aggregator, string) {
	b.Helper()
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%05d", i)
	}
	sk, err := csoutlier.NewSketcher(keys, csoutlier.Config{
		M: 448, Seed: 99, Ensemble: csoutlier.CountSketch, Depth: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	agg, err := NewAggregator(sk, AggregatorOptions{Windows: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { agg.Close(context.Background()) })
	ack := agg.apply(pushRequest{
		Kind: pushDelta, Node: "bench", Epoch: 1,
		Window: 1, Seq: 1, Payload: benchDelta(b, sk),
	}, new(csoutlier.Sketch))
	if !ack.Applied {
		b.Fatalf("seed fold not applied: %+v", ack)
	}
	return agg, keys[17]
}

func benchSketcher(b *testing.B, n, m int) *csoutlier.Sketcher {
	b.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%05d", i)
	}
	sk, err := csoutlier.NewSketcher(keys, csoutlier.Config{M: m, Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	return sk
}

// benchPairs is a delta of n observations in the pairs encoding.
func benchPairs(b *testing.B, sk *csoutlier.Sketcher, n int) []byte {
	b.Helper()
	u := sk.NewUpdater()
	for i := 0; i < n; i++ {
		if err := u.Observe(fmt.Sprintf("key%05d", i*257%sk.N()), float64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	payload, _, err := u.DrainEncoded(nil)
	if err != nil || !csoutlier.PairsEncoded(payload) {
		b.Fatalf("%d observations did not drain as pairs: %v", n, err)
	}
	return payload
}

// benchDelta is a delta of 32 observations as a sketch payload.
func benchDelta(b *testing.B, sk *csoutlier.Sketcher) []byte {
	b.Helper()
	u := sk.NewUpdater()
	for i := 0; i < 32; i++ {
		if err := u.Observe(fmt.Sprintf("key%05d", i*17%sk.N()), float64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	payload, err := u.Sketch().MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	return payload
}
