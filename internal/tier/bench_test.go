package tier

import (
	"context"
	"net"
	"testing"
	"time"

	"csoutlier"
	"csoutlier/internal/stream"
)

func benchDelta(b testing.TB, sk *csoutlier.Sketcher) []byte {
	b.Helper()
	pairs := make(map[string]float64, len(sk.Keys()))
	for i, key := range sk.Keys() {
		pairs[key] = float64(i%17) + 0.5
	}
	s, err := sk.SketchPairs(pairs)
	if err != nil {
		b.Fatal(err)
	}
	payload, err := s.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	return payload
}

// BenchmarkTierFoldFlat is the baseline for the EXPERIMENTS pr9 table:
// one leaf pushing delta frames straight at the root over loopback TCP.
// Every leaf frame is a root ingest — fan-in 1:1.
func BenchmarkTierFoldFlat(b *testing.B) {
	sk, err := csoutlier.NewSketcher(testKeys(1024), csoutlier.Config{M: 256, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	root, err := stream.NewAggregator(sk, stream.AggregatorOptions{Windows: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer root.Close(ctx)
	addr := benchServe(b, root.Serve)
	c, err := stream.DialClient(ctx, addr, 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("bench", 1); err != nil {
		b.Fatal(err)
	}
	payload := benchDelta(b, sk)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ack, err := c.PushDelta("bench", 1, 1, uint64(i+1), 1, payload)
		if err != nil {
			b.Fatal(err)
		}
		if !ack.Applied {
			b.Fatalf("frame %d not applied: %+v", i, ack)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(root.Stats().Frames)/float64(b.N), "root-frames/frame")
}

// BenchmarkTierFoldTwoTier pushes the same frames through a regional
// relay that forwards the folded window upward every forwardEvery
// frames: the root ingests one frame per batch instead of one per leaf
// frame. The root-frames/frame metric is the measured fan-in reduction.
func BenchmarkTierFoldTwoTier(b *testing.B) {
	const forwardEvery = 64
	sk, err := csoutlier.NewSketcher(testKeys(1024), csoutlier.Config{M: 256, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	root, err := stream.NewAggregator(sk, stream.AggregatorOptions{Windows: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer root.Close(ctx)
	rootAddr := benchServe(b, root.Serve)
	relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: rootAddr})
	if err != nil {
		b.Fatal(err)
	}
	defer relay.Close(ctx)
	relayAddr := benchServe(b, relay.Serve)
	c, err := stream.DialClient(ctx, relayAddr, 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("bench", 1); err != nil {
		b.Fatal(err)
	}
	payload := benchDelta(b, sk)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ack, err := c.PushDelta("bench", 1, 1, uint64(i+1), 1, payload)
		if err != nil {
			b.Fatal(err)
		}
		if !ack.Applied {
			b.Fatalf("frame %d not applied: %+v", i, ack)
		}
		if (i+1)%forwardEvery == 0 {
			if err := relay.Forward(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := relay.Forward(ctx); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(root.Stats().Frames)/float64(b.N), "root-frames/frame")
}

// benchServe starts a push listener on loopback for a Serve loop.
func benchServe(b *testing.B, serve func(net.Listener) error) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go serve(ln)
	return ln.Addr().String()
}
