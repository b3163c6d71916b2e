package tier

import (
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"csoutlier"
	"csoutlier/internal/stream"
)

// countingProxy forwards one direction's bytes and counts them as they
// are read, before they are written on: once the far side has answered
// them, the count includes them.
type countingProxy struct {
	ln   net.Listener
	sent atomic.Int64 // client → target
}

func startCountingProxy(t *testing.T, target string) *countingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &countingProxy{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			go func() {
				buf := make([]byte, 64<<10)
				for {
					n, err := c.Read(buf)
					p.sent.Add(int64(n))
					if _, werr := b.Write(buf[:n]); err != nil || werr != nil {
						break
					}
				}
				b.Close()
				c.Close()
			}()
			go func() {
				io.Copy(c, b)
				c.Close()
				b.Close()
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return p
}

// TestRelayForwardFrameBytes pins the relay → root hop of one window at
// the standing_tier benchmark's shard shape (N=4096, M=448, depth 7):
// every key observed once at its base value 100, eight of them off it by
// about 300, one leaf delta folded at the relay, one Forward. The
// count-sketch window's counters are integers and travel as varints; the
// Gaussian window's are not and travel as EncodedSketchLen(M) bytes of
// float64s, as every window did before the integer form. The two frames'
// framing is the same, and it includes the frame's cut: one leaf, named
// "leaf", epoch 1, seq 1.
func TestRelayForwardFrameBytes(t *testing.T) {
	keys := testKeys(4096)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const cut = 1 + 1 + len("leaf") + 1 + 1 // count, name length, name, epoch, seq
	framing := -1
	for _, c := range []struct {
		name    string
		cfg     csoutlier.Config
		frame   int // bytes of the forwarded delta frame, prelude included
		payload int // bytes of the window's sketch payload in it
	}{
		{"countsketch", csoutlier.Config{M: 448, Seed: 1, Ensemble: csoutlier.CountSketch, Depth: 7}, 905 + cut, 900},
		{"gaussian", csoutlier.Config{M: 448, Seed: 1}, 3618 + cut, csoutlier.EncodedSketchLen(448)},
	} {
		sk, err := csoutlier.NewSketcher(keys, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		root, rootAddr := serveRoot(t, sk, stream.AggregatorOptions{})
		up := startCountingProxy(t, rootAddr)
		relay, err := NewRelay(ctx, sk, RelayOptions{ID: "r0", Upstream: up.ln.Addr().String()})
		if err != nil {
			t.Fatalf("%s: NewRelay: %v", c.name, err)
		}
		leaf, err := stream.DialClient(ctx, serveRelay(t, relay), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := leaf.Hello("leaf", 1)
		if err != nil {
			t.Fatal(err)
		}
		u := sk.NewUpdater()
		for i, key := range keys {
			v := 100.0
			if i%512 == 7 {
				v += float64(280 + i%41)
			}
			if err := u.Observe(key, v); err != nil {
				t.Fatal(err)
			}
		}
		delta, _, err := u.DrainEncoded(nil)
		if err != nil {
			t.Fatal(err)
		}
		if a, err := leaf.PushDelta("leaf", 1, ack.Window, 1, 1, delta); err != nil || !a.Applied {
			t.Fatalf("%s: PushDelta: %+v, %v", c.name, a, err)
		}
		before := up.sent.Load()
		if err := relay.Forward(ctx); err != nil {
			t.Fatalf("%s: Forward: %v", c.name, err)
		}
		frame := int(up.sent.Load() - before)
		window, err := root.WindowSketch(0)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := window.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if framing < 0 {
			framing = frame - len(payload)
		}
		if frame != c.frame {
			t.Errorf("%s: the relay forwards a %d-byte frame, want %d", c.name, frame, c.frame)
		}
		if len(payload) != c.payload {
			t.Errorf("%s: the window encodes to %d bytes, want %d", c.name, len(payload), c.payload)
		}
		if frame-len(payload) != framing {
			t.Errorf("%s: %d bytes of framing around the payload, the count-sketch frame has %d", c.name, frame-len(payload), framing)
		}
		leaf.Close()
		relay.Close(ctx)
	}
}
