package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"csoutlier/internal/xrand"
)

// TestBackoffDelayDeterministic pins the jitter fix: retry delays come
// from a caller-seeded RNG, so two clients with the same seed draw the
// same delay sequence, and the global math/rand state is irrelevant.
func TestBackoffDelayDeterministic(t *testing.T) {
	const base, max = 25 * time.Millisecond, time.Second
	a, b := xrand.New(42), xrand.New(42)
	var seqA, seqB []time.Duration
	for attempt := 1; attempt <= 10; attempt++ {
		seqA = append(seqA, xrand.BackoffDelay(a, attempt, base, max))
		seqB = append(seqB, xrand.BackoffDelay(b, attempt, base, max))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("attempt %d: same seed drew %v vs %v", i+1, seqA[i], seqB[i])
		}
		lo := base
		for j := 1; j < i+1 && lo < max; j++ {
			lo *= 2
		}
		if lo > max {
			lo = max
		}
		if seqA[i] < lo/2 || seqA[i] > lo {
			t.Errorf("attempt %d: delay %v outside (%v/2, %v]", i+1, seqA[i], lo, lo)
		}
	}
	// Different seeds must diverge somewhere in 10 draws.
	c := xrand.New(43)
	diverged := false
	for attempt := 1; attempt <= 10; attempt++ {
		if xrand.BackoffDelay(c, attempt, base, max) != seqA[attempt-1] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("seeds 42 and 43 drew identical 10-delay sequences")
	}
}

// TestBackoffSeedResolution checks the seed ladder: explicit seeds win,
// the zero seed hashes the label, and distinct labels decorrelate.
func TestBackoffSeedResolution(t *testing.T) {
	if got := backoffSeed(7, "addr"); got != 7 {
		t.Errorf("explicit seed: got %d, want 7", got)
	}
	a1, a2 := backoffSeed(0, "10.0.0.1:9000"), backoffSeed(0, "10.0.0.1:9000")
	if a1 != a2 {
		t.Errorf("same label hashed to %d and %d", a1, a2)
	}
	if b := backoffSeed(0, "10.0.0.2:9000"); b == a1 {
		t.Errorf("distinct labels collided on seed %d", a1)
	}
}

// TestDialBackoffSeedOption checks DialContext threads the seed into the
// client's jitter RNG: twin clients with the same explicit seed hold
// identically seeded streams.
func TestDialBackoffSeedOption(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, NewLocalNode("n0", nil))

	dial := func(seed uint64) *RemoteNode {
		t.Helper()
		r, err := DialContext(context.Background(), ln.Addr().String(), DialOptions{BackoffSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	r1, r2 := dial(99), dial(99)
	for i := 0; i < 8; i++ {
		d1 := xrand.BackoffDelay(r1.rng, i+1, 25*time.Millisecond, time.Second)
		d2 := xrand.BackoffDelay(r2.rng, i+1, 25*time.Millisecond, time.Second)
		if d1 != d2 {
			t.Fatalf("draw %d: same BackoffSeed drew %v vs %v", i, d1, d2)
		}
	}
}
