package cluster

import (
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

// TestBackoffSeedResolution checks a node's jitter stream label: one ID
// hashes to one label, and distinct IDs decorrelate.
func TestBackoffSeedResolution(t *testing.T) {
	a1, a2 := backoffSeed("dc-0"), backoffSeed("dc-0")
	if a1 != a2 {
		t.Errorf("same ID hashed to %d and %d", a1, a2)
	}
	if b := backoffSeed("dc-1"); b == a1 {
		t.Errorf("distinct IDs collided on seed %d", a1)
	}
}
