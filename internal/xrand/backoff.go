package xrand

import (
	"context"
	"time"
)

// SleepCtx sleeps for d or until ctx is done, whichever comes first.
func SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// BackoffDelay is exponential backoff with equal jitter, the one retry
// policy of the push sender (internal/stream) and the pull transport
// (internal/cluster): attempt n waits a uniform draw from
// [base·2ⁿ⁻¹/2, base·2ⁿ⁻¹], capped at max. The jitter comes from the
// caller's seeded generator, never the global math/rand, so a client
// seeded from a simulation scenario retries with reproducible timing.
func BackoffDelay(rng *RNG, attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + int64(rng.Uint64()%uint64(half+1)))
}
