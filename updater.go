package csoutlier

import (
	"fmt"
	"sync"

	"csoutlier/internal/linalg"
)

// Updater maintains a node's standing sketch over a stream of
// key→value updates — the paper's "terabyte of new click log data is
// generated every 10 mins" operating mode (§1, challenge 2). Each
// observation folds one measurement column into the sketch in O(M)
// time and O(M) total memory; the slice itself is never stored.
//
// An Updater is safe for concurrent use. The O(M) column generation of
// each observation happens outside the mutex on pooled scratch, so
// concurrent writers only contend for the O(M) accumulate.
type Updater struct {
	sk *Sketcher

	mu      sync.Mutex
	y       linalg.Vector
	updates int64
}

// NewUpdater returns an empty standing sketch bound to the Sketcher's
// consensus parameters.
func (s *Sketcher) NewUpdater() *Updater {
	return &Updater{
		sk: s,
		y:  make(linalg.Vector, s.params.M),
	}
}

// Observe folds one (key, delta) observation into the standing sketch:
// y += delta·φ_key. Cost: O(M), independent of how much data the node
// has already absorbed.
func (u *Updater) Observe(key string, delta float64) error {
	idx, ok := u.sk.dict.Index(key)
	if !ok {
		return fmt.Errorf("csoutlier: key %q not in global dictionary", key)
	}
	if !finite(delta) {
		return fmt.Errorf("csoutlier: key %q: delta %v is not finite", key, delta)
	}
	if delta == 0 {
		return nil
	}
	col := u.sk.getCol()
	*col = u.sk.matrix.Col(idx, *col) // O(M) PRNG work, outside the mutex
	u.mu.Lock()
	u.y.AddScaled(delta, *col)
	u.updates++
	u.mu.Unlock()
	u.sk.putCol(col)
	return nil
}

// ObserveBatch folds a batch of observations. The batch is all-or-
// nothing: an unknown key or a non-finite delta fails the whole batch
// before any mutation.
func (u *Updater) ObserveBatch(pairs map[string]float64) error {
	idx := make([]int, 0, len(pairs))
	vals := make([]float64, 0, len(pairs))
	for k, v := range pairs {
		i, ok := u.sk.dict.Index(k)
		if !ok {
			return fmt.Errorf("csoutlier: key %q not in global dictionary", k)
		}
		if !finite(v) {
			return fmt.Errorf("csoutlier: key %q: delta %v is not finite", k, v)
		}
		if v == 0 {
			continue
		}
		idx = append(idx, i)
		vals = append(vals, v)
	}
	// Measure the whole batch outside the mutex (MeasureSparse zeroes its
	// destination), then accumulate under it.
	col := u.sk.getCol()
	*col = u.sk.matrix.MeasureSparse(idx, vals, *col)
	u.mu.Lock()
	u.y.Add(*col)
	u.updates += int64(len(idx))
	u.mu.Unlock()
	u.sk.putCol(col)
	return nil
}

// Updates returns the number of non-zero observations folded in.
func (u *Updater) Updates() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.updates
}

// Sketch returns a snapshot of the standing sketch, ready to ship.
func (u *Updater) Sketch() Sketch {
	out := u.sk.emptySketch()
	u.mu.Lock()
	copy(out.Y, u.y)
	u.mu.Unlock()
	return out
}

// SketchInto snapshots the standing sketch into a caller-provided
// sketch, so a hot aggregation path can reread a standing sketch with
// zero allocation. dst must come from the same Sketcher consensus.
func (u *Updater) SketchInto(dst Sketch) error {
	if err := dst.compatible(u.sk.sketchID()); err != nil {
		return err
	}
	u.mu.Lock()
	copy(dst.Y, u.y)
	u.mu.Unlock()
	return nil
}

// DrainInto atomically snapshots the standing sketch into dst and
// resets the updater, returning how many observations were drained.
// The copy and the reset happen under one critical section, so no
// concurrent Observe can land between them and be lost — the property
// the streaming delta protocol (internal/stream) relies on: successive
// drains partition the observation stream exactly.
func (u *Updater) DrainInto(dst Sketch) (int64, error) {
	if err := dst.compatible(u.sk.sketchID()); err != nil {
		return 0, err
	}
	u.mu.Lock()
	copy(dst.Y, u.y)
	for i := range u.y {
		u.y[i] = 0
	}
	n := u.updates
	u.updates = 0
	u.mu.Unlock()
	return n, nil
}

// Reset clears the standing sketch (e.g. at a window boundary).
func (u *Updater) Reset() {
	u.mu.Lock()
	defer u.mu.Unlock()
	for i := range u.y {
		u.y[i] = 0
	}
	u.updates = 0
}
