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
// Until the observations since the last drain would encode no smaller
// than the sketch itself, they are kept as they came — an in-order log
// of (key index, delta), at most 8·M bytes — and not measured at all:
// DrainEncoded ships the log, and whoever folds it measures it with the
// arithmetic Observe would have used. The observation that tips the
// log over the sketch's size replays it into the sketch, and from there
// to the next drain every observation is measured on arrival.
//
// An Updater is safe for concurrent use. The O(M) column generation of
// each measured observation happens outside the mutex on pooled
// scratch, so concurrent writers only contend for the O(M) accumulate;
// the one replay per drain period, and a Sketch or SketchInto read
// while the log is still open, measure the log under it.
type Updater struct {
	sk *Sketcher
	id Sketch // the consensus identity, Y nil

	mu      sync.Mutex
	y       linalg.Vector
	log     pairLog // the observations since the last drain, while logging
	logging bool    // y is zero and log holds everything observed
	updates int64
}

// NewUpdater returns an empty standing sketch bound to the Sketcher's
// consensus parameters.
func (s *Sketcher) NewUpdater() *Updater {
	return &Updater{
		sk:      s,
		id:      s.sketchID(),
		y:       make(linalg.Vector, s.spec.M),
		log:     pairLog{bytes: make([]byte, 0, 8*s.spec.M)},
		logging: true,
	}
}

// logLocked appends one observation to the open log and reports whether
// it did. The observation that would make the log no smaller than the
// sketch closes it instead: the log is replayed into y and the caller
// measures this observation, and every later one, itself.
func (u *Updater) logLocked(idx int, delta float64) bool {
	if !u.logging {
		return false
	}
	if pairsLen(u.log.count+1, len(u.log.bytes)+uvarintLen(idx)+8) < EncodedSketchLen(len(u.y)) {
		u.log.add(idx, delta)
		return true
	}
	u.closeLogLocked()
	return false
}

// closeLogLocked measures the open log into y — the sum Observe would
// have built one arrival at a time — and switches to measuring on
// arrival.
func (u *Updater) closeLogLocked() {
	if !u.logging {
		return
	}
	u.sk.measurePairs(u.y, u.log)
	u.log.reset()
	u.logging = false
}

// reopenLocked empties the updater: y zero, the log open.
func (u *Updater) reopenLocked() {
	clear(u.y)
	u.log.reset()
	u.logging = true
	u.updates = 0
}

// readLocked writes the standing sketch into y without disturbing it.
func (u *Updater) readLocked(y []float64) {
	if u.logging {
		u.sk.measurePairs(y, u.log)
	} else {
		copy(y, u.y)
	}
}

// Observe folds one (key, delta) observation into the standing sketch:
// y += delta·φ_key. Cost: O(M) at most, independent of how much data
// the node has already absorbed.
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
	u.mu.Lock()
	logged := u.logLocked(idx, delta)
	if logged {
		u.updates++
	}
	u.mu.Unlock()
	if logged {
		return nil
	}
	col := u.sk.getCol()
	*col = u.sk.matrix.Col(idx, *col) // O(M) PRNG work, outside the mutex
	u.mu.Lock()
	// A drain may have reopened the log since the check above.
	if !u.logLocked(idx, delta) {
		u.y.AddScaled(delta, *col)
	}
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
	if len(idx) == 0 {
		return nil
	}
	// Measure the whole batch outside the mutex (MeasureSparse zeroes its
	// destination), then accumulate under it. A batch is measured as one
	// sum, not an observation at a time, so it is added to the sketch and
	// never logged.
	col := u.sk.getCol()
	*col = u.sk.matrix.MeasureSparse(idx, vals, *col)
	u.mu.Lock()
	u.closeLogLocked()
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
	u.readLocked(out.Y)
	u.mu.Unlock()
	return out
}

// SketchInto snapshots the standing sketch into a caller-provided
// sketch, so a hot aggregation path can reread a standing sketch with
// zero allocation. dst must come from the same Sketcher consensus.
func (u *Updater) SketchInto(dst Sketch) error {
	if err := dst.compatible(u.id); err != nil {
		return err
	}
	u.mu.Lock()
	u.readLocked(dst.Y)
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
	if err := dst.compatible(u.id); err != nil {
		return 0, err
	}
	u.mu.Lock()
	u.readLocked(dst.Y)
	n := u.updates
	u.reopenLocked()
	u.mu.Unlock()
	return n, nil
}

// DrainEncoded is DrainInto straight to the wire: it appends the
// drained delta's binary encoding to dst — the logged observations while
// they are the smaller encoding, the sketch (what DrainInto and
// AppendBinary would produce, byte for byte) once they are not — and
// resets the updater under the same critical section. With nothing
// observed it appends nothing. With cap(dst)-len(dst) ≥
// EncodedSketchLen(M) it does not allocate.
func (u *Updater) DrainEncoded(dst []byte) ([]byte, int64, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := u.updates
	if n == 0 {
		return dst, 0, nil
	}
	if u.logging {
		dst = u.log.appendPairs(dst, u.id)
	} else {
		s := u.id
		s.Y = u.y
		var err error
		if dst, err = s.AppendBinary(dst); err != nil {
			return dst, 0, err
		}
	}
	u.reopenLocked()
	return dst, n, nil
}

// Reset clears the standing sketch (e.g. at a window boundary).
func (u *Updater) Reset() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.reopenLocked()
}
