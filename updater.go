package csoutlier

import (
	"fmt"
	"sync"

	"csoutlier/internal/linalg"
)

// Updater maintains a node's standing sketch over a stream of
// key→value updates — the paper's "terabyte of new click log data is
// generated every 10 mins" operating mode (§1, challenge 2). Each
// observation folds one measurement column into the sketch in at most O(M)
// time and O(M) total memory; the slice itself is never stored.
//
// Until the observations since the last drain would encode no smaller
// than a bound on the sketch itself (pairLog.limit: EncodedSketchLen(M),
// or for a count-sketch of integers a bound on its CSKI form), they are
// kept as they came — an in-order log of (key index, delta) — and not
// measured at all: DrainEncoded ships the log, and whoever folds it
// measures it with the arithmetic Observe would have used. The
// observation that tips the log over that bound replays it into the
// sketch, and from there to the next drain every observation is
// measured on arrival, so a non-integer observed after a count-sketch's
// log closed makes the drain the CSK2 sketch, whatever the pairs would
// have cost.
//
// An Updater is safe for concurrent use: every observation, the one
// replay per drain period and every drain run under one mutex. A
// measured observation is one Matrix.AddCol, the kernel receivers
// measure pairs deltas with: O(M) for a Gaussian matrix, O(depth) for
// a count-sketch.
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
		log:     pairLog{bytes: make([]byte, 0, EncodedSketchLen(s.spec.M)+maxPairLen)},
		logging: true,
	}
}

// logLocked appends one observation to the open log and reports whether
// it did. The observation that would make the log no smaller than its
// limit closes it instead: the log is replayed into y and the caller
// measures this observation, and every later one, itself.
func (u *Updater) logLocked(idx int, delta float64) bool {
	if !u.logging {
		return false
	}
	end := len(u.log.bytes)
	u.log.add(idx, delta)
	if pairsLen(u.log.count, len(u.log.bytes)) < u.log.limit(u.sk) {
		return true
	}
	// Take the observation back out and close the log: y becomes the
	// sum Observe would have built one arrival at a time, and every
	// later observation is measured.
	u.log.bytes, u.log.count = u.log.bytes[:end], u.log.count-1
	u.sk.measurePairs(u.y, u.log)
	u.log.reset()
	u.logging = false
	return false
}

// reopenLocked empties the updater: y zero, the log open.
func (u *Updater) reopenLocked() {
	clear(u.y)
	u.log.reset()
	u.logging = true
	u.updates = 0
}

// Observe folds one (key, delta) observation into the standing sketch:
// y += delta·φ_key. Cost: one AddCol at most, independent of how much
// data the node has already absorbed.
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
	if !u.logLocked(idx, delta) {
		u.sk.matrix.AddCol(idx, delta, u.y)
	}
	u.updates++
	u.mu.Unlock()
	return nil
}

// Updates returns the number of non-zero observations folded in.
func (u *Updater) Updates() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.updates
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
	if u.logging {
		u.sk.measurePairs(dst.Y, u.log)
	} else {
		copy(dst.Y, u.y)
	}
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
		dst = u.log.appendPairs(dst, u.sk.idSum)
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
