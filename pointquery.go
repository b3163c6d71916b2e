package csoutlier

import (
	"errors"
	"fmt"
	"math"

	"csoutlier/internal/sensing"
)

// errNoPointQuery is returned by NewPointState when the sketcher's
// ensemble is not CountSketch — the only backend whose hashed structure
// supports recovery-free point estimation.
var errNoPointQuery = errors.New("csoutlier: point queries need the CountSketch ensemble")

// errPointStateUncommitted is a static error so the Query fast path
// stays allocation-free even when misused.
var errPointStateUncommitted = errors.New("csoutlier: PointState queried before Commit")

// PointAnswer is the result of a single-key point query.
type PointAnswer struct {
	// Value is the estimated aggregated value of the key.
	Value float64
	// Mode is the bias estimate the deviation is measured against,
	// shared by every query on the same committed PointState.
	Mode float64
	// Outlier reports |Deviation()| ≥ the query's threshold. Always
	// false for threshold ≤ 0 (callers that only want the estimate).
	Outlier bool
}

// Deviation is Value − Mode.
func (a PointAnswer) Deviation() float64 { return a.Value - a.Mode }

// PointState is the recovery-free point-query engine over one sketch:
// an owned sketch buffer plus a cached mode estimate. The intended
// cycle is
//
//	fill ps.Sketch() with the span to serve   (e.g. WindowStore.RangeInto)
//	ps.Commit()                               (re-estimate the mode, O(M log M))
//	ps.Query(key, threshold) × many           (O(Depth) each, 0 allocs)
//
// Commit must be exclusive with everything else; any number of Query
// calls may then run concurrently with each other (they only read).
// stream.Aggregator.PointQuery wraps this cycle behind a generation-
// checked RWMutex so callers just ask about keys.
type PointState struct {
	sk        *Sketcher
	cs        *sensing.CountSketch
	sketch    Sketch
	scratch   []float64
	mode      float64
	committed bool
}

// SupportsPointQuery reports whether this sketcher's ensemble answers
// point queries (i.e. NewPointState will succeed).
func (s *Sketcher) SupportsPointQuery() bool {
	_, ok := s.matrix.(*sensing.CountSketch)
	return ok
}

// NewPointState returns a point-query engine bound to this sketcher.
// It fails unless the ensemble is CountSketch.
func (s *Sketcher) NewPointState() (*PointState, error) {
	cs, ok := s.matrix.(*sensing.CountSketch)
	if !ok {
		return nil, errNoPointQuery
	}
	return &PointState{
		sk:      s,
		cs:      cs,
		sketch:  s.ZeroSketch(),
		scratch: make([]float64, 0, cs.Depth()*cs.Width()),
	}, nil
}

// Sketch exposes the state's owned sketch buffer; fill it (RangeInto,
// Add, copy) with the span to serve, then Commit. The buffer identity
// is stable across the state's lifetime — refreshing a standing span
// costs no allocation.
func (ps *PointState) Sketch() Sketch { return ps.sketch }

// Commit re-estimates the mode from the current buffer contents and
// arms Query. O(M log M); call it once per sketch refresh, not per
// query.
func (ps *PointState) Commit() {
	ps.mode = ps.cs.EstimateMode(ps.sketch.Y, ps.scratch)
	ps.committed = true
}

// Query estimates key's aggregated value and classifies it against
// threshold (outlier ⇔ |value − mode| ≥ threshold; threshold ≤ 0 skips
// classification). O(Depth), zero allocations on the happy path.
func (ps *PointState) Query(key string, threshold float64) (PointAnswer, error) {
	idx, ok := ps.sk.dict.Index(key)
	if !ok {
		return PointAnswer{}, fmt.Errorf("csoutlier: key %q not in global dictionary", key)
	}
	if !ps.committed {
		return PointAnswer{}, errPointStateUncommitted
	}
	a := PointAnswer{Value: ps.cs.PointEstimate(ps.sketch.Y, idx, ps.mode), Mode: ps.mode}
	a.Outlier = threshold > 0 && math.Abs(a.Deviation()) >= threshold
	return a, nil
}
