package csoutlier

import (
	"fmt"
	"sync"

	"csoutlier/internal/linalg"
)

// WindowStore maintains a ring of per-time-window standing sketches —
// a miniature of the Impression Store design the paper's authors built
// on the same compressive-sensing substrate (HotCloud'14, the paper's
// reference [41]). Observations land in the current window; Rotate
// seals it and opens a fresh one; any contiguous span of recent windows
// can be queried by summing their sketches (linearity again), so
// "outliers over the last hour" and "outliers today" come from the same
// O(windows·M) state with no raw data retained.
//
// A WindowStore is safe for concurrent use; like Updater, the O(M)
// column generation of each observation runs outside the mutex. Nothing
// is measured under it: a delta frame reaches AddSketch already decoded
// (Sketcher.UnmarshalSketchInto measures a pairs payload into the
// caller's sketch), so the mutex guards only O(M) adds and copies.
type WindowStore struct {
	sk *Sketcher

	mu      sync.Mutex
	ring    []linalg.Vector // ring[i] = sketch of window i
	head    int             // index of the current window
	filled  int             // number of windows that have ever been open
	rotated int64
}

// NewWindowStore returns a store holding the current window plus
// history for windows−1 sealed ones. windows must be ≥ 1.
func (s *Sketcher) NewWindowStore(windows int) (*WindowStore, error) {
	if windows < 1 {
		return nil, fmt.Errorf("csoutlier: WindowStore needs at least one window, got %d", windows)
	}
	w := &WindowStore{
		sk:   s,
		ring: make([]linalg.Vector, windows),
	}
	for i := range w.ring {
		w.ring[i] = make(linalg.Vector, s.spec.M)
	}
	w.filled = 1
	return w, nil
}

// Windows returns the ring capacity.
func (w *WindowStore) Windows() int { return len(w.ring) }

// Rotations returns how many times Rotate has been called.
func (w *WindowStore) Rotations() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rotated
}

// Observe folds one observation into the current window in O(M).
func (w *WindowStore) Observe(key string, delta float64) error {
	idx, ok := w.sk.dict.Index(key)
	if !ok {
		return fmt.Errorf("csoutlier: key %q not in global dictionary", key)
	}
	if !finite(delta) {
		return fmt.Errorf("csoutlier: key %q: delta %v is not finite", key, delta)
	}
	if delta == 0 {
		return nil
	}
	col := w.sk.getCol()
	*col = w.sk.matrix.Col(idx, *col) // O(M) PRNG work, outside the mutex
	w.mu.Lock()
	w.ring[w.head].AddScaled(delta, *col)
	w.mu.Unlock()
	w.sk.putCol(col)
	return nil
}

// ObserveBatch folds a batch into the current window; all-or-nothing on
// unknown keys and non-finite deltas.
func (w *WindowStore) ObserveBatch(pairs map[string]float64) error {
	idx := make([]int, 0, len(pairs))
	vals := make([]float64, 0, len(pairs))
	for k, v := range pairs {
		i, ok := w.sk.dict.Index(k)
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
	col := w.sk.getCol()
	*col = w.sk.matrix.MeasureSparse(idx, vals, *col)
	w.mu.Lock()
	w.ring[w.head].Add(*col)
	w.mu.Unlock()
	w.sk.putCol(col)
	return nil
}

// AddSketch folds an already-measured sketch (e.g. a delta shipped by a
// remote streaming node) into the window `age` rotations ago. Sketch
// linearity makes this exactly equivalent to having observed the
// underlying data in that window — it is how the streaming aggregator
// (internal/stream) lands window-tagged deltas that arrive late or out
// of order, with no coordination round.
//
// A sum of finite floats can still overflow. A delta that would take
// any measurement of the window to ±Inf (or carries a non-finite one)
// is refused and the window is left as it was: one such add would make
// every span over the window unanswerable, and every frame a relay
// builds from it unreadable upstream, for the ring's lifetime.
func (w *WindowStore) AddSketch(age int, o Sketch) error {
	if err := o.compatible(w.sk.sketchID()); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.checkAge(age); err != nil {
		return err
	}
	slot := w.ring[w.slot(age)]
	for i, v := range o.Y {
		if s := slot[i] + v; !finite(s) {
			return fmt.Errorf("csoutlier: window age %d: measurement %d would be %v (%v + %v)", age, i, s, slot[i], v)
		}
	}
	linalg.Vector(slot).Add(linalg.Vector(o.Y))
	return nil
}

// RestoreWindows replaces the store's contents with the given sketches,
// oldest first (the last element becomes the open window) — the restore
// half of a snapshot/restore cycle. The copy is Float64bits-exact: a
// store restored from the sketches Window() returned is bit-identical
// to the original, including the relative ring layout, so subsequent
// Rotate/AddSketch sequences evolve it exactly as they would have the
// original. rotations is the original store's lifetime Rotate count, so
// Rotations() stays monotonic across the cycle rather than restarting
// relative to the restored ring; a ring carrying len(sketches)-1 sealed
// windows has rotated at least that often, so rotations must be ≥
// len(sketches)-1, and len(sketches) must be in [1, Windows()].
func (w *WindowStore) RestoreWindows(sketches []Sketch, rotations int64) error {
	if len(sketches) < 1 || len(sketches) > len(w.ring) {
		return fmt.Errorf("csoutlier: restore of %d windows into a %d-window store", len(sketches), len(w.ring))
	}
	if rotations < int64(len(sketches)-1) {
		return fmt.Errorf("csoutlier: restore of %d windows implies ≥ %d rotations, got %d", len(sketches), len(sketches)-1, rotations)
	}
	for _, s := range sketches {
		if err := s.compatible(w.sk.sketchID()); err != nil {
			return err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// With head = len-1, slot(age) = len-1-age: sketches[j] (age len-1-j,
	// oldest first) lands in ring[j].
	w.head = len(sketches) - 1
	w.filled = len(sketches)
	w.rotated = rotations
	for i := range w.ring {
		if i < len(sketches) {
			copy(w.ring[i], sketches[i].Y)
		} else {
			for j := range w.ring[i] {
				w.ring[i][j] = 0
			}
		}
	}
	return nil
}

// Rotate seals the current window and opens a fresh one, evicting the
// oldest when the ring is full.
func (w *WindowStore) Rotate() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.head = (w.head + 1) % len(w.ring)
	for i := range w.ring[w.head] {
		w.ring[w.head][i] = 0 // evict / reset
	}
	if w.filled < len(w.ring) {
		w.filled++
	}
	w.rotated++
}

// Available returns how many windows currently hold data (including the
// open one).
func (w *WindowStore) Available() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.filled
}

// Window returns a copy of the sketch of the window `age` rotations ago
// (0 = the currently open window).
func (w *WindowStore) Window(age int) (Sketch, error) {
	out := w.sk.emptySketch()
	if err := w.WindowInto(age, out); err != nil {
		return Sketch{}, err
	}
	return out, nil
}

// WindowInto is Window into a caller-provided sketch (zero allocation).
func (w *WindowStore) WindowInto(age int, dst Sketch) error {
	if err := dst.compatible(w.sk.sketchID()); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.checkAge(age); err != nil {
		return err
	}
	copy(dst.Y, w.ring[w.slot(age)])
	return nil
}

// Range returns the summed sketch over window ages [fromAge, toAge]
// inclusive, fromAge ≤ toAge; e.g. Range(0, 5) = the last six windows.
// The sum of window sketches is exactly the sketch of the concatenated
// data — no accuracy is lost by querying wider spans.
func (w *WindowStore) Range(fromAge, toAge int) (Sketch, error) {
	out := w.sk.emptySketch()
	if err := w.RangeInto(fromAge, toAge, out); err != nil {
		return Sketch{}, err
	}
	return out, nil
}

// RangeInto is Range into a caller-provided sketch, so a standing query
// re-run on every refresh (the streaming aggregator's hot path) pays no
// allocation. dst is overwritten, not accumulated into.
func (w *WindowStore) RangeInto(fromAge, toAge int, dst Sketch) error {
	if err := dst.compatible(w.sk.sketchID()); err != nil {
		return err
	}
	if fromAge > toAge {
		return fmt.Errorf("csoutlier: window range [%d, %d] inverted", fromAge, toAge)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.checkAge(fromAge); err != nil {
		return err
	}
	if err := w.checkAge(toAge); err != nil {
		return err
	}
	for i := range dst.Y {
		dst.Y[i] = 0
	}
	for age := fromAge; age <= toAge; age++ {
		linalg.Vector(dst.Y).Add(w.ring[w.slot(age)])
	}
	return nil
}

func (w *WindowStore) checkAge(age int) error {
	if age < 0 || age >= w.filled {
		return fmt.Errorf("csoutlier: window age %d outside [0, %d)", age, w.filled)
	}
	return nil
}

func (w *WindowStore) slot(age int) int {
	return ((w.head-age)%len(w.ring) + len(w.ring)) % len(w.ring)
}
