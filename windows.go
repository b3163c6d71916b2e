package csoutlier

import (
	"fmt"
	"sync"

	"csoutlier/internal/linalg"
)

// WindowStore maintains a ring of per-time-window standing sketches —
// a miniature of the Impression Store design the paper's authors built
// on the same compressive-sensing substrate (HotCloud'14, the paper's
// reference [41]). Sketches land in the current window (AddSketch);
// Rotate seals it and opens a fresh one; any contiguous span of recent windows
// can be queried by summing their sketches (linearity again), so
// "outliers over the last hour" and "outliers today" come from the same
// O(windows·M) state with no raw data retained.
//
// A WindowStore is safe for concurrent use. Nothing is measured under
// its mutex: a delta frame reaches AddSketch already decoded
// (Sketcher.UnmarshalSketchInto measures a pairs payload into the
// caller's sketch), so the mutex guards only O(M) adds and copies.
type WindowStore struct {
	sk *Sketcher

	mu     sync.Mutex
	ring   []linalg.Vector // ring[i] = sketch of window i
	head   int             // index of the current window
	filled int             // number of windows that have ever been open
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
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.checkAge(age); err != nil {
		return err
	}
	win := w.sk.sketchID()
	win.Y = w.ring[w.slot(age)]
	if err := win.Add(o); err != nil {
		return fmt.Errorf("%w in window age %d", err, age)
	}
	return nil
}

// RestoreWindows replaces the store's contents with the given sketches,
// oldest first (the last element becomes the open window) — the restore
// half of a snapshot/restore cycle. The copy is Float64bits-exact: a
// store restored from the sketches Window() returned is bit-identical
// to the original, including the relative ring layout, so subsequent
// Rotate/AddSketch sequences evolve it exactly as they would have the
// original. len(sketches) must be in [1, Windows()].
func (w *WindowStore) RestoreWindows(sketches []Sketch) error {
	if len(sketches) < 1 || len(sketches) > len(w.ring) {
		return fmt.Errorf("csoutlier: restore of %d windows into a %d-window store", len(sketches), len(w.ring))
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
	out := w.sk.ZeroSketch()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.checkAge(age); err != nil {
		return Sketch{}, err
	}
	copy(out.Y, w.ring[w.slot(age)])
	return out, nil
}

// AppendWindow appends the sketch-codec encoding of the window `age`
// rotations ago to dst — the bytes Window(age) then MarshalBinary would
// give, encoded straight from the ring slot with no M-float copy.
func (w *WindowStore) AppendWindow(dst []byte, age int) ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.checkAge(age); err != nil {
		return dst, err
	}
	s := w.sk.sketchID()
	s.Y = w.ring[w.slot(age)]
	return s.AppendBinary(dst)
}

// Range returns the summed sketch over window ages [fromAge, toAge]
// inclusive, fromAge ≤ toAge; e.g. Range(0, 5) = the last six windows.
// The sum of window sketches is exactly the sketch of the concatenated
// data — no accuracy is lost by querying wider spans.
func (w *WindowStore) Range(fromAge, toAge int) (Sketch, error) {
	out := w.sk.ZeroSketch()
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
