package recovery

import (
	"sync"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// gramCacheBytes bounds the columns a GramCache keeps between runs.
const gramCacheBytes = 64 << 20

// GramCache holds extended Gram columns g_s = [φ₀·col_s, Φ₀ᵀcol_s] of one
// measurement matrix, where col_s is column s of the extended dictionary
// [φ₀, Φ₀]. The greedy loop needs g_s for every column it has selected
// (see Workspace), g_s is a pure function of the matrix, and a standing
// query selects mostly the columns its previous generation selected — so
// each is computed once, by one correlate, and kept.
//
// The cache keeps at most min(M, 64 MiB ÷ 8(N+1)) columns between runs:
// a miss allocates a column until that many exist, and from then on
// recycles the one selected longest ago. A run pins the columns it uses
// and a pinned column is never recycled: when every column is pinned the
// cache grows past its bound for as long as those runs last. It is safe
// for concurrent use by any number of workspaces.
type GramCache struct {
	m      sensing.Matrix
	stride int // N+1
	limit  int // columns kept between runs

	once sync.Once
	phi0 linalg.Vector // φ₀, read-only after once

	mu    sync.Mutex
	slots []*gramSlot
	index map[int]*gramSlot // extended column → the slot that holds its g
	clock uint64
}

type gramSlot struct {
	g     linalg.Vector
	col   int
	pins  int
	used  uint64 // clock at the last pin: LRU by last selection
	extra bool   // allocated with every slot within the bound pinned
}

// NewGramCache returns the cache a Sketcher shares among its workspaces
// (NewWorkspace on it). Nothing is allocated until the first run.
func NewGramCache(m sensing.Matrix) *GramCache {
	p := m.Params()
	limit := gramCacheBytes / (8 * (p.N + 1))
	if limit > p.M {
		limit = p.M // a run selects at most M columns
	}
	if limit < 1 {
		limit = 1
	}
	return &GramCache{m: m, stride: p.N + 1, limit: limit}
}

// NewWorkspace returns a workspace whose runs share c's columns.
func (c *GramCache) NewWorkspace() *Workspace { return &Workspace{gram: c} }

func (c *GramCache) init() {
	c.once.Do(func() {
		c.phi0 = c.m.ExtensionColumn(nil)
		c.index = make(map[int]*gramSlot)
	})
}

// pin returns a slot pinned for the caller and whether it already holds
// g_col. On a miss the slot is the caller's alone: it writes g_col into
// slot.g and then calls publish. Two runs that miss the same column at
// once both compute it (the bits are equal) and the second publish is a
// no-op; nobody ever waits for another run.
func (c *GramCache) pin(col int) (slot *gramSlot, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if s := c.index[col]; s != nil {
		s.pins++
		s.used = c.clock
		return s, true
	}
	var s *gramSlot
	if len(c.slots) >= c.limit {
		for _, cand := range c.slots {
			if cand.pins == 0 && (s == nil || cand.used < s.used) {
				s = cand
			}
		}
	}
	if s == nil {
		s = &gramSlot{g: make(linalg.Vector, c.stride), extra: len(c.slots) >= c.limit}
		c.slots = append(c.slots, s)
	} else if c.index[s.col] == s {
		delete(c.index, s.col)
	}
	s.col, s.pins, s.used = col, 1, c.clock
	return s, false
}

// publish makes a filled slot findable.
func (c *GramCache) publish(s *gramSlot) {
	c.mu.Lock()
	if c.index[s.col] == nil {
		c.index[s.col] = s
	}
	c.mu.Unlock()
}

// unpin releases a run's pins, and drops the slots allocated beyond the
// bound once nothing holds them.
func (c *GramCache) unpin(pins []*gramSlot) {
	if len(pins) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range pins {
		s.pins--
		if s.pins > 0 || !s.extra {
			continue
		}
		if c.index[s.col] == s {
			delete(c.index, s.col)
		}
		for i, have := range c.slots {
			if have == s {
				last := len(c.slots) - 1
				c.slots[i] = c.slots[last]
				c.slots[last] = nil
				c.slots = c.slots[:last]
				break
			}
		}
	}
}

// fill writes g_col into slot.g given the column's M entries: the one
// place a Gram column is computed outside a batch's block correlate.
func (c *GramCache) fill(s *gramSlot, col linalg.Vector) {
	s.g[0] = c.phi0.Dot(col)
	c.m.Correlate(col, s.g[1:])
}

// column writes extended-dictionary column j into dst.
func (c *GramCache) column(j int, dst linalg.Vector) linalg.Vector {
	if j == 0 {
		dst = ensureVec(dst, len(c.phi0))
		copy(dst, c.phi0)
		return dst
	}
	return c.m.Col(j-1, dst)
}

// GramStats counts the work a solve did beyond its O(t·N) iterations.
type GramStats struct {
	// Hits and Misses count Gram-column lookups: a miss is one correlate
	// of one dictionary column against the whole matrix.
	Hits, Misses int
	// CorrelateColumns is dictionary columns × vectors correlated with
	// them: N per greedy run for c₀ = Φᵀy, N more per miss. A batch item
	// cut from another item's run (see share) correlates nothing.
	CorrelateColumns int
}

func (s *GramStats) add(o GramStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.CorrelateColumns += o.CorrelateColumns
}
