package recovery

import (
	"fmt"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// BatchItem is one query in a BOMPBatch call.
type BatchItem struct {
	// Y is the measurement (sketch) to recover from.
	Y linalg.Vector
	// Warm is the previous generation's extended-dictionary selection
	// order (Result.Selection) for this query, or nil. It is a prefetch
	// list and nothing more: the Gram columns it names are fetched in the
	// batch's one block correlate instead of one by one as the run
	// selects them. An arbitrary or stale Warm is safe: recovery output
	// is bit-identical with or without it.
	Warm []int
	// Opt tunes the greedy engine, exactly as in Workspace.BOMP.
	Opt Options
}

// BatchStats reports what a batch did.
type BatchStats struct {
	// Items is the number of queries in the batch.
	Items int
	// Warm is how many of them carried a non-empty warm hint.
	Warm int
	// GramStats sums the items' cache and correlate work.
	GramStats
}

// BOMPWarm is Workspace.BOMP with a warm hint: the previous generation's
// Result.Selection for the same query. The result is bit-identical to
// ws.BOMP(m, y, opt) — the hint only changes when the Gram columns are
// fetched, never what is selected.
func (ws *Workspace) BOMPWarm(m sensing.Matrix, y linalg.Vector, warm []int, opt Options) (*Result, error) {
	return ws.solveOne(m, BatchItem{Y: y, Warm: warm, Opt: opt}, true)
}

// BOMPBatch solves many BOMP queries against the same matrix, sharing
// one pass over it (see solve). wss supplies one workspace per item
// (results alias their workspaces, exactly as in Workspace.BOMP; the
// returned slice aliases wss[0]). Each results[i] is bit-identical to
// wss[i].BOMP(m, items[i].Y, items[i].Opt).
func BOMPBatch(m sensing.Matrix, wss []*Workspace, items []BatchItem) ([]*Result, BatchStats, error) {
	stats := BatchStats{Items: len(items)}
	if len(wss) != len(items) {
		return nil, stats, fmt.Errorf("recovery: %d workspaces for %d batch items", len(wss), len(items))
	}
	if len(items) == 0 {
		return nil, stats, nil
	}
	p := m.Params()
	for i := range items {
		if len(items[i].Y) != p.M {
			return nil, stats, fmt.Errorf("%w: batch item %d len(y)=%d, M=%d", ErrDimension, i, len(items[i].Y), p.M)
		}
		if len(items[i].Warm) > 0 {
			stats.Warm++
		}
	}
	solve(m, wss, items, true)
	lead := wss[0]
	lead.results = lead.results[:0]
	for _, ws := range wss {
		lead.results = append(lead.results, ws.finish())
		stats.add(ws.stats)
	}
	return lead.results, stats, nil
}
