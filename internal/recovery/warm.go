package recovery

import (
	"fmt"

	"csoutlier/internal/linalg"
	"csoutlier/internal/sensing"
)

// This file is the batched, warm-started BOMP engine. Two costs dominate
// a standing query that is re-solved on every fold generation: the
// O(M·N) correlation per greedy iteration, and — for the regenerating
// ensembles — the PRNG work inside it. Both amortize:
//
//   - Warm start: the previous generation's Selection is usually still
//     the right selection order, because consecutive sketches differ by
//     a small delta. We PREDICT the run: seed a scratch QR with the
//     hinted columns, record the residual the algorithm WOULD hold at
//     each iteration, and precompute every iteration's correlation
//     up front.
//   - Batching: those predicted residuals — across all iterations of
//     all queries in the batch — go through ONE sensing.CorrelateBlock
//     call, which regenerates each dictionary column once for the whole
//     block instead of once per query per iteration.
//
// The REPLAY then runs the ordinary greedy loop (greedyStep — literally
// the cold code path), feeding it the precomputed correlation vectors
// while its selections match the prediction, and falling back to live
// correlations the moment they do not. Bit-identity with a cold run is
// therefore structural, not numerical luck: the QR update is a
// deterministic function of the appended column sequence, so as long as
// the live run has selected exactly the predicted prefix, the predicted
// residual rows are bit-equal to the live residuals, their correlations
// are bit-equal to what the cold run would compute (CorrelateBlock's
// per-residual bit-identity contract), and greedyStep makes bit-equal
// decisions. A wrong, stale, or garbage hint costs only wasted predicted
// rows — never a different answer.

// BatchItem is one query in a BOMPBatch call.
type BatchItem struct {
	// Y is the measurement (sketch) to recover from.
	Y linalg.Vector
	// Warm is the previous generation's extended-dictionary selection
	// order (Result.Selection) for this query, or nil for a cold solve.
	// An arbitrary or stale Warm is safe: recovery output is bit-identical
	// to a cold run regardless.
	Warm []int
	// Opt tunes the greedy engine, exactly as in Workspace.BOMP.
	Opt Options
}

// BatchStats reports what the batch engine amortized.
type BatchStats struct {
	// Items is the number of queries in the batch.
	Items int
	// Warm is how many of them carried a non-empty warm hint.
	Warm int
	// ScriptedIterations counts greedy iterations served from the
	// precomputed correlation block — their O(M·N) correlate cost was
	// batched and amortized.
	ScriptedIterations int
	// LiveIterations counts greedy iterations that needed a fresh
	// correlation after replay ended (divergence, script exhausted, or
	// cold items that outlived their one precomputed row).
	LiveIterations int
	// Divergences counts items whose live selection left the predicted
	// script before it was exhausted (stale hint detected and ignored).
	Divergences int
	// Rounds is the number of live correlation passes; each batches all
	// still-active items into one CorrelateBlock call.
	Rounds int
}

// BOMPWarm is Workspace.BOMP with a warm hint: recover y, seeding the
// greedy engine with the previous generation's Result.Selection for the
// same query. The result is bit-identical to ws.BOMP(m, y, opt) — the
// hint only changes where the correlations come from, never what is
// selected. A nil hint is a plain (but still block-correlated) cold run.
func (ws *Workspace) BOMPWarm(m sensing.Matrix, y linalg.Vector, warm []int, opt Options) (*Result, error) {
	res, _, err := BOMPBatch(m, []*Workspace{ws}, []BatchItem{{Y: y, Warm: warm, Opt: opt}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// BOMPBatch solves many BOMP queries against the same matrix in one
// pass, amortizing dictionary-column generation across every query and
// every warm-predicted iteration. wss supplies one workspace per item
// (results alias their workspaces, exactly as in Workspace.BOMP).
// Each results[i] is bit-identical to wss[i].BOMP(m, items[i].Y,
// items[i].Opt).
func BOMPBatch(m sensing.Matrix, wss []*Workspace, items []BatchItem) ([]*Result, BatchStats, error) {
	var stats BatchStats
	if len(wss) != len(items) {
		return nil, stats, fmt.Errorf("recovery: %d workspaces for %d batch items", len(wss), len(items))
	}
	p := m.Params()
	stride := p.N + 1
	for i := range items {
		if len(items[i].Y) != p.M {
			return nil, stats, fmt.Errorf("%w: batch item %d len(y)=%d, M=%d", ErrDimension, i, len(items[i].Y), p.M)
		}
	}
	stats.Items = len(items)

	// Phase A: per item, predict the run — validate the hint, seed the
	// scratch QR with it, and record the residual each iteration would
	// correlate against. predict runs BEFORE greedyInit so a hint that
	// aliases this workspace's previous Selection is copied out intact.
	rows := make([]int, len(items))
	for i, ws := range wss {
		it := items[i]
		ws.phi0 = m.ExtensionColumn(ws.phi0)
		ws.bd.m, ws.bd.phi0 = m, ws.phi0
		var modeFn func(z linalg.Vector, idx []int) float64
		if it.Opt.TraceMode {
			n := p.N
			modeFn = func(z linalg.Vector, idx []int) float64 {
				return modeFromExtended(z, idx, n)
			}
		}
		rows[i] = ws.predict(&ws.bd, it.Y, p.M, it.Opt, it.Warm)
		if len(it.Warm) > 0 {
			stats.Warm++
		}
		ws.greedyInit(&ws.bd, it.Y, p.M, it.Opt, modeFn)
	}

	// Phase B: ONE batched biased correlation over every predicted
	// residual row of every item.
	biasedBlock(m, wss, rows, p.M, stride)

	// Phase C: scripted replay — the cold greedy loop fed precomputed
	// correlations, at zero correlate cost per iteration.
	for i, ws := range wss {
		ws.replayScripted(rows[i], stride, &stats)
	}

	// Live rounds: items that outlived their script (or diverged from
	// it) continue with fresh correlations, still batched across all
	// active items per round.
	var (
		active []int
		rs     []linalg.Vector
		dsts   []linalg.Vector
	)
	for {
		active = active[:0]
		for i, ws := range wss {
			if !ws.st.done {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			break
		}
		stats.Rounds++
		rs, dsts = rs[:0], dsts[:0]
		for _, i := range active {
			ws := wss[i]
			ws.corr = ensureVec(ws.corr, stride)
			ws.corr[0] = ws.phi0.Dot(ws.residual)
			rs = append(rs, ws.residual)
			dsts = append(dsts, ws.corr[1:stride])
		}
		sensing.CorrelateBlock(m, rs, dsts)
		for _, i := range active {
			wss[i].greedyStep()
			stats.LiveIterations++
		}
	}

	results := make([]*Result, len(wss))
	for i, ws := range wss {
		res, err := ws.finishBOMP(p)
		if err != nil {
			return nil, stats, fmt.Errorf("recovery: batch item %d: %w", i, err)
		}
		results[i] = res
	}
	return results, stats, nil
}

// predict validates the warm hint into ws.script and simulates the run
// it implies: seed ws.qrSeed with the hinted columns in order and record
// into ws.predRes the residual the greedy loop would correlate against
// at each iteration (row 0 is y itself — even a cold run's first
// correlation batches). It returns the number of rows recorded, which is
// len(script)+1 unless a stop — tolerance, §5 stall, iteration budget,
// or a column the seed QR rejects — is predicted earlier.
//
// The stop predictions reuse the exact greedy-loop thresholds, so for an
// on-trajectory hint the predicted stop is the real one and no row is
// wasted; for an off-trajectory hint they are merely heuristics that
// bound wasted precomputation, and replay divergence restores
// correctness.
func (ws *Workspace) predict(d *biasedDict, y linalg.Vector, m int, opt Options, warm []int) int {
	size := d.size()
	maxIter := clampMaxIter(opt.MaxIterations, m, size)

	// Truncate the hint at the first index a real run could never have
	// selected there: out of range, or a repeat. ws.masked is free as
	// scratch here — greedyInit resets it after predict.
	ws.script = ws.script[:0]
	ws.masked.reset(size)
	for _, j := range warm {
		if len(ws.script) >= maxIter || j < 0 || j >= size || ws.masked.has(j) {
			break
		}
		ws.masked.set(j)
		ws.script = append(ws.script, j)
	}

	yNorm := y.Norm2()
	if yNorm == 0 || maxIter < 1 {
		ws.script = ws.script[:0]
		return 0 // the run selects nothing and never correlates
	}
	if ws.qrSeed == nil {
		ws.qrSeed = linalg.NewIncrementalQR(m)
	} else {
		ws.qrSeed.Reset(m)
	}
	ws.qrSeed.SetTarget(y)
	tol := opt.residualTol() * yNorm
	stall := opt.stallRelTol()

	ws.predRes = ensureVec(ws.predRes, (len(ws.script)+1)*m)
	copy(ws.predRes[:m], y)
	rows := 1
	prevNorm := yNorm
	for t, j := range ws.script {
		ws.colBuf = d.col(j, ws.colBuf)
		if _, err := ws.qrSeed.Append(ws.colBuf); err != nil {
			// Rank-deficient (or otherwise rejected) hint column: a real
			// run would have picked something else here — off trajectory.
			break
		}
		norm := ws.qrSeed.ResidualNorm()
		if norm <= tol {
			break // tolerance stop predicted right after this selection
		}
		if !opt.DisableEarlyStop && norm >= prevNorm*(1-stall) {
			break // §5 stall predicted
		}
		prevNorm = norm
		if t+1 >= maxIter {
			break // budget exhausted after this selection
		}
		ws.qrSeed.Residual(ws.predRes[rows*m : (rows+1)*m])
		rows++
	}
	return rows
}

// biasedBlock fills each workspace's predCorr with the biased-dictionary
// correlation of each of its predicted residual rows — every row of
// every item through one sensing.CorrelateBlock call, which is where the
// batch engine's column-regeneration amortization happens.
func biasedBlock(m sensing.Matrix, wss []*Workspace, rows []int, mdim, stride int) {
	total := 0
	for _, r := range rows {
		total += r
	}
	if total == 0 {
		return
	}
	rs := make([]linalg.Vector, 0, total)
	dsts := make([]linalg.Vector, 0, total)
	for i, ws := range wss {
		ws.predCorr = ensureVec(ws.predCorr, rows[i]*stride)
		for t := 0; t < rows[i]; t++ {
			r := ws.predRes[t*mdim : (t+1)*mdim]
			// Same two pieces as biasedDict.correlate: φ₀·r in slot 0,
			// Φᵀr in the rest (bit-identical per CorrelateBlock's contract).
			ws.predCorr[t*stride] = ws.phi0.Dot(r)
			rs = append(rs, r)
			dsts = append(dsts, ws.predCorr[t*stride+1:(t+1)*stride])
		}
	}
	sensing.CorrelateBlock(m, rs, dsts)
}

// replayScripted steps the greedy loop through the precomputed
// correlation rows. Row t is the correlation of the residual after t
// selections ON the predicted script, so it is consumed only while the
// live selections still equal the script prefix; the first off-script
// selection (still made from a VALID correlation row — the row that
// produced it was computed from the true live residual) invalidates the
// remaining rows and ends the replay.
func (ws *Workspace) replayScripted(rows, stride int, stats *BatchStats) {
	for t := 0; t < rows && !ws.st.done; t++ {
		ws.corr = ws.predCorr[t*stride : (t+1)*stride]
		selBefore := len(ws.selected)
		ws.greedyStep()
		stats.ScriptedIterations++
		if ws.st.done || len(ws.selected) == selBefore {
			return
		}
		picked := ws.selected[len(ws.selected)-1]
		if selBefore >= len(ws.script) {
			return // bonus row beyond the hint: no more rows to consume
		}
		if picked != ws.script[selBefore] {
			stats.Divergences++
			return // stale hint: rows t+1.. were predicted for a different residual
		}
	}
}
