package simtest

import (
	"fmt"
	"math"

	"csoutlier"
	"csoutlier/internal/stream"
	"csoutlier/internal/tier"
)

// pointFlagBand is the dead zone around the threshold inside which the
// checker does not assert the Outlier flag: the estimate is exact only
// to floating-point accumulation error, so a span whose exact deviation
// lands within the band could honestly flag either way. Deviations are
// continuous functions of the seed, so landing inside the band is a
// measure-≈0 event; everywhere else the flag must match the oracle.
const pointFlagBand = 1e-3

// CheckStreamScenario is the streaming harness's unit of work:
// materialize the scenario, run the real push pipeline under its fault
// schedule, then hold the result to the exactness oracle — every root
// window bit-identical to the shadow fold, every span's answers equal to
// the centralized ones, every book balanced — plus the postcondition of
// each mark the schedule carried.
func CheckStreamScenario(scn StreamScenario) error {
	data, err := scn.BuildStream()
	if err != nil {
		return err
	}
	r, err := RunStream(scn, data)
	if err != nil {
		return err
	}
	defer r.Close()
	if err := r.Check(); err != nil {
		return err
	}
	return r.Close()
}

// Check judges a finished run. The universal invariants come first;
// each fault mark then contributes only its own postcondition.
func (r *StreamRig) Check() error {
	scn := r.scn
	// The chaos budgets are sized so every run loses at least one
	// connection mid-exchange; if none died, the faults this harness
	// exists to exercise never happened.
	if !scn.direct() && r.kills < 1 {
		return fmt.Errorf("chaos proxies killed no connections; budgets [%d, %d] too generous for this schedule",
			scn.ProxyMin, scn.ProxyMax)
	}
	if err := r.checkWindows(); err != nil {
		return err
	}
	queries, err := r.checkSpans()
	if err != nil {
		return err
	}
	if scn.pointQueries() {
		if err := r.checkPoints(); err != nil {
			return err
		}
	}
	for s, root := range r.roots {
		if err := r.checkBooks(s, root, queries); err != nil {
			return fmt.Errorf("shard %d root: %w", s, err)
		}
	}
	if err := r.checkLiveness(); err != nil {
		return err
	}
	if err := r.checkRelays(); err != nil {
		return err
	}
	return r.checkMarks()
}

// checkWindows: every root's per-window sketch is bit-identical to the
// shadow mirror of the exact fold sequence — whatever crashed, churned,
// replayed or took an extra hop in between changed nothing.
func (r *StreamRig) checkWindows() error {
	W := r.scn.W
	for s, root := range r.roots {
		for w := 1; w <= W; w++ {
			got, err := root.WindowSketch(W - w)
			if err != nil {
				return fmt.Errorf("shard %d window %d (age %d): %w", s, w, W-w, err)
			}
			want := r.expected[s][w-1]
			for i := range got.Y {
				if math.Float64bits(got.Y[i]) != math.Float64bits(want.Y[i]) {
					return fmt.Errorf("shard %d window %d sketch diverges from shadow fold at Y[%d]: %v != %v (bit-exact)",
						s, w, i, got.Y[i], want.Y[i])
				}
			}
		}
	}
	return nil
}

// checkSpans: every contiguous span's recovered outliers match the
// centralized oracle, and a repeated standing query is asked once more
// (it must come from the recovery cache). Returns how many span queries
// every root answered.
func (r *StreamRig) checkSpans() (int64, error) {
	scn := r.scn
	queries := int64(0)
	for from := 0; from < scn.W; from++ {
		for to := from; to < scn.W; to++ {
			rep, err := r.query.Outliers(from, to, scn.K)
			queries++
			if err != nil {
				return 0, fmt.Errorf("span [%d,%d]: %w", from, to, err)
			}
			ans, err := streamSpanOracle(scn.K, r.data, scn.W-to, scn.W-from)
			if err != nil {
				return 0, err
			}
			if err := compareReport(rep, ans); err != nil {
				return 0, fmt.Errorf("span [%d,%d] differential oracle: %w", from, to, err)
			}
		}
	}
	if _, err := r.query.Outliers(0, scn.W-1, scn.K); err != nil {
		return 0, err
	}
	return queries + 1, nil
}

// checkPointAnswer compares one PointAnswer against the exact span
// truth: mode and value within matchTol, Deviation = Value − Mode, and
// the Outlier flag equal to the oracle's verdict whenever the exact
// deviation is not inside the pointFlagBand dead zone around the
// threshold.
func checkPointAnswer(truth spanTruth, idx int, ans csoutlier.PointAnswer) error {
	exact := truth.sum[idx]
	if !closeRel(ans.Mode, truth.mode) {
		return fmt.Errorf("key %d: mode %v, oracle %v", idx, ans.Mode, truth.mode)
	}
	if !closeRel(ans.Value, exact) {
		return fmt.Errorf("key %d: value %v, oracle %v", idx, ans.Value, exact)
	}
	if ans.Deviation != ans.Value-ans.Mode {
		return fmt.Errorf("key %d: deviation %v != value %v − mode %v", idx, ans.Deviation, ans.Value, ans.Mode)
	}
	dev := math.Abs(exact - truth.mode)
	if math.Abs(dev-pointThreshold) <= pointFlagBand {
		return nil // exact deviation inside the dead zone: either flag is honest
	}
	if want := dev >= pointThreshold; ans.Outlier != want {
		return fmt.Errorf("key %d: outlier flag %v, oracle deviation %v vs threshold %v says %v",
			idx, ans.Outlier, dev, float64(pointThreshold), want)
	}
	return nil
}

// checkPoints: every mid-run probe and a final sweep — every contiguous
// span, every planted key plus the full clean sample, asked once as a
// watch list and once key by key — agree with the exact oracle: planted
// keys recovered to matchTol and flagged correctly, clean keys on the
// mode and never flagged (outside the threshold dead zone).
func (r *StreamRig) checkPoints() error {
	scn := r.scn
	// A probe issued after window w at ages [from, to] covers windows
	// [w−to, w−from].
	for _, p := range r.probes {
		tr, err := r.data.truthFor(p.Window-p.ToAge, p.Window-p.FromAge)
		if err != nil {
			return err
		}
		if err := checkPointAnswer(tr, p.Index, p.Ans); err != nil {
			return fmt.Errorf("mid-run probe after window %d, span ages [%d,%d]: %w", p.Window, p.FromAge, p.ToAge, err)
		}
	}
	idxs := append(append([]int{}, r.data.Support...), r.clean...)
	watch := make([]string, len(idxs))
	for i, idx := range idxs {
		watch[i] = r.data.Keys[idx]
	}
	for from := 0; from < scn.W; from++ {
		for to := from; to < scn.W; to++ {
			tr, err := r.data.truthFor(scn.W-to, scn.W-from)
			if err != nil {
				return err
			}
			answers, err := r.query.PointQueryMulti(from, to, watch, pointThreshold)
			if err != nil {
				return fmt.Errorf("span [%d,%d] point watch list: %w", from, to, err)
			}
			for i, idx := range idxs {
				one, err := r.query.PointQuery(from, to, watch[i], pointThreshold)
				if err != nil {
					return fmt.Errorf("span [%d,%d] point query key %d: %w", from, to, idx, err)
				}
				for _, ans := range []csoutlier.PointAnswer{answers[i], one} {
					r.notePoint(idx, ans)
					if err := checkPointAnswer(tr, idx, ans); err != nil {
						return fmt.Errorf("span [%d,%d] point answer: %w", from, to, err)
					}
				}
			}
		}
	}
	return nil
}

// checkBooks: one root's counters at quiescence. Every frame landed in
// exactly one outcome bucket, every span query either hit or missed the
// recovery cache (the repeated one hit), every point query and flag was
// counted once with refreshes within [distinct spans, queries], the
// metrics registry is the same books as the AggStats snapshot, and every
// leaf capture bound for this shard was folded here exactly once.
func (r *StreamRig) checkBooks(s int, root *stream.Aggregator, queries int64) error {
	scn := r.scn
	st := root.Stats()
	if st.Frames != st.Applied+st.Duplicates+st.Dropped+st.Rejected {
		return fmt.Errorf("frame identity violated: %d frames != %d applied + %d dup + %d dropped + %d rejected",
			st.Frames, st.Applied, st.Duplicates, st.Dropped, st.Rejected)
	}
	if st.CacheHits < 1 {
		return fmt.Errorf("repeated standing query missed the cache: %+v", st)
	}
	if got := st.CacheHits + st.CacheMisses; got != queries {
		return fmt.Errorf("cache hits+misses = %d, issued %d queries", got, queries)
	}
	if st.PointQueries != r.pointIssued[s] {
		return fmt.Errorf("PointQueries = %d, issued %d", st.PointQueries, r.pointIssued[s])
	}
	if st.PointOutliers != r.pointFlagged[s] {
		return fmt.Errorf("PointOutliers = %d, observed %d flagged answers", st.PointOutliers, r.pointFlagged[s])
	}
	if spans := int64(scn.W * (scn.W + 1) / 2); scn.pointQueries() && (st.PointRefreshes < spans || st.PointRefreshes > st.PointQueries) {
		return fmt.Errorf("PointRefreshes = %d outside [%d distinct spans, %d queries]", st.PointRefreshes, spans, st.PointQueries)
	}
	if want := uint64(1 + r.restores); st.AggEpoch != want {
		return fmt.Errorf("aggregator incarnation %d, want %d", st.AggEpoch, want)
	}
	if reg := root.MetricsRegistry(); reg != nil {
		for _, c := range []struct {
			name string
			want int64
		}{
			{"stream_frames_total", st.Frames},
			{"stream_rotations_total", st.Rotations},
			{"stream_hellos_total", st.Hellos},
			{"stream_connections_total", st.Conns},
			{"pointq_queries_total", st.PointQueries},
			{"pointq_refreshes_total", st.PointRefreshes},
			{"pointq_outliers_total", st.PointOutliers},
		} {
			if got := reg.Counter(c.name, "").Value(); got != c.want {
				return fmt.Errorf("registry %s = %d, AggStats says %d", c.name, got, c.want)
			}
		}
		outcomes := reg.CounterVec("stream_frame_outcomes_total", "", "outcome")
		for _, c := range []struct {
			label string
			want  int64
		}{
			{"applied", st.Applied},
			{"duplicate", st.Duplicates},
			{"dropped", st.Dropped},
			{"rejected", st.Rejected},
		} {
			if got := outcomes.With(c.label).Value(); got != c.want {
				return fmt.Errorf("registry frame outcome %s = %d, AggStats says %d", c.label, got, c.want)
			}
		}
	}
	// The per-node rows travel in a snapshot, so their sums span a
	// restore; the aggregate counters do not, and are compared only on a
	// root that never restarted. Rejected is >=: a stale-epoch frame is
	// refused before any node state is charged, so it counts
	// aggregator-wide only.
	var applied, dups, dropped, rejected, shed int64
	for _, ns := range root.Nodes() {
		applied += ns.Applied
		dups += ns.Duplicates
		dropped += ns.Dropped
		rejected += ns.Rejected
		shed += ns.ShedFolds
	}
	if applied+shed != r.captured[s] {
		return fmt.Errorf("conservation violated: %d frames applied + %d shed folds, %d captures taken across all nodes",
			applied, shed, r.captured[s])
	}
	if r.restores > 0 {
		return nil
	}
	switch {
	case applied != st.Applied, dups != st.Duplicates, dropped != st.Dropped, shed != st.ShedFolds:
		return fmt.Errorf("per-node sums (applied %d, dup %d, dropped %d, shed folds %d) disagree with aggregate (%d, %d, %d, %d)",
			applied, dups, dropped, shed, st.Applied, st.Duplicates, st.Dropped, st.ShedFolds)
	case rejected > st.Rejected:
		return fmt.Errorf("per-node rejected sum %d exceeds aggregate %d", rejected, st.Rejected)
	}
	return nil
}

// checkLiveness: the liveness table of every lane — the aggregator its
// leaves push into — holds exactly the leaves homed on it: the leaver
// left, everyone else live and caught up, a crashed node on epoch 2
// after one restart and everyone else on epoch 1, and nobody short of a
// delta per window it took part in.
func (r *StreamRig) checkLiveness() error {
	scn := r.scn
	crash, leave, join := scn.mark(MarkNodeCrash), scn.mark(MarkLeave), scn.mark(MarkJoin)
	for s := range r.lanes {
		for li, ln := range r.lanes[s] {
			agg := r.roots[s]
			if ln.relay != nil {
				agg = ln.relay.Aggregator()
			}
			rows := agg.Nodes()
			homed := 0
			for l := range r.epoch {
				if l%len(r.lanes[s]) == li {
					homed++
				}
			}
			if len(rows) != homed {
				return fmt.Errorf("lane %d/%d: %d nodes in liveness table, want %d", s, li, len(rows), homed)
			}
			for _, ns := range rows {
				l := -1
				fmt.Sscanf(ns.Node, "node%d", &l)
				windows, epoch := scn.W, uint64(1)
				if crash != nil && l == crash.Node {
					epoch = 2
				}
				if join != nil && l == scn.L {
					windows = scn.W - join.Window + 1
				}
				left := leave != nil && l == leave.Node
				if left {
					windows = leave.Window
				}
				switch {
				case left && ns.State != stream.StateLeft:
					return fmt.Errorf("leaver status %+v, want state %q", ns, stream.StateLeft)
				case !left && ns.State != stream.StateLive:
					return fmt.Errorf("node %s state %q at quiescence, want live", ns.Node, ns.State)
				case ns.Epoch != epoch || ns.Restarts != int64(epoch-1):
					return fmt.Errorf("node %s status %+v, want epoch %d after %d restarts", ns.Node, ns, epoch, epoch-1)
				case !left && ns.Lag != 0:
					return fmt.Errorf("node %s still lags after final sync: %+v", ns.Node, ns)
				case ns.Applied < int64(windows)-1:
					return fmt.Errorf("node %s applied only %d deltas over %d windows", ns.Node, ns.Applied, windows)
				}
			}
		}
	}
	return nil
}

// checkRelays: every relay closed with clean, drained books.
func (r *StreamRig) checkRelays() error {
	return r.eachRelay("books", func(rel *tier.Relay) error {
		rs := rel.Stats()
		if rs.ForwardErrors != 0 || rs.Rejected != 0 || rs.Dropped != 0 {
			return fmt.Errorf("%+v", rs)
		}
		if rs.Queued != 0 || rs.Staged != 0 || rs.Unstable != 0 {
			return fmt.Errorf("not drained at close: %+v", rs)
		}
		return nil
	})
}

// checkMarks: what each scheduled fault must have left behind.
func (r *StreamRig) checkMarks() error {
	scn := r.scn
	st := r.roots[0].Stats()
	// Every verbatim re-delivery since the root's last restore — each dup
	// injection, and the restore's own probe of a snapshot-covered frame —
	// was acked as a duplicate, so the books must show at least as many.
	if st.Duplicates < r.dups {
		return fmt.Errorf("aggregator saw %d duplicates, %d verbatim re-deliveries were acked as such: %+v", st.Duplicates, r.dups, st)
	}
	if crash := scn.mark(MarkAggCrash); crash != nil {
		// Every frame folded in (snap, crash] died with the first
		// incarnation; retention replay is the only way it got back in.
		if lost := int64(crash.Flush - scn.mark(MarkSnap).Flush); r.replayed < lost {
			return fmt.Errorf("nodes replayed %d retained frames, crash lost %d", r.replayed, lost)
		}
	}
	if scn.mark(MarkJoin) != nil || scn.mark(MarkLeave) != nil || scn.mark(MarkEvict) != nil {
		// No shedding is configured, so the shed counters must stay zero,
		// and churn must not push a delta out of the ring.
		switch {
		case st.ShedFrames != 0 || st.ShedFolds != 0:
			return fmt.Errorf("shed counters moved without shedding configured: %+v", st)
		case st.Dropped != 0:
			return fmt.Errorf("%d frames dropped as older than the ring; churn must not lose deltas", st.Dropped)
		case st.Joins != r.joins:
			return fmt.Errorf("joins = %d, want %d (first dials and resurrections since the last restore)", st.Joins, r.joins)
		case st.Leaves != r.leaves:
			return fmt.Errorf("leaves = %d, want %d", st.Leaves, r.leaves)
		case st.Evictions != r.evictions:
			return fmt.Errorf("evictions = %d, want %d", st.Evictions, r.evictions)
		case st.Tombstones != r.tombs:
			return fmt.Errorf("tombstones = %d, want %d (a leaver stays one; an evictee is resurrected)", st.Tombstones, r.tombs)
		case st.Membership != r.member:
			return fmt.Errorf("membership version = %d, want %d (every join, leave and eviction bumps it)", st.Membership, r.member)
		}
	}
	if kill := scn.mark(MarkRelayKill); kill != nil {
		if r.replayed < 1 {
			return fmt.Errorf("relay kill lost no leaf frames (%s); the scenario is vacuous", kill)
		}
		for s, root := range r.roots {
			st := root.Stats()
			if st.Rejected != 0 || st.Dropped != 0 {
				return fmt.Errorf("shard %d root rejected %d / dropped %d upward frames", s, st.Rejected, st.Dropped)
			}
			if s == kill.Node && st.Duplicates < 1 {
				return fmt.Errorf("kill-shard root saw no duplicates; the restored relay's upward replay should dedup: %+v", st)
			}
		}
	}
	return nil
}
