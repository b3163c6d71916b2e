package csoutlier

import (
	"fmt"

	"csoutlier/internal/queries"
	"csoutlier/internal/recovery"
)

// AggregateReport answers the paper's "related aggregation queries"
// (§1: mean, top-k, percentile, ...) from one recovery pass over a
// global sketch. All answers are derived from the compact recovered
// representation (mode + outliers), so querying costs O(s·log s), not
// O(N).
type AggregateReport struct {
	rec  *queries.Recovered
	keys func(int) string
}

// Aggregate recovers the global aggregate once and returns a report
// that can answer sum/mean/percentile/top-k queries. maxIters bounds
// the recovery effort (0 = min(M, N+1): recover everything the sketch
// supports); for a known outlier budget s, 2s..5s iterations suffice
// (paper §5).
func (s *Sketcher) Aggregate(global Sketch, maxIters int) (*AggregateReport, error) {
	if err := global.compatible(s.sketchID()); err != nil {
		return nil, err
	}
	ws := s.workspace()
	res, err := ws.BOMP(s.matrix, global.Y, recovery.Options{MaxIterations: maxIters})
	if err != nil {
		return nil, err
	}
	// res aliases ws's buffers and the report outlives this call: copy
	// the support and values out before returning ws to the pool.
	rec := &queries.Recovered{
		N:       s.spec.N,
		Mode:    res.Mode,
		Support: append([]int(nil), res.Support...),
	}
	for _, j := range res.Support {
		rec.Values = append(rec.Values, res.X[j])
	}
	s.putWorkspace(ws)
	if err := rec.Validate(); err != nil {
		return nil, fmt.Errorf("csoutlier: internal recovery inconsistency: %w", err)
	}
	return &AggregateReport{rec: rec, keys: s.dict.Key}, nil
}

// Mode returns the recovered concentration value b.
func (r *AggregateReport) Mode() float64 { return r.rec.Mode }

// Sum returns the recovered Σx over all keys.
func (r *AggregateReport) Sum() float64 { return queries.Sum(r.rec) }

// Mean returns the recovered average value per key.
func (r *AggregateReport) Mean() float64 { return queries.Mean(r.rec) }

// Percentile returns the recovered q-quantile, q ∈ [0, 1]
// (nearest-rank). Central quantiles equal the mode on concentrated
// data; extreme quantiles reach into the recovered outliers.
func (r *AggregateReport) Percentile(q float64) (float64, error) {
	return queries.Percentile(r.rec, q)
}

// Range returns recovered max − min.
func (r *AggregateReport) Range() float64 { return queries.Range(r.rec) }

// TopK returns the k keys with the largest recovered values. Entries
// drawn from the mode block (keys indistinguishable at the mode) have
// Key == "" — the sketch cannot name which of the N−s mode keys ranks
// there, and any of them does.
func (r *AggregateReport) TopK(k int) []Outlier {
	return r.convert(queries.TopK(r.rec, k))
}

// BottomK returns the k keys with the smallest recovered values,
// symmetric to TopK.
func (r *AggregateReport) BottomK(k int) []Outlier {
	return r.convert(queries.BottomK(r.rec, k))
}

func (r *AggregateReport) convert(es []queries.Entry) []Outlier {
	out := make([]Outlier, len(es))
	for i, e := range es {
		o := Outlier{Value: e.Value}
		if e.Index >= 0 {
			o.Key = r.keys(e.Index)
		}
		out[i] = o
	}
	return out
}

// OutlierCount returns the number of recovered off-mode keys.
func (r *AggregateReport) OutlierCount() int { return len(r.rec.Support) }
