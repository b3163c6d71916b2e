package csoutlier

import (
	"math"
	"testing"

	"csoutlier/internal/obs"
)

// reportsEqual compares two Reports bit-exactly (floats by bit pattern).
func reportsEqual(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if math.Float64bits(got.Mode) != math.Float64bits(want.Mode) {
		t.Fatalf("%s: Mode %v != %v", label, got.Mode, want.Mode)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: Iterations %d != %d", label, got.Iterations, want.Iterations)
	}
	if math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Fatalf("%s: Residual %v != %v", label, got.Residual, want.Residual)
	}
	if len(got.Outliers) != len(want.Outliers) {
		t.Fatalf("%s: %d outliers, want %d", label, len(got.Outliers), len(want.Outliers))
	}
	for i := range want.Outliers {
		if got.Outliers[i].Key != want.Outliers[i].Key ||
			math.Float64bits(got.Outliers[i].Value) != math.Float64bits(want.Outliers[i].Value) {
			t.Fatalf("%s: outlier %d = %+v, want %+v", label, i, got.Outliers[i], want.Outliers[i])
		}
	}
	if len(got.Selection) != len(want.Selection) {
		t.Fatalf("%s: Selection %v != %v", label, got.Selection, want.Selection)
	}
	for i := range want.Selection {
		if got.Selection[i] != want.Selection[i] {
			t.Fatalf("%s: Selection %v != %v", label, got.Selection, want.Selection)
		}
	}
}

// TestDetectBatchMatchesDetect pins the serving-path contract: batched,
// warm-started detection returns bit-identical reports to independent
// cold Detect calls, for every ensemble, across generations of a
// standing query whose data drifts between sketches.
func TestDetectBatchMatchesDetect(t *testing.T) {
	keys := testKeys(400)
	for _, ens := range []struct {
		name string
		cfg  Config
	}{
		{"Gaussian", Config{M: 120, Seed: 7}},
		{"CountSketch", Config{M: 120, Seed: 7, Ensemble: CountSketch}},
	} {
		t.Run(ens.name, func(t *testing.T) {
			s, err := NewSketcher(keys, ens.cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			s.Instrument(reg)

			outliers := map[int]float64{11: 900, 57: -700, 200: 1200, 399: 450}
			var warms [3][]int
			for gen := 0; gen < 4; gen++ {
				queries := make([]BatchQuery, 3)
				colds := make([]*Report, 3)
				for q := 0; q < 3; q++ {
					pairs := biasedPairs(keys, 1500+50*float64(q), outliers)
					sk, err := s.SketchPairs(pairs)
					if err != nil {
						t.Fatal(err)
					}
					cold, err := s.Detect(sk, 4+q)
					if err != nil {
						t.Fatal(err)
					}
					colds[q] = cold
					queries[q] = BatchQuery{Global: sk, K: 4 + q, Warm: warms[q]}
				}
				reports, err := s.DetectBatch(queries)
				if err != nil {
					t.Fatal(err)
				}
				for q := range reports {
					reportsEqual(t, ens.name, reports[q], colds[q])
					warms[q] = reports[q].Selection
				}
				// Drift the data so later generations test stale-ish hints.
				outliers[11] += 65
				outliers[57] -= 40
			}

			// The batch metrics must reflect the work: 4 generations × 3
			// queries batched, warm hints from generation 1 on. The registry
			// dedups by name, so re-fetching returns the live counters.
			counter := func(name string) int64 { return reg.Counter(name, "").Value() }
			if got := counter("recovery_batches_total"); got != 4 {
				t.Fatalf("recovery_batches_total = %d, want 4", got)
			}
			if got := counter("recovery_batch_queries_total"); got != 12 {
				t.Fatalf("recovery_batch_queries_total = %d, want 12", got)
			}
			if got := counter("recovery_batch_warm_total"); got != 9 {
				t.Fatalf("recovery_batch_warm_total = %d, want 9", got)
			}
			// Both paths count their work: every query correlates the N
			// dictionary columns once for c₀ and once more per Gram miss —
			// 12 Detects and 12 batched queries here. The data drifts without
			// changing its support, so the cache answers most lookups.
			hits, misses := counter("recovery_gram_hits_total"), counter("recovery_gram_misses_total")
			if want := int64(s.N()) * (24 + misses); counter("recovery_correlate_columns_total") != want {
				t.Fatalf("recovery_correlate_columns_total = %d, want N·(24 + %d misses) = %d",
					counter("recovery_correlate_columns_total"), misses, want)
			}
			if misses == 0 || hits <= misses {
				t.Fatalf("gram hits %d, misses %d: want some misses and mostly hits", hits, misses)
			}
		})
	}
}

// TestDetectQueryWarm checks one warm BatchQuery against a cold Detect,
// and DetectBatch's validation.
func TestDetectQueryWarm(t *testing.T) {
	keys := testKeys(200)
	s, err := NewSketcher(keys, Config{M: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pairs := biasedPairs(keys, -400, map[int]float64{5: 800, 150: -600})
	sk, err := s.SketchPairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Detect(sk, 2)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.DetectBatch([]BatchQuery{{Global: sk, K: 2, Warm: cold.Selection}})
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "warm", warm[0], cold)

	if _, err := s.DetectBatch([]BatchQuery{{Global: sk, K: 0}}); err == nil {
		t.Fatal("k=0 accepted")
	}
	bad := sk
	bad.seed++
	if _, err := s.DetectBatch([]BatchQuery{{Global: bad, K: 2}}); err == nil {
		t.Fatal("incompatible sketch accepted")
	}
	if reps, err := s.DetectBatch(nil); err != nil || reps != nil {
		t.Fatalf("empty batch: %v %v", reps, err)
	}
}
