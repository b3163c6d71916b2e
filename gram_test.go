package csoutlier

import (
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"csoutlier/internal/obs"
	"csoutlier/internal/recovery"
)

// driftingSketches builds count sketches of the same biased data with
// group g's 4 outliers planted at keys of its own, so queries of
// different groups select disjoint Gram columns.
func driftingSketches(t *testing.T, s *Sketcher, count int) []Sketch {
	t.Helper()
	keys := s.Keys()
	sks := make([]Sketch, count)
	for g := range sks {
		outliers := make(map[int]float64, 4)
		for o := 0; o < 4; o++ {
			outliers[(37*g+11*o+5)%len(keys)] = float64(600+150*o) * float64(1-2*(o%2))
		}
		sk, err := s.SketchPairs(biasedPairs(keys, 1500+10*float64(g), outliers))
		if err != nil {
			t.Fatal(err)
		}
		sks[g] = sk
	}
	return sks
}

// TestDetectSteadyStateAllocs pins the serving path's allocation
// contract on a warmed Sketcher: a Detect allocates its Report and
// nothing else, an 8-query DetectBatch its 8 Reports and the three
// per-call slices — whether the Gram cache answers every lookup or sits
// at capacity recycling a slot on every miss. (The geometry keeps M·N
// under the kernels' fan-out threshold: goroutines allocate.)
func TestDetectSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops workspaces under -race; alloc pinning runs without it")
	}
	s, err := NewSketcher(testKeys(400), Config{M: 48, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)
	misses := reg.Counter("recovery_gram_misses_total", "")
	const k = 4
	sks := driftingSketches(t, s, 24) // ≈ 13 columns each: far more than the cache's 48
	queries := make([]BatchQuery, 8)
	for q := range queries {
		queries[q] = BatchQuery{Global: sks[q], K: k}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the workspace pool
	reportAllocs := func(sk Sketch) float64 {
		ws := s.workspace()
		defer s.putWorkspace(ws)
		res, err := ws.BOMP(s.matrix, sk.Y, recovery.Options{MaxIterations: s.iterations(k)})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { s.reportFromResult(res, k) })
	}

	// The cache answers everything: one query, over and over.
	if _, err := s.Detect(sks[0], k); err != nil {
		t.Fatal(err)
	}
	before := misses.Value()
	got := testing.AllocsPerRun(50, func() {
		if _, err := s.Detect(sks[0], k); err != nil {
			t.Fatal(err)
		}
	})
	if want := reportAllocs(sks[0]); got != want || misses.Value() != before {
		t.Fatalf("warm Detect: %.1f allocs/op (its Report: %.1f), %d Gram misses", got, want, misses.Value()-before)
	}

	// The cache at capacity: 24 queries with columns of their own take
	// turns, so every call misses and every miss recycles a slot.
	for _, sk := range sks {
		if _, err := s.Detect(sk, k); err != nil {
			t.Fatal(err)
		}
	}
	before = misses.Value()
	turn, want := 0, 0.0
	for _, sk := range sks {
		want += reportAllocs(sk) / float64(len(sks))
	}
	got = testing.AllocsPerRun(len(sks)*2-1, func() { // the warm-up run makes it two whole rounds
		if _, err := s.Detect(sks[turn%len(sks)], k); err != nil {
			t.Fatal(err)
		}
		turn++
	})
	if missed := misses.Value() - before; got != want || missed < int64(len(sks)) {
		t.Fatalf("Detect on a full cache: %.2f allocs/op (its Reports: %.2f), %d Gram misses in %d calls", got, want, missed, turn)
	}

	// The batch: 8 Reports, and the items, workspaces and reports slices.
	for i := 0; i < 2; i++ {
		if _, err := s.DetectBatch(queries); err != nil {
			t.Fatal(err)
		}
	}
	want = 3
	for _, q := range queries {
		want += reportAllocs(q.Global)
	}
	got = testing.AllocsPerRun(20, func() {
		if _, err := s.DetectBatch(queries); err != nil {
			t.Fatal(err)
		}
	})
	if got != want {
		t.Fatalf("warm 8-query DetectBatch: %.1f allocs/op, want its Reports and 3 slices = %.1f", got, want)
	}
}

// TestRecoverFullBudgetTinyM runs recovery to exhaustion (maxIters ≤ 0:
// up to M columns) on data too noisy to stop early, at an M so small
// that the Gram cache holds exactly M columns — one run pins every slot.
// The answer must be the throwaway-workspace one bit for bit, and again
// when the run starts from the columns the first left behind.
func TestRecoverFullBudgetTinyM(t *testing.T) {
	keys := testKeys(120)
	for _, cfg := range []Config{{M: 16, Seed: 5}, {M: 20, Seed: 5, Ensemble: CountSketch}} {
		s, err := NewSketcher(keys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pairs := biasedPairs(keys, 250, map[int]float64{9: 500, 77: -800})
		for i, key := range keys {
			pairs[key] += float64(i%5) - 2
		}
		sk, err := s.SketchPairs(pairs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := recovery.BOMP(s.matrix, sk.Y, recovery.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want.Iterations < cfg.M-2 {
			t.Fatalf("%v: the reference run stopped after %d of %d columns", cfg.Ensemble, want.Iterations, cfg.M)
		}
		for round := 0; round < 2; round++ {
			values, mode, err := s.Recover(sk, 0)
			if err != nil {
				t.Fatal(err)
			}
			if mode != want.Mode || len(values) != len(want.Support) {
				t.Fatalf("%v round %d: mode %v over %d keys, want %v over %d", cfg.Ensemble, round, mode, len(values), want.Mode, len(want.Support))
			}
			for _, j := range want.Support {
				if values[s.dict.Key(j)] != want.X[j] {
					t.Fatalf("%v round %d: %s = %v, want %v", cfg.Ensemble, round, s.dict.Key(j), values[s.dict.Key(j)], want.X[j])
				}
			}
		}
	}
}

// TestDetectConcurrentSharedCache hammers one Sketcher's Detect,
// DetectQuery and DetectBatch from several goroutines (run with -race):
// they share one Gram cache, and every report must equal the one a
// serial Detect on a Sketcher of its own gave.
func TestDetectConcurrentSharedCache(t *testing.T) {
	for _, cfg := range []Config{{M: 64, Seed: 11}, {M: 96, Seed: 11, Ensemble: CountSketch}} {
		t.Run(fmt.Sprint(cfg.Ensemble), func(t *testing.T) {
			keys := testKeys(300)
			serial, err := NewSketcher(keys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const k = 4
			sks := driftingSketches(t, serial, 10)
			wants := make([]*Report, len(sks))
			for i, sk := range sks {
				if wants[i], err = serial.Detect(sk, k); err != nil {
					t.Fatal(err)
				}
			}
			s, err := NewSketcher(keys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// got[g] is what goroutine g was answered, index into wants beside it.
			type answer struct {
				rep  *Report
				want int
			}
			got := make([][]answer, 4)
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < 8; round++ {
						i := (3*g + round) % len(sks)
						next := (i + 1) % len(sks)
						var reps []*Report
						var err error
						switch round % 3 {
						case 0:
							reps = make([]*Report, 1)
							reps[0], err = s.Detect(sks[i], k)
						case 1:
							reps = make([]*Report, 1)
							reps[0], err = s.DetectQuery(sks[i], k, wants[i].Selection)
						default:
							reps, err = s.DetectBatch([]BatchQuery{
								{Global: sks[i], K: k, Warm: wants[next].Selection}, // a stale hint
								{Global: sks[next], K: k},
							})
						}
						if err != nil {
							t.Error(err)
							return
						}
						for j, rep := range reps {
							got[g] = append(got[g], answer{rep, (i + j) % len(sks)})
						}
					}
				}(g)
			}
			wg.Wait()
			for g := range got {
				for n, a := range got[g] {
					reportsEqual(t, fmt.Sprintf("goroutine %d answer %d", g, n), a.rep, wants[a.want])
				}
			}
		})
	}
}
