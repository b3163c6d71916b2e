package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tinyOptions(t *testing.T, seed uint64, cycles int64, trace bool) options {
	return options{seed: seed, budget: budget{cycles: cycles}, trace: trace, tiny: true, setups: 2, outDir: t.TempDir()}
}

// Every workload at tiny scale, traced: nothing fails its oracle, every
// end-to-end metric is reported and non-zero, every per-layer metric is
// reported.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			opt := tinyOptions(t, 3, 8, true)
			res, err := runWorkload(context.Background(), name, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("ops_attempted %d, ops_failed %d: %v", res.Attempted, res.Failed, res.Fails)
			}
			for _, ms := range endToEnd {
				if v, ok := res.EndToEnd[ms.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (reported: %v); must be reported and never 0", ms.Name, v, ok)
				}
			}
			for _, ms := range layerSpecs {
				if _, ok := res.Layers[ms.Name]; !ok {
					t.Errorf("per-layer metric %s not reported", ms.Name)
				}
			}
			for _, ms := range timingSpecs {
				if v := res.Timings[ms.Name]; res.Layers[ms.Name] != v || (v <= 0 && (ms.Name != "bench.pointq_keys_per_s" || name == wlStandingTier)) {
					t.Errorf("timing %s = %v, per-layer %v; must be measured and reported with the per-layer metrics", ms.Name, v, res.Layers[ms.Name])
				}
			}
			if len(res.Layers) != len(layerSpecs) {
				t.Errorf("%d per-layer metrics reported, %d declared", len(res.Layers), len(layerSpecs))
			}
			if name == wlOneshotPull {
				for metric, v := range res.Layers {
					if (strings.HasPrefix(metric, "stream.") || strings.HasPrefix(metric, "tier.")) && v != 0 {
						t.Errorf("%s = %v on the pull workload: no streaming code may run there", metric, v)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(opt.outDir, "trace-"+name+".json")); err != nil {
				t.Errorf("spans not flushed: %v", err)
			}
		})
	}
}

// Same seed: identical generated inputs and identical exact counts.
// Different seed: different inputs.
func TestDeterminism(t *testing.T) {
	exact := []string{"topk_recall", "wire_bytes_per_obs"}
	exactLayers := []string{"stream.frames", "recovery.iterations", "csoutlier.sketch_bytes", "recovery.large_k_recall"}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			a, err := runWorkload(ctx, name, tinyOptions(t, 5, 6, true))
			if err != nil {
				t.Fatal(err)
			}
			b, err := runWorkload(ctx, name, tinyOptions(t, 5, 6, true))
			if err != nil {
				t.Fatal(err)
			}
			if a.Fingerprint != b.Fingerprint {
				t.Errorf("same seed, different inputs: %x vs %x", a.Fingerprint, b.Fingerprint)
			}
			if a.Attempted != b.Attempted || a.Failed != b.Failed {
				t.Errorf("same seed, ops %d/%d vs %d/%d", a.Attempted, a.Failed, b.Attempted, b.Failed)
			}
			for _, m := range exact {
				if a.EndToEnd[m] != b.EndToEnd[m] {
					t.Errorf("same seed, %s %v vs %v", m, a.EndToEnd[m], b.EndToEnd[m])
				}
			}
			for _, m := range exactLayers {
				if a.Layers[m] != b.Layers[m] {
					t.Errorf("same seed, %s %v vs %v", m, a.Layers[m], b.Layers[m])
				}
			}
			w, err := newWorkload(name, 6, true)
			if err != nil {
				t.Fatal(err)
			}
			if w.fingerprint() == a.Fingerprint {
				t.Error("different seed, same inputs")
			}
		})
	}
}

// BENCHMARK.json at the repository root is generated from the tables in
// spec.go and layers.go (go run . -spec); it must not drift from them.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("../BENCHMARK.json differs from the tables; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}
	if len(layerSpecs) > 128 || len(endToEnd) > 16 || len(workloadSpecs) > 8 {
		t.Error("more metrics or workloads than the benchmark contract allows")
	}
	seen := map[string]bool{}
	for _, ms := range append(append([]metricSpec(nil), endToEnd...), layerSpecs...) {
		if seen[ms.Name] {
			t.Errorf("metric name %s used twice", ms.Name)
		}
		seen[ms.Name] = true
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
