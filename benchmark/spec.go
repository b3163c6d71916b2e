package main

import (
	"encoding/json"
	"sort"
)

// runSeconds is how long the driver lets one run measure.
const runSeconds = 20

// metricSpec names one metric of the benchmark.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// workloadSpec names one workload and records why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wlIngestFlat   = "ingest_flat"
	wlQueryCold    = "query_cold"
	wlStandingTier = "standing_tier"
	wlOneshotPull  = "oneshot_pull"
)

var workloadSpecs = []workloadSpec{
	{wlIngestFlat, "push path does the work, recovery almost none: 2 leaves flush 16-observation frames stop-and-wait at one Gaussian root"},
	{wlQueryCold, "recovery does the work, push path under 1%: every op stales the cache with one pre-encoded delta, then asks a cold k=15 span"},
	{wlStandingTier, "same layers used differently: count-sketch leaf-relay-root per shard, warm batched standing queries, point reads, few large frames"},
	{wlOneshotPull, "the paper's single round: 8 pull nodes measure full vectors, one DetectCluster per op, no streaming code at all"},
}

// endToEnd is what the driver gates: the counts a user of the deployed
// system pays for (the paper's communication cost, the answer's quality,
// memory churn) and the set-up time the contract asks for. Every workload
// reports every metric. Bounds are the share of the parent's median by
// which a metric may worsen before a change counts as a regression.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"topk_recall", "ratio", "higher", 0.02},
	{"wire_bytes_per_obs", "B/obs", "lower", 0.01},
	{"alloc_bytes_per_obs", "B/obs", "lower", 0.25},
}

// timingSpecs are ISSUE 11's end-to-end timings. On the reference box
// none of them holds a bound the contract allows (raw ten-seed quartile
// spreads of 20-35%, README "Noise"), so, as the issue says, they are
// demoted: measured on the untraced pass, printed by every run, reported
// to the driver with the per-layer metrics, and not gated. Compare them
// across commits with alternating paired runs.
var timingSpecs = []metricSpec{
	{Name: "bench.ingest_obs_per_s", Unit: "obs/s", Better: "higher"},
	{Name: "bench.freshness_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.freshness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.span_query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.span_query_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.pointq_keys_per_s", Unit: "keys/s", Better: "higher"},
	{Name: "bench.cpu_us_per_obs", Unit: "us/obs", Better: "lower"},
}

// benchmarkJSON renders BENCHMARK.json from the tables above: the file
// at the repository root is generated (go run . -spec), never edited.
func benchmarkJSON() ([]byte, error) {
	layers := append([]metricSpec(nil), layerSpecs...) // no bound: omitted
	sort.Slice(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })
	out, err := json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   layers,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
