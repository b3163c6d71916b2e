// Clicklogs: the paper's motivating scenario end to end.
//
// A web-search service logs per-query click scores (Success Click = +,
// Quick-Back Click = −) in eight geo-distributed data centers. Quality
// analysts ask: across all markets and verticals, which (date, market,
// vertical, URL) segments have aggregate scores that diverge most from
// the norm? Locally, every data center's numbers are dominated by
// regional noise; only the global sum exposes the outliers.
//
// This example generates a production-like workload (internal/workload
// plants the paper's measured sparsity), answers the query with the
// public API at ~3% of the transmit-all communication cost, then
// demonstrates the two operational properties from the paper's
// introduction: incremental updates when new logs arrive, and removing
// a data center from the aggregation — both O(M) sketch arithmetic.
//
// Run: go run ./examples/clicklogs
package main

import (
	"fmt"
	"log"

	"csoutlier"
	"csoutlier/internal/workload"
)

func main() {
	cl := workload.GenerateClickLogs(workload.ClickLogConfig{
		Query:  workload.CoreSearchClicks,
		ScaleN: 0.2, // 20% of the production key space, for a quick run
		Seed:   7,
	})
	n := len(cl.Keys)
	const k = 10
	m := n / 12 // ~8% compression ratio (k=10 over s≈60 outliers needs a bit more than the paper's k=5 sweet spot)
	fmt.Printf("workload: %s query, %d keys, %d data centers, planted sparsity s=%d\n",
		cl.Config.Query, n, len(cl.Slices), cl.S)

	sk, err := csoutlier.NewSketcher(cl.Keys, csoutlier.Config{M: m, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}

	// Each data center sketches its local slice.
	perDC := make([]csoutlier.Sketch, len(cl.Slices))
	global := sk.ZeroSketch()
	for dc := range cl.Slices {
		y, err := sk.SketchPairs(cl.PairsForNode(dc))
		if err != nil {
			log.Fatal(err)
		}
		perDC[dc] = y
		if err := global.Add(y); err != nil {
			log.Fatal(err)
		}
	}
	rawBytes := 8 * n * len(cl.Slices)
	csBytes := 8 * m * len(cl.Slices)
	fmt.Printf("communication: %d bytes vs %d raw (%.1f%% — an IO reduction of %.1f%%)\n\n",
		csBytes, rawBytes, 100*float64(csBytes)/float64(rawBytes),
		100*(1-float64(csBytes)/float64(rawBytes)))

	rep, err := sk.Detect(global, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered mode %.0f (planted %.0f); top-%d outlier segments:\n", rep.Mode, cl.Mode, k)
	hits := 0
	truthSet := map[string]bool{}
	for _, kv := range cl.TrueTopOutliers(k) {
		truthSet[cl.Keys[kv.Index]] = true
	}
	for i, o := range rep.Outliers {
		mark := " "
		if truthSet[o.Key] {
			mark = "*"
			hits++
		}
		fmt.Printf("  %2d.%s %-40s score %10.1f\n", i+1, mark, o.Key, o.Value)
	}
	fmt.Printf("(%d/%d agree with the exact top-%d; * = in ground truth)\n\n", hits, k, k)

	// --- Incremental update: a burst of new Quick-Back clicks arrives
	// at data center 3 for one segment. Only the delta is re-sketched.
	burstKey := rep.Outliers[0].Key
	delta := map[string]float64{burstKey: -50000}
	dy, err := sk.SketchPairs(delta)
	if err != nil {
		log.Fatal(err)
	}
	if err := global.Add(dy); err != nil {
		log.Fatal(err)
	}
	rep2, err := sk.Detect(global, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after a -50000 click burst on %q (O(M) sketch update):\n", burstKey)
	fmt.Printf("  new #1 outlier: %s = %.1f\n\n", rep2.Outliers[0].Key, rep2.Outliers[0].Value)

	// --- Data-center removal: drop DC 7 from the analysis by
	// subtracting its standing sketch. No recomputation anywhere.
	if err := global.Sub(dy); err != nil { // first undo the burst
		log.Fatal(err)
	}
	if err := global.Sub(perDC[7]); err != nil {
		log.Fatal(err)
	}
	rep3, err := sk.Detect(global, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after removing data center 7 from the aggregation (O(M) subtract):\n")
	for i, o := range rep3.Outliers {
		fmt.Printf("  %d. %-40s score %10.1f\n", i+1, o.Key, o.Value)
	}
}
