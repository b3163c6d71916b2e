// Topk: distributed top-k as a special case of outlier detection.
//
// The paper's §6.2 observes that when the data's mode is 0, the
// k-outlier machinery answers classic distributed top-k queries — and
// unlike the Threshold Algorithm (TA) or TPUT, it keeps working when
// partial values can be negative, where those algorithms' partial-sum
// lower bound breaks (§7.1).
//
// This example runs all three on non-negative data (everyone agrees),
// then flips one node's slice to contain negative shares and shows that
// TA/TPUT bail out while the CS pipeline still answers correctly.
//
// Run: go run ./examples/topk
package main

import (
	"context"
	"fmt"
	"log"

	"csoutlier/internal/baseline"
	"csoutlier/internal/cluster"
	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

const (
	n     = 2000
	k     = 5
	nodes = 4
)

func main() {
	// Non-negative workload: a heavy-tailed aggregate, split across
	// nodes with non-negative shares.
	r := xrand.New(3)
	global := workload.PowerLaw(n, 1.2, 42)
	slices := make([]linalg.Vector, nodes)
	for j := range slices {
		slices[j] = make(linalg.Vector, n)
	}
	for i, v := range global {
		w := make([]float64, nodes)
		sum := 0.0
		for j := range w {
			w[j] = r.Float64()
			sum += w[j]
		}
		for j := range w {
			slices[j][i] = v * w[j] / sum
		}
	}
	api := wrap(slices)

	fmt.Println("=== non-negative data: everyone agrees ===")
	ctx := context.Background()
	ta, err := baseline.TA(ctx, api, k)
	if err != nil {
		log.Fatal(err)
	}
	tput, err := baseline.TPUT(ctx, api, k)
	if err != nil {
		log.Fatal(err)
	}
	cs := csTopK(api, k)
	fmt.Printf("TA:    %v   (%d bytes, depth %d)\n", keysOf(ta.TopK), ta.Stats.Bytes, ta.RoundsOfDepth)
	fmt.Printf("TPUT:  %v   (%d bytes, 3 rounds)\n", keysOf(tput.TopK), tput.Stats.Bytes)
	fmt.Printf("CS:    %v   (%d bytes, 1 round)\n", keysOf(cs.kvs), cs.bytes)

	// Now make the data signed: one node logs negative (Quick-Back)
	// scores. The aggregate is unchanged in spirit — some keys are now
	// reached by cancelling contributions — but TA/TPUT's premise dies.
	fmt.Println("\n=== signed data: partial sums no longer lower-bound totals ===")
	signed := workload.SplitZeroSumNoise(global, nodes, 5, 77)
	apiSigned := wrap(signed)
	if _, err := baseline.TA(ctx, apiSigned, k); err != nil {
		fmt.Printf("TA:    refused: %v\n", err)
	}
	if _, err := baseline.TPUT(ctx, apiSigned, k); err != nil {
		fmt.Printf("TPUT:  refused: %v\n", err)
	}
	cs2 := csTopK(apiSigned, k)
	fmt.Printf("CS:    %v   (%d bytes, 1 round)\n", keysOf(cs2.kvs), cs2.bytes)

	truth := outlier.TopK(global, 0, k)
	fmt.Printf("\nexact top-%d: %v\n", k, keysOf(truth))
	fmt.Printf("CS error on key: non-negative %.2f, signed %.2f\n",
		outlier.ErrorOnKey(truth, cs.kvs), outlier.ErrorOnKey(truth, cs2.kvs))
}

type csResult struct {
	kvs   []outlier.KV
	bytes int64
}

// csTopK answers top-k (mode 0) through the sketch pipeline: k-outliers
// around the recovered mode, which the power-law data keeps near the
// density bulk, so the extreme tail surfaces first.
func csTopK(api []*cluster.LocalNode, k int) csResult {
	p := sensing.Params{M: 250, N: n, Seed: 9}
	res, err := cluster.Detect(api, sensing.GaussianSpec(p), k)
	if err != nil {
		log.Fatal(err)
	}
	return csResult{kvs: res.Outliers, bytes: res.Stats.Bytes}
}

func wrap(slices []linalg.Vector) []*cluster.LocalNode {
	api := make([]*cluster.LocalNode, len(slices))
	for i, s := range slices {
		api[i] = cluster.NewLocalNode(fmt.Sprintf("n%d", i), s)
	}
	return api
}

func keysOf(kvs []outlier.KV) []int {
	out := make([]int, len(kvs))
	for i, kv := range kvs {
		out[i] = kv.Index
	}
	return out
}
