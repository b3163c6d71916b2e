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
	"fmt"
	"log"

	"csoutlier/internal/baseline"
	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/recovery"
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

	fmt.Println("=== non-negative data: everyone agrees ===")
	ta, err := baseline.TA(slices, k)
	if err != nil {
		log.Fatal(err)
	}
	tput, err := baseline.TPUT(slices, k)
	if err != nil {
		log.Fatal(err)
	}
	cs := csTopK(slices, k)
	fmt.Printf("TA:    %v   (%d bytes, depth %d)\n", keysOf(ta.TopK), ta.Stats.Bytes, ta.RoundsOfDepth)
	fmt.Printf("TPUT:  %v   (%d bytes, 3 rounds)\n", keysOf(tput.TopK), tput.Stats.Bytes)
	fmt.Printf("CS:    %v   (%d bytes, 1 round)\n", keysOf(cs.kvs), cs.bytes)

	// Now make the data signed: one node logs negative (Quick-Back)
	// scores. The aggregate is unchanged in spirit — some keys are now
	// reached by cancelling contributions — but TA/TPUT's premise dies.
	fmt.Println("\n=== signed data: partial sums no longer lower-bound totals ===")
	signed := workload.SplitZeroSumNoise(global, nodes, 5, 77)
	if _, err := baseline.TA(signed, k); err != nil {
		fmt.Printf("TA:    refused: %v\n", err)
	}
	if _, err := baseline.TPUT(signed, k); err != nil {
		fmt.Printf("TPUT:  refused: %v\n", err)
	}
	cs2 := csTopK(signed, k)
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

// csTopK answers top-k (mode 0) through the sketch pipeline: every node
// measures its slice, the sketches add up, and BOMP recovers the
// k-outliers around the recovered mode, which the power-law data keeps
// near the density bulk, so the extreme tail surfaces first. One round
// ships one M-value sketch a node.
func csTopK(slices []linalg.Vector, k int) csResult {
	phi, err := sensing.NewDense(sensing.Params{M: 250, N: n, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	y := make(linalg.Vector, phi.Params().M)
	for _, x := range slices {
		sensing.AddSketch(y, phi.Measure(x, nil))
	}
	res, err := recovery.NewWorkspace().BOMP(phi, y, recovery.Options{MaxIterations: recovery.IterationBudget(k)})
	if err != nil {
		log.Fatal(err)
	}
	return csResult{kvs: res.Outliers(k), bytes: int64(len(slices)) * sensing.SketchBytes(phi.Params().M)}
}

func keysOf(kvs []outlier.KV) []int {
	out := make([]int, len(kvs))
	for i, kv := range kvs {
		out[i] = kv.Index
	}
	return out
}
