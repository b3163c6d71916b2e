package baseline

import (
	"context"
	"math"
	"sort"
	"testing"

	"csoutlier/internal/cluster"
	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

func makeNodes(t *testing.T, global linalg.Vector, l int, noise float64, seed uint64) []*cluster.LocalNode {
	t.Helper()
	slices := workload.SplitZeroSumNoise(global, l, noise, seed)
	nodes := make([]*cluster.LocalNode, l)
	for i, s := range slices {
		nodes[i] = cluster.NewLocalNode("n"+string(rune('0'+i)), s)
	}
	return nodes
}

func TestAllExact(t *testing.T) {
	const n, s, k = 400, 12, 5
	global, _ := workload.MajorityDominated(n, s, 1800, 200, 900, 1)
	nodes := makeNodes(t, global, 4, 400, 2)
	res, err := All(context.Background(), nodes, k)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Global.Equal(global, 1e-8) {
		t.Fatal("All did not reconstruct the global vector")
	}
	if !res.HasMode || res.Mode != 1800 {
		t.Fatalf("mode = %v %v", res.Mode, res.HasMode)
	}
	truth := outlier.TopK(global, 1800, k)
	if ek := outlier.ErrorOnKey(truth, res.Outliers); ek != 0 {
		t.Fatalf("ALL must be exact, EK = %v", ek)
	}
	if res.Stats.Bytes != AllCostBytes(4, n) {
		t.Fatalf("Bytes = %d, want %d", res.Stats.Bytes, AllCostBytes(4, n))
	}
	if res.Stats.Rounds != 1 {
		t.Fatalf("Rounds = %d", res.Stats.Rounds)
	}
}

func TestAllNoNodes(t *testing.T) {
	if _, err := All(context.Background(), nil, 3); err == nil {
		t.Fatal("no nodes accepted")
	}
}

func TestKDeltaRunsAndAccounts(t *testing.T) {
	const n, s, k = 500, 10, 5
	global, _ := workload.MajorityDominated(n, s, 1800, 300, 900, 3)
	nodes := makeNodes(t, global, 5, 300, 4)
	cfg := KDeltaConfig{K: k, Delta: 40, G: 25, N: n, Seed: 7}
	res, err := KDelta(context.Background(), nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 3 {
		t.Fatalf("Rounds = %d, want 3", res.Stats.Rounds)
	}
	if len(res.Outliers) == 0 || len(res.Outliers) > k {
		t.Fatalf("returned %d outliers", len(res.Outliers))
	}
	// Round-1 cost: L·G tuples; round 2: L values; round 3 ≤ L·(K+Δ−G).
	minBytes := int64(5*25)*cluster.BytesPerTuple + int64(5)*cluster.BytesPerValue
	if res.Stats.Bytes < minBytes {
		t.Fatalf("Bytes = %d < minimum %d", res.Stats.Bytes, minBytes)
	}
	// The sampled mode should land near the true mode: most sampled keys
	// carry the majority value.
	if math.Abs(res.Mode-1800) > 400 {
		t.Fatalf("sampled mode %v too far from 1800", res.Mode)
	}
}

func TestKDeltaWorseThanExactOnSkewedData(t *testing.T) {
	// With zero-sum noise, local outliers differ from global ones; K+δ
	// must miss keys that BOMP-style global recovery would catch. We just
	// assert K+δ is not exact here (the paper's Figures 7–8 show it
	// plateauing at high error).
	const n, s, k = 600, 15, 10
	global, _ := workload.MajorityDominated(n, s, 1800, 250, 600, 5)
	nodes := makeNodes(t, global, 6, 900, 6)
	res, err := KDelta(context.Background(), nodes, KDeltaConfig{K: k, Delta: 20, G: 10, N: n, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	truth := outlier.TopK(global, 1800, k)
	if ek := outlier.ErrorOnKey(truth, res.Outliers); ek == 0 {
		t.Skip("K+δ got lucky on this seed; skew not strong enough")
	}
}

func TestKDeltaValidation(t *testing.T) {
	nodes := makeNodes(t, make(linalg.Vector, 10), 2, 1, 9)
	if _, err := KDelta(context.Background(), nodes, KDeltaConfig{K: 1, G: 0, N: 10}); err == nil {
		t.Fatal("G=0 accepted")
	}
	if _, err := KDelta(context.Background(), nodes, KDeltaConfig{K: 1, G: 11, N: 10}); err == nil {
		t.Fatal("G>N accepted")
	}
	if _, err := KDelta(context.Background(), nil, KDeltaConfig{K: 1, G: 1, N: 10}); err == nil {
		t.Fatal("no nodes accepted")
	}
}

func TestKDeltaForBudget(t *testing.T) {
	cfg := KDeltaForBudget(12000, 5, 10, 1000, 3)
	if cfg.G < 1 || cfg.G > 1000 {
		t.Fatalf("G = %d", cfg.G)
	}
	// Round-1 cost must be ≤ half the budget.
	r1 := int64(5) * int64(cfg.G) * cluster.BytesPerTuple
	if r1 > 6000 {
		t.Fatalf("round-1 cost %d exceeds half budget", r1)
	}
	if cfg.K != 10 || cfg.N != 1000 {
		t.Fatalf("cfg = %+v", cfg)
	}
	// Tiny budgets degrade gracefully.
	tiny := KDeltaForBudget(1, 5, 10, 1000, 3)
	if tiny.G < 1 {
		t.Fatalf("tiny budget G = %d", tiny.G)
	}
}

// nonNegativeWorkload builds a global vector of non-negative values with
// clear top-k structure, split across nodes WITHOUT negative shares so
// TA/TPUT preconditions hold.
func nonNegativeWorkload(t *testing.T, n, l int, seed uint64) ([]*cluster.LocalNode, linalg.Vector) {
	t.Helper()
	r := xrand.New(seed)
	global := make(linalg.Vector, n)
	for i := range global {
		global[i] = r.Float64() * 10
	}
	for i := 0; i < 8; i++ {
		global[r.Intn(n)] = 1000 + 100*r.Float64()
	}
	slices := make([]linalg.Vector, l)
	for j := range slices {
		slices[j] = make(linalg.Vector, n)
	}
	for i, v := range global {
		// Random non-negative split.
		weights := make([]float64, l)
		sum := 0.0
		for j := range weights {
			weights[j] = r.Float64()
			sum += weights[j]
		}
		for j := range weights {
			slices[j][i] = v * weights[j] / sum
		}
	}
	nodes := make([]*cluster.LocalNode, l)
	for j, s := range slices {
		nodes[j] = cluster.NewLocalNode("n"+string(rune('0'+j)), s)
	}
	return nodes, global
}

func trueTopK(global linalg.Vector, k int) []outlier.KV {
	items := make([]outlier.KV, len(global))
	for i, v := range global {
		items[i] = outlier.KV{Index: i, Value: v}
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].Value != items[b].Value {
			return items[a].Value > items[b].Value
		}
		return items[a].Index < items[b].Index
	})
	return items[:k]
}

func TestTAExactTopK(t *testing.T) {
	nodes, global := nonNegativeWorkload(t, 300, 4, 10)
	const k = 5
	res, err := TA(context.Background(), nodes, k)
	if err != nil {
		t.Fatal(err)
	}
	want := trueTopK(global, k)
	if ek := outlier.ErrorOnKey(want, res.TopK); ek != 0 {
		t.Fatalf("TA EK = %v; got %v want %v", ek, res.TopK, want)
	}
	// Sums must be exact.
	for i, kv := range res.TopK {
		if math.Abs(kv.Value-want[i].Value) > 1e-6 {
			t.Fatalf("TA value %d: %v, want %v", i, kv.Value, want[i].Value)
		}
	}
	if res.RoundsOfDepth >= 300 {
		t.Fatalf("TA did not stop early: depth %d", res.RoundsOfDepth)
	}
	if res.Stats.Bytes <= 0 || res.SortedAccess == 0 || res.RandomAccess == 0 {
		t.Fatalf("TA accounting: %+v", res)
	}
}

func TestTPUTExactTopK(t *testing.T) {
	nodes, global := nonNegativeWorkload(t, 300, 4, 11)
	const k = 5
	res, err := TPUT(context.Background(), nodes, k)
	if err != nil {
		t.Fatal(err)
	}
	want := trueTopK(global, k)
	if ek := outlier.ErrorOnKey(want, res.TopK); ek != 0 {
		t.Fatalf("TPUT EK = %v; got %v want %v", ek, res.TopK, want)
	}
	if res.Stats.Rounds != 3 {
		t.Fatalf("TPUT rounds = %d", res.Stats.Rounds)
	}
	if res.Candidates < k {
		t.Fatalf("TPUT pruned below k: %d", res.Candidates)
	}
}

func TestTATPUTRejectNegativeValues(t *testing.T) {
	// The paper's §7.1 point: signed partial values break the partial-sum
	// lower-bound assumption. Our implementations refuse rather than
	// silently answer wrong.
	global, _ := workload.MajorityDominated(100, 5, 1800, 100, 500, 12)
	nodes := makeNodes(t, global, 3, 900, 13) // zero-sum noise → negatives
	if _, err := TA(context.Background(), nodes, 3); err != ErrNegativeValues {
		t.Fatalf("TA err = %v, want ErrNegativeValues", err)
	}
	if _, err := TPUT(context.Background(), nodes, 3); err != ErrNegativeValues {
		t.Fatalf("TPUT err = %v, want ErrNegativeValues", err)
	}
}

func TestTAKValidation(t *testing.T) {
	nodes, _ := nonNegativeWorkload(t, 50, 2, 14)
	if _, err := TA(context.Background(), nodes, 0); err == nil {
		t.Fatal("k=0 accepted by TA")
	}
	if _, err := TPUT(context.Background(), nodes, 0); err == nil {
		t.Fatal("k=0 accepted by TPUT")
	}
}

func TestTPUTCheaperThanTAOnSkew(t *testing.T) {
	// TPUT's fixed three rounds generally cost fewer messages than TA's
	// depth-dependent probing on the same data — the scalability point
	// from §7.1. (Bytes may vary; assert rounds.)
	nodes, _ := nonNegativeWorkload(t, 400, 5, 15)
	ta, err := TA(context.Background(), nodes, 10)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := TPUT(context.Background(), nodes, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Stats.Rounds != 3 {
		t.Fatalf("TPUT rounds = %d", tp.Stats.Rounds)
	}
	if ta.Stats.Rounds < 1 {
		t.Fatalf("TA rounds = %d", ta.Stats.Rounds)
	}
}
