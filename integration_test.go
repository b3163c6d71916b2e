package csoutlier

// Cross-module integration tests: the same production-like workload
// driven through every execution surface the repository offers — the
// public API, the TCP cluster protocol, and the MapReduce engine — must
// agree with each other and with the exact transmit-ALL baseline.

import (
	"context"
	"fmt"
	"math"
	"net"
	"testing"

	"csoutlier/internal/baseline"
	"csoutlier/internal/cluster"
	"csoutlier/internal/keydict"
	"csoutlier/internal/mapreduce"
	"csoutlier/internal/outlier"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

func TestIntegrationAllSurfacesAgree(t *testing.T) {
	const (
		k    = 5
		seed = 4242
	)
	cl := workload.GenerateClickLogs(workload.ClickLogConfig{
		Query:  workload.CoreSearchClicks,
		ScaleN: 0.08,
		Seed:   seed,
	})
	dcs := len(cl.Slices)
	n := len(cl.Keys)
	m := n / 6
	truth := cl.TrueTopOutliers(k)
	truthKeys := make([]string, k)
	for i, kv := range truth {
		truthKeys[i] = cl.Keys[kv.Index]
	}

	// --- Surface 1: public API. ---
	sk, err := NewSketcher(cl.Keys, Config{M: m, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	global := sk.ZeroSketch()
	for dc := 0; dc < dcs; dc++ {
		y, err := sk.SketchPairs(cl.PairsForNode(dc))
		if err != nil {
			t.Fatal(err)
		}
		if err := global.Add(y); err != nil {
			t.Fatal(err)
		}
	}
	apiRep, err := sk.Detect(global, k)
	if err != nil {
		t.Fatal(err)
	}

	// --- Surface 2: TCP cluster protocol, one DetectCluster round. ---
	addrs := make([]string, dcs)
	for dc := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go cluster.Serve(ln, cluster.NewLocalNode(fmt.Sprintf("dc%d", dc), cl.Slices[dc]))
		addrs[dc] = ln.Addr().String()
	}
	tcpRep, err := sk.DetectCluster(context.Background(), addrs, k, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// --- Surface 3: MapReduce engine. ---
	p := sensing.Params{M: m, N: n, Seed: seed}
	dict := keydict.FromSorted(cl.Keys)
	r := xrand.New(seed)
	var splits []mapreduce.Split
	for dc := 0; dc < dcs; dc++ {
		var recs []mapreduce.Record
		for i, key := range cl.Keys {
			if v := cl.Slices[dc][i]; v != 0 {
				recs = append(recs, mapreduce.Record{Key: key, Value: v})
			}
		}
		shuffled := make([]mapreduce.Record, len(recs))
		for i, j := range r.Perm(len(recs)) {
			shuffled[i] = recs[j]
		}
		recs = shuffled
		half := len(recs) / 2
		splits = append(splits,
			mapreduce.Split{Records: recs[:half], Bytes: int64(half) * 32},
			mapreduce.Split{Records: recs[half:], Bytes: int64(len(recs)-half) * 32},
		)
	}
	out, _, err := mapreduce.Run(&mapreduce.SketchJob{Dict: dict, Params: p, K: k}, splits)
	if err != nil {
		t.Fatal(err)
	}
	mrOutliers, mrMode, err := mapreduce.OutliersFromOutput(out, k)
	if err != nil {
		t.Fatal(err)
	}

	// --- Exact baseline. ---
	exact, err := baseline.All(cl.Slices, k)
	if err != nil {
		t.Fatal(err)
	}

	// All surfaces consumed the same global data through the same
	// (seed, M, N): sketches are identical, so answers must be identical.
	if math.Abs(apiRep.Mode-tcpRep.Mode) > 1e-9 || math.Abs(apiRep.Mode-mrMode) > 1e-9 {
		t.Fatalf("modes disagree: api %v, tcp %v, mr %v", apiRep.Mode, tcpRep.Mode, mrMode)
	}
	for i := range apiRep.Outliers {
		if apiRep.Outliers[i].Key != tcpRep.Outliers[i].Key {
			t.Fatalf("api/tcp outlier %d differ: %q vs %q",
				i, apiRep.Outliers[i].Key, tcpRep.Outliers[i].Key)
		}
		if apiRep.Outliers[i].Key != cl.Keys[mrOutliers[i].Index] {
			t.Fatalf("api/mr outlier %d differ", i)
		}
	}

	// And they must agree with the exact baseline on this workload.
	est := make([]outlier.KV, len(apiRep.Outliers))
	for i, o := range apiRep.Outliers {
		idx, _ := dict.Index(o.Key)
		est[i] = outlier.KV{Index: idx, Value: o.Value}
	}
	if ek := outlier.ErrorOnKey(exact.Outliers, est); ek > 0.21 {
		t.Fatalf("EK vs exact = %v (exact %v, got %v)", ek, exact.Outliers, est)
	}
	if math.Abs(apiRep.Mode-exact.Mode) > 0.05*math.Abs(exact.Mode) {
		t.Fatalf("mode %v vs exact %v", apiRep.Mode, exact.Mode)
	}

	// Communication claim: sketching cost a fraction of ALL.
	if csBytes := int64(dcs) * int64(m) * 8; csBytes*4 > exact.Stats.Bytes {
		t.Fatalf("sketch bytes %d not ≪ ALL bytes %d", csBytes, exact.Stats.Bytes)
	}
}
