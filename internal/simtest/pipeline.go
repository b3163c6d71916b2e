package simtest

import (
	"context"
	"fmt"
	"time"

	"csoutlier"
	"csoutlier/internal/cluster"
	"csoutlier/internal/recovery"
)

// Hooks lets a test corrupt the pipeline under the oracle's nose — the
// harness's self-test injects a recovery bug here and asserts the
// differential comparison catches it.
type Hooks struct {
	// MutateReport, when non-nil, rewrites the recovered report after the
	// pipeline produces it and before the oracle sees it.
	MutateReport func(*csoutlier.Report)
}

// nodeTimeout bounds each sketch attempt against one simulated node.
// Loopback round-trips complete in microseconds; the value only controls
// how fast hung nodes are declared dead, i.e. the harness's wall-clock.
const nodeTimeout = 150 * time.Millisecond

// Sketcher builds the scenario's consensus sketcher over the public API.
// The matrix seed is decorrelated from the data seed: the measurement
// ensemble must be independent of the signal it measures.
func (s Scenario) Sketcher(keys []string) (*csoutlier.Sketcher, error) {
	return csoutlier.NewSketcher(keys, csoutlier.Config{
		M:    s.M,
		Seed: s.Seed ^ 0x9e3779b97f4a7c15,
		// Enough iterations for the bias column plus every planted
		// outlier, even when the query's k is small — the differential
		// oracle demands the exact answer, and the mode estimate only
		// locks after ≈ s+1 iterations (Figure 4b).
		MaxIterations: recoveryBudget(s.S, s.K),
		Ensemble:      s.Ens,
	})
}

func recoveryBudget(s, k int) int {
	b := recovery.IterationBudget(k)
	if min := s + 3; b < min {
		b = min
	}
	return b
}

// RunCluster executes the scenario's distributed pipeline for real: one
// chaos-wrapped TCP server per node, fault schedule applied, collection
// and recovery through the public DetectCluster API. The returned report
// is exactly what a production aggregator would have answered.
func RunCluster(scn Scenario, data *Data, h Hooks) (*csoutlier.ClusterReport, error) {
	sk, err := scn.Sketcher(data.Keys)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, scn.L)
	for i := 0; i < scn.L; i++ {
		srv, err := cluster.StartChaos(cluster.NewLocalNode(NodeID(i), data.Slices[i]))
		if err != nil {
			return nil, err
		}
		defer srv.Stop()
		switch scn.Faults[i] {
		case FaultFlaky:
			srv.FailFirst(1)
		case FaultHang:
			srv.SetBehavior(cluster.BehaveHang)
		case FaultCrash:
			srv.SetBehavior(cluster.BehaveCrash)
		case FaultGarbage:
			srv.SetBehavior(cluster.BehaveGarbage)
		}
		addrs[i] = srv.Addr()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := sk.DetectCluster(ctx, addrs, scn.K, csoutlier.ClusterOptions{
		MinNodes:    scn.IncludedNodes(),
		NodeTimeout: nodeTimeout,
		MaxAttempts: 2,
		// Scenario-scoped retry jitter: pull-path replays are
		// deterministic for a given scenario seed (| 1 keeps it
		// non-zero, since 0 means the fixed default seed, split per
		// node ID like any other).
		BackoffSeed: scn.Seed | 1,
	})
	if err != nil {
		return nil, fmt.Errorf("simtest: DetectCluster: %w", err)
	}
	if h.MutateReport != nil {
		h.MutateReport(&rep.Report)
	}
	return rep, nil
}

// CheckScenario is the harness's unit of work: materialize the scenario,
// run the real distributed pipeline under its fault schedule, compare
// the answer against the exact centralized oracle, then put the
// in-process pipeline through the metamorphic invariants. The returned
// error describes the first divergence found.
func CheckScenario(scn Scenario, h Hooks) error {
	data, err := scn.Build()
	if err != nil {
		return err
	}
	rep, err := RunCluster(scn, data, h)
	if err != nil {
		return err
	}
	if err := CompareToOracle(scn, data, rep); err != nil {
		return fmt.Errorf("differential oracle: %w", err)
	}
	if err := CheckInvariants(scn, data, h); err != nil {
		return fmt.Errorf("invariant: %w", err)
	}
	return nil
}
