// Package simtest is a deterministic simulation harness for the whole
// sketch→aggregate→recover pipeline.
//
// A Scenario is a randomized but fully seeded configuration of the
// distributed outlier-detection problem: key-space size, sparsity, bias,
// magnitude tail shape, node count, data split, measurement budget and a
// per-node fault schedule. The harness materializes the scenario's data,
// runs the REAL pipeline end to end — per-node sketching behind the TCP
// transport, fault-injected collection via the public DetectCluster API,
// aggregation, BOMP recovery — and differentially compares the answer
// against an exact centralized oracle, plus a set of metamorphic
// invariants (re-partitioning linearity, node-order permutation, scale
// equivariance, mode-shift invariance).
//
// Scenarios serialize to a one-line string (Scenario.String /
// ParseScenario), so any failure is replayable:
//
//	go test ./internal/simtest -run 'TestSim$' -sim.replay='v1 seed=... n=... ...'
//
// The failing test prints that line, after first shrinking the scenario
// to the smallest variant that still fails.
package simtest

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"csoutlier"
	"csoutlier/internal/linalg"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// Fault is one node's scheduled behavior during sketch collection.
type Fault int

// The fault schedule's vocabulary. Flaky nodes drop the connection on
// their first sketch exchange and then answer (transport-level retry
// recovers them); hang/crash/garbage nodes never deliver a sketch and are
// deterministically excluded from the aggregate.
const (
	FaultNone Fault = iota
	FaultFlaky
	FaultHang
	FaultCrash
	FaultGarbage
)

// Included reports whether a node with this fault still contributes its
// sketch to the aggregate.
func (f Fault) Included() bool { return f == FaultNone || f == FaultFlaky }

// faultRunes spells a fault schedule, one rune per node, indexed by Fault.
const faultRunes = ".fhcg"

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultFlaky:
		return "flaky"
	case FaultHang:
		return "hang"
	case FaultCrash:
		return "crash"
	case FaultGarbage:
		return "garbage"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// Scenario is one fully specified simulation: everything the harness
// needs to regenerate the data, the cluster and the faults bit-for-bit.
type Scenario struct {
	Seed  uint64  // master seed for data, split and measurement matrix
	N     int     // key-space size
	S     int     // planted outliers
	L     int     // node count
	M     int     // measurement budget (sketch length)
	K     int     // query size (may exceed S: the |O| < k case)
	Mode  float64 // planted bias b
	Alpha float64 // magnitude tail: 0 = uniform, else Pareto shape
	Noise float64 // per-node zero-sum noise amplitude
	Ens   csoutlier.Ensemble
	// Faults holds one entry per node, in node order.
	Faults []Fault
}

// measurementsFor returns a measurement budget comfortably above the
// phase transition for recovering s outliers plus the bias in an
// N-dimensional key space: M = margin·(s+2)·log N (Theorem 1).
func measurementsFor(n, s int, margin float64) int {
	m := int(math.Ceil(margin * float64(s+2) * math.Log(float64(n))))
	if m < 16 {
		m = 16
	}
	return m
}

// drawMargin consumes a generator's ensemble draw and returns the
// measurement margin that goes with it. Two of the four outcomes named
// ensembles since retired (sensing.ParseKind refuses them); those
// scenarios run Gaussian — the zero Ens — at the wider margin they were
// always generated with, so every other field of every seeded scenario
// is what it was.
func drawMargin(rng *xrand.RNG) float64 {
	if rng.Intn(4) < 2 {
		return 4.0
	}
	return 3.2
}

// Generate derives scenario index from the base seed. Equal (base, index)
// pairs yield identical scenarios on every platform.
func Generate(base uint64, index int) Scenario {
	rng := xrand.New(base).Split(uint64(index) + 0x51017e57)
	scn := Scenario{Seed: rng.Uint64()}

	scn.S = 1 + rng.Intn(8)
	scn.N = 120 + rng.Intn(481)
	margin := drawMargin(rng)
	// Keep the budget a strict compression; shed sparsity if the key
	// space drawn is too small for the margin the sweep wants.
	for {
		scn.M = measurementsFor(scn.N, scn.S, margin)
		if scn.M <= scn.N*3/5 || scn.S == 1 {
			break
		}
		scn.S--
	}
	scn.K = 1 + rng.Intn(scn.S+2)

	if rng.Float64() < 0.2 {
		scn.Mode = 0
	} else {
		scn.Mode = 100 + 4900*rng.Float64()
		if rng.Float64() < 0.5 {
			scn.Mode = -scn.Mode
		}
	}
	switch rng.Intn(6) {
	case 0:
		scn.Alpha = 0.7
	case 1:
		scn.Alpha = 1.0
	case 2:
		scn.Alpha = 1.5
	default:
		scn.Alpha = 0 // uniform magnitudes
	}

	scn.L = 1 + rng.Intn(8)
	if rng.Float64() < 0.75 {
		scn.Noise = (math.Abs(scn.Mode) + 500) * (0.1 + 2*rng.Float64())
	}

	scn.Faults = make([]Fault, scn.L)
	if scn.L > 1 && rng.Float64() < 0.45 {
		nf := 1 + rng.Intn(2)
		if nf > scn.L-1 {
			nf = scn.L - 1
		}
		for _, i := range rng.Perm(scn.L)[:nf] {
			scn.Faults[i] = Fault(1 + rng.Intn(4))
		}
	}
	return scn
}

// IncludedNodes returns how many nodes deliver a sketch.
func (s Scenario) IncludedNodes() int {
	n := 0
	for _, f := range s.Faults {
		if f.Included() {
			n++
		}
	}
	return n
}

// NodeID names node i. IDs sort in node order for L ≤ 100 nodes.
func NodeID(i int) string { return fmt.Sprintf("node%02d", i) }

// String encodes the scenario as a replayable one-liner.
func (s Scenario) String() string {
	faults := make([]byte, len(s.Faults))
	for i, f := range s.Faults {
		faults[i] = faultRunes[f]
	}
	return fmt.Sprintf("v1 seed=%d n=%d s=%d l=%d m=%d k=%d mode=%g alpha=%g noise=%g ens=%s faults=%s",
		s.Seed, s.N, s.S, s.L, s.M, s.K, s.Mode, s.Alpha, s.Noise, s.Ens, faults)
}

// ParseScenario decodes a Scenario.String() line.
func ParseScenario(line string) (Scenario, error) {
	var scn Scenario
	err := parseReplayLine(line, func(prefix string) (fieldTable, error) {
		if prefix != "v1" {
			return nil, fmt.Errorf("simtest: scenario line must start with %q", "v1")
		}
		t := baseFields(&scn.Seed, &scn.N, &scn.S, &scn.L, &scn.M, &scn.K, &scn.Mode, &scn.Noise, &scn.Ens)
		t["alpha"] = floatField(&scn.Alpha)
		t["faults"] = func(val string) error {
			scn.Faults = make([]Fault, len(val))
			for i := range scn.Faults {
				f := strings.IndexByte(faultRunes, val[i])
				if f < 0 {
					return fmt.Errorf("unknown fault rune %q", val[i])
				}
				scn.Faults[i] = Fault(f)
			}
			return nil
		}
		return t, nil
	})
	if err != nil {
		return Scenario{}, err
	}
	return scn, scn.validate()
}

func (s Scenario) validate() error {
	switch {
	case s.N < 4:
		return fmt.Errorf("simtest: N=%d too small", s.N)
	case s.S < 1 || s.S > s.N/4:
		return fmt.Errorf("simtest: S=%d outside [1, N/4]", s.S)
	case s.L < 1:
		return fmt.Errorf("simtest: L=%d", s.L)
	case s.M < 2 || s.M > s.N:
		return fmt.Errorf("simtest: M=%d outside [2, N]", s.M)
	case s.K < 1:
		return fmt.Errorf("simtest: K=%d", s.K)
	case len(s.Faults) != s.L:
		return fmt.Errorf("simtest: %d faults for %d nodes", len(s.Faults), s.L)
	case s.IncludedNodes() == 0:
		return fmt.Errorf("simtest: no node survives the fault schedule")
	}
	return nil
}

// Data is a Scenario's materialized world: the key dictionary, the exact
// includable global aggregate (the ground truth the oracle computes on),
// and one slice per node. Nodes the fault schedule excludes hold junk
// data — their slices never reach the aggregate, and keeping them out of
// the includable split is what makes the oracle exact under faults: the
// paper's node-removal property says the partial sum is exactly the
// sketch of the aggregate over the responders.
type Data struct {
	Keys    []string
	Global  linalg.Vector // Σ over included nodes' slices (exact, pre-split)
	Support []int         // planted outlier positions, sorted
	Slices  []linalg.Vector
}

// Build materializes the scenario deterministically from its seed.
func (s Scenario) Build() (*Data, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(s.Seed)
	d := &Data{Keys: make([]string, s.N)}
	for i := range d.Keys {
		d.Keys[i] = fmt.Sprintf("key%06d", i) // zero-padded: sorted == index order
	}

	// Global aggregate: the mode everywhere, S outliers with either
	// uniform or Pareto(α) divergence magnitudes and random signs.
	d.Global = make(linalg.Vector, s.N)
	d.Global.Fill(s.Mode)
	d.Support = pickDistinct(rng, s.N, s.S)
	mag0 := 100 + 900*rng.Float64()
	for _, j := range d.Support {
		var mag float64
		if s.Alpha > 0 {
			var u float64
			for u == 0 {
				u = rng.Float64()
			}
			mag = mag0 * math.Pow(u, -1/s.Alpha)
			if cap := 1e3 * mag0; mag > cap {
				// Bound the dynamic range recovery must resolve. The cap
				// is jittered so two capped outliers never tie exactly —
				// an exact divergence tie would let sub-epsilon float
				// noise pick the ranking and flake the oracle comparison.
				mag = cap * (1 + 0.05*rng.Float64())
			}
		} else {
			mag = mag0 * (1 + 9*rng.Float64())
		}
		if rng.Float64() < 0.5 {
			mag = -mag
		}
		d.Global[j] = s.Mode + mag
	}

	// Split the includable aggregate across the nodes that will deliver;
	// excluded nodes hold unrelated junk (it never enters the sum).
	included := workload.SplitZeroSumNoise(d.Global, s.IncludedNodes(), s.Noise, rng.Uint64())
	d.Slices = make([]linalg.Vector, s.L)
	ii := 0
	for i, f := range s.Faults {
		if f.Included() {
			d.Slices[i] = included[ii]
			ii++
		} else {
			d.Slices[i] = workload.PowerLaw(s.N, 1.2, rng.Uint64())
		}
	}
	return d, nil
}

// pickDistinct returns s distinct indices in [0, n), sorted.
func pickDistinct(r *xrand.RNG, n, s int) []int {
	seen := make(map[int]bool, s)
	for len(seen) < s {
		seen[r.Intn(n)] = true
	}
	out := make([]int, 0, s)
	for j := range seen {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}
