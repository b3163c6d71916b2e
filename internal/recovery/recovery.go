// Package recovery implements the sparse recovery the paper's aggregator
// runs on the global measurement: the paper's Biased OMP (BOMP, §3.2 /
// Algorithm 1), which recovers the unknown mode the data concentrates
// around together with the outliers, standard Orthogonal Matching Pursuit
// (OMP, §2.2 / Algorithm 2), and OMP with an externally known mode (the
// baseline of Figure 4a).
//
// All three share one greedy engine: per iteration, select the
// dictionary column most correlated with the current residual, grow the
// incremental factorization of the selected columns by it, and re-solve.
// The paper keeps a Gram–Schmidt QR of those columns; the engine keeps
// its R alone, as the Cholesky factor of their Gram matrix, and takes the
// correlations from the Gram form too (see Workspace), so an iteration
// never passes over the matrix. The engine also implements the paper's
// §5 production fix — "terminate the recovery process once the residual
// stops decreasing" — which guards against floating-point drift in that
// factorization at high iteration counts.
//
// The engine runs inside a Workspace (see workspace.go) that owns all
// scratch and reads its Gram columns from a GramCache: a Sketcher's
// workspaces share one cache, and any other caller keeps one workspace
// per matrix, so solves on the same Φ share the columns they select.
// Result.Outliers turns a solve into the k-outlier answer.
package recovery

import (
	"errors"
	"math"

	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/sensing"
)

// Options tunes the greedy recovery engine.
type Options struct {
	// MaxIterations is the iteration budget R. The paper tunes
	// R = f(k) ∈ [2k, 5k] for k-outlier queries (§5). 0 means
	// min(M, N+1): run until the measurement is exhausted.
	MaxIterations int

	// ResidualTol stops the loop once ‖r‖₂ ≤ ResidualTol·‖y‖₂.
	// 0 means 1e-9 (exact recovery territory). A negative value means
	// literally zero: the tolerance stop is disabled and the loop runs
	// until the budget, the stall stop, or an exactly zero residual.
	// (0 cannot mean "disabled" — it is the zero value, and a standing
	// query built with Options{} must get the default, not an engine
	// that never stops on tolerance.)
	ResidualTol float64

	// TraceMode records the mode estimate and ‖r‖₂ after every
	// iteration (Figures 4b and 9). It costs a scan of the
	// coefficients, which the loop back-substitutes for every
	// iteration anyway.
	TraceMode bool

	// disableEarlyStop turns off the §5 stall stop; the package's
	// tests set it to isolate the other stopping rules.
	disableEarlyStop bool
}

// stallRelTol is the relative per-iteration residual improvement below
// which the §5 early stop fires: the loop halts when
// ‖r_t‖ ≥ ‖r_{t−1}‖·(1 − stallRelTol), so only a numerically flat
// residual stops it.
//
// This guards against floating-point drift, not against noise: greedy
// selection always finds the dictionary column MOST correlated with a
// noise residual, so noise-fitting iterations still improve the residual
// by ≈ √(2·ln N / (M−k)) per step and never look stalled. For sketches
// carrying measurement noise, set ResidualTol to the (relative) noise
// floor instead — the loop then stops exactly when the signal is
// exhausted.
const stallRelTol = 1e-12

func (o Options) residualTol() float64 {
	if o.ResidualTol < 0 {
		return 0 // explicit "tolerance stop off"
	}
	if o.ResidualTol == 0 {
		return 1e-9
	}
	return o.ResidualTol
}

// Result is the output of a recovery run. It and all slices in it alias
// the storage of the workspace that produced it and are overwritten by
// that workspace's next call.
type Result struct {
	// X is the recovered N-length data vector: the mode everywhere except
	// on the recovered support.
	X linalg.Vector
	// Mode is the recovered bias b (BOMP), the supplied bias (known-mode
	// OMP), or 0 (plain OMP).
	Mode float64
	// Support lists the recovered outlier positions (data-space indices,
	// 0-based; the BOMP bias column is not included), in selection order —
	// OMP greediness means earlier entries carry more energy.
	Support []int
	// Coef holds the recovered deviation from the mode for each entry of
	// Support (X[Support[i]] = Mode + Coef[i]).
	Coef []float64
	// Selection records a BOMP run's extended-dictionary selection order
	// (column 0 is the bias column φ₀, column j+1 is data column j) —
	// the warm hint BOMPWarm/BOMPBatch accept when re-solving the same
	// standing query against the next fold generation's sketch. Nil for
	// OMP results.
	Selection []int
	// Iterations is the number of columns actually selected.
	Iterations int
	// Residual is the final residual norm ‖r‖₂ = ‖y − Φ·x̂‖₂ — the
	// unexplained measurement energy, ‖y‖₂ when nothing was selected.
	// Cheap to report (the greedy loop maintains it for its stopping
	// rules) and the natural recovery-quality gauge for monitoring.
	Residual float64
	// StoppedEarly reports that the §5 residual-stall cutoff fired.
	StoppedEarly bool
	// ModeTrace and ResidualTrace, when TraceMode asks for them, hold
	// the mode estimate and ‖r‖₂ after each iteration.
	ModeTrace     []float64
	ResidualTrace []float64
}

// ErrDimension reports a measurement/matrix size mismatch.
var ErrDimension = errors.New("recovery: measurement length does not match matrix")

// Outliers returns the k-outlier answer of the run (paper §2.1): the
// recovered support entries furthest from the recovered mode, strongest
// first, ties to the lower index. The slice is the caller's: it does not
// alias the workspace.
func (r *Result) Outliers(k int) []outlier.KV {
	cands := make([]outlier.KV, len(r.Support))
	for i, j := range r.Support {
		cands[i] = outlier.KV{Index: j, Value: r.X[j]}
	}
	return outlier.Rank(cands, r.Mode, k)
}

// BOMP is Workspace.BOMP on a throwaway workspace, which misses every
// Gram column it selects. Its only caller is the benchmark's cold-solve
// probe (recovery.bomp_cold_ms); everything else keeps a workspace.
func BOMP(m sensing.Matrix, y linalg.Vector, opt Options) (*Result, error) {
	return NewWorkspace().BOMP(m, y, opt)
}

// modeFromExtended extracts the running mode estimate b = z₀/√N from the
// extended-coefficient vector (paper Algorithm 1 step 3). idx maps each
// coefficient to its extended-dictionary column; column 0 is the bias.
func modeFromExtended(z linalg.Vector, idx []int, n int) float64 {
	for i, j := range idx {
		if j == 0 {
			return z[i] / math.Sqrt(float64(n))
		}
	}
	return 0
}

type diagnostics struct {
	stalled       bool
	residual      float64 // final ‖r‖₂ (‖y‖₂ when nothing was selected)
	modeTrace     []float64
	residualTrace []float64
}

// IterationBudget returns the paper's recommended iteration count
// R = f(k) for a k-outlier query (§5: "R ∈ [2k, 5k] is good enough for
// both recovery accuracy and efficiency"). The midpoint 3k+1 leaves one
// iteration for the bias column.
func IterationBudget(k int) int {
	if k < 1 {
		k = 1
	}
	return 3*k + 1
}
