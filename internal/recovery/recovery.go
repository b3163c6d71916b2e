// Package recovery implements the sparse-recovery algorithms the paper's
// aggregator runs on the global measurement: standard Orthogonal Matching
// Pursuit (OMP, §2.2 / Algorithm 2), the paper's new Biased OMP (BOMP,
// §3.2 / Algorithm 1) that additionally recovers the unknown mode the
// data concentrates around, and OMP with an externally known mode (the
// baseline of Figure 4a).
//
// All algorithms share one greedy engine: per iteration, select the
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
// scratch: the package-level BOMP/OMP/KnownModeOMP entry points build a
// throwaway workspace per call — and so compute every Gram column they
// use — while hot paths (the standing-query Sketcher) hold workspaces on
// one shared GramCache and replay queries allocation-free.
package recovery

import (
	"errors"
	"math"

	"csoutlier/internal/linalg"
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

// Result is the output of a recovery run.
//
// When produced by a Workspace method, the Result and all slices in it
// alias workspace storage and are overwritten by that workspace's next
// call. Results from the package-level functions are independent.
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

// BOMP recovers a data vector whose values concentrate around an unknown
// bias b from the measurement y = Φ₀·x (paper Algorithm 1). It extends
// the dictionary with φ₀ = (1/√N)Σφᵢ so that the bias becomes one more
// sparse coefficient, runs OMP on the extended problem, and maps the
// solution back: b = z₀/√N, x = z + b.
func BOMP(m sensing.Matrix, y linalg.Vector, opt Options) (*Result, error) {
	return NewWorkspace().BOMP(m, y, opt)
}

// OMP recovers a vector that is sparse at zero (paper §2.2) from
// y = Φ₀·x. Mode is reported as 0.
func OMP(m sensing.Matrix, y linalg.Vector, opt Options) (*Result, error) {
	return NewWorkspace().OMP(m, y, opt)
}

// KnownModeOMP recovers a vector known to concentrate around the given
// mode: it cancels the bias contribution b·Φ₀·1 = b·√N·φ₀ from the
// measurement, runs plain OMP on the now sparse-at-zero residual signal,
// and adds the bias back. This is the "OMP + known mode" baseline of
// Figure 4(a); the paper notes that learning b externally costs an extra
// 2s+1 values of communication, which BOMP avoids.
func KnownModeOMP(m sensing.Matrix, y linalg.Vector, mode float64, opt Options) (*Result, error) {
	return NewWorkspace().KnownModeOMP(m, y, mode, opt)
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
