package sensing

import "fmt"

// Kind names a measurement-matrix family.
type Kind uint8

// The ensembles the package implements.
const (
	// KindGaussian is the paper's i.i.d. N(0, 1/M) ensemble.
	KindGaussian Kind = iota
	// KindSparseRademacher has D non-zero ±1/√D entries per column.
	KindSparseRademacher
	// KindSRHT is the subsampled randomized Hadamard transform.
	KindSRHT
	// KindCountSketch is the bias-aware count-sketch: depth rows of
	// hashed ±1/√depth buckets, the recovery-free point-query backend.
	KindCountSketch
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGaussian:
		return "gaussian"
	case KindSparseRademacher:
		return "sparse"
	case KindSRHT:
		return "srht"
	case KindCountSketch:
		return "countsketch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind converts a user-facing name into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "gaussian", "":
		return KindGaussian, nil
	case "sparse":
		return KindSparseRademacher, nil
	case "srht":
		return KindSRHT, nil
	case "countsketch":
		return KindCountSketch, nil
	default:
		return 0, fmt.Errorf("sensing: unknown ensemble %q (want gaussian, sparse, srht or countsketch)", s)
	}
}

// Spec fully identifies a measurement matrix across nodes: the shared
// parameters plus the ensemble family and its knobs. Two nodes with
// equal Specs hold the identical matrix; Specs travel over the wire in
// the cluster protocol.
type Spec struct {
	Params
	Kind Kind
	// D is the ensemble's per-column shape knob: the SparseRademacher
	// density (0 means max(8, M/16)) or the CountSketch row count
	// (0 means 5). Ignored for Gaussian and SRHT.
	D int
}

// GaussianSpec is the default-family spec for the given parameters.
func GaussianSpec(p Params) Spec { return Spec{Params: p, Kind: KindGaussian} }

// Validate extends Params.Validate with the spec-level constraints the
// wire protocol relies on. A Spec arrives from the network in the cluster
// protocol and its dimensions size allocations, so servers must reject a
// malformed one before instantiating anything from it: compression
// requires M ≤ N, the density cannot be negative, and the ensemble must
// be one this build knows.
func (s Spec) Validate() error {
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if s.M > s.N {
		return fmt.Errorf("sensing: M=%d exceeds N=%d (no compression)", s.M, s.N)
	}
	if s.D < 0 {
		return fmt.Errorf("sensing: negative sparse density D=%d", s.D)
	}
	if s.Kind > KindCountSketch {
		return fmt.Errorf("sensing: unknown ensemble kind %d", s.Kind)
	}
	return nil
}

// density resolves the SparseRademacher density: the default for a
// zero D, and never more than the M rows a column has.
func (s Spec) density() int {
	d := s.D
	if d <= 0 {
		d = max(8, s.M/16)
	}
	return min(d, s.M)
}

// depth resolves the CountSketch row-count default.
func (s Spec) depth() int {
	if s.D > 0 {
		return s.D
	}
	return DefaultCountSketchDepth
}

// Resolve returns s with D made explicit: the family's default filled
// in, zero for the families that ignore it. Specs naming the same
// matrix resolve to equal values.
func (s Spec) Resolve() Spec {
	switch s.Kind {
	case KindSparseRademacher:
		s.D = s.density()
	case KindCountSketch:
		s.D = s.depth()
	default:
		s.D = 0
	}
	return s
}

// DefaultCountSketchDepth is the row count a zero D resolves to for the
// count-sketch ensemble: 5 rows — odd, so the point estimator's median
// is an order statistic that survives two outlier collisions.
const DefaultCountSketchDepth = 5

// New instantiates the matrix a Spec describes. For the Gaussian family
// it picks the stored representation when M·N fits under denseLimit and
// the column-regenerating one otherwise.
func New(spec Spec, denseLimit int64) (Matrix, error) {
	if denseLimit <= 0 {
		denseLimit = 4e7
	}
	switch spec.Kind {
	case KindGaussian:
		if int64(spec.M)*int64(spec.N) <= denseLimit {
			return NewDense(spec.Params)
		}
		return NewSeeded(spec.Params)
	case KindSparseRademacher:
		return NewSparseRademacher(spec.Params, spec.density())
	case KindSRHT:
		return NewSRHT(spec.Params)
	case KindCountSketch:
		return NewCountSketch(spec.Params, spec.depth())
	default:
		return nil, fmt.Errorf("sensing: unknown ensemble kind %d", spec.Kind)
	}
}
