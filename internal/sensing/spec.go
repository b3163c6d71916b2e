package sensing

import "fmt"

// Kind names a measurement-matrix family.
type Kind uint8

// The ensembles the package implements. The sketch codec and the cluster
// protocol write Kind values, so the numbers are fixed; any other is an
// unknown kind.
const (
	// KindGaussian is the paper's i.i.d. N(0, 1/M) ensemble.
	KindGaussian Kind = 0
	// KindCountSketch is the bias-aware count-sketch: depth rows of
	// hashed ±1 buckets, the recovery-free point-query backend.
	KindCountSketch Kind = 3
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGaussian:
		return "gaussian"
	case KindCountSketch:
		return "countsketch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// check is the one test of whether this build implements k; Spec.Validate
// and New answer with its error.
func (k Kind) check() error {
	switch k {
	case KindGaussian, KindCountSketch:
		return nil
	default:
		return fmt.Errorf("sensing: unknown ensemble kind %d", k)
	}
}

// ParseKind converts a user-facing name (String's; empty means
// gaussian) into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", KindGaussian.String():
		return KindGaussian, nil
	case KindCountSketch.String():
		return KindCountSketch, nil
	}
	return 0, fmt.Errorf("sensing: unknown ensemble %q (want gaussian or countsketch)", s)
}

// Spec fully identifies a measurement matrix across nodes: the shared
// parameters plus the ensemble family and its knob. Two nodes with
// equal Specs hold the identical matrix; Specs travel over the wire in
// the cluster protocol.
type Spec struct {
	Params
	Kind Kind
	// D is the CountSketch row count (0 means 5). Ignored for Gaussian.
	D int
}

// GaussianSpec is the default-family spec for the given parameters.
func GaussianSpec(p Params) Spec { return Spec{Params: p, Kind: KindGaussian} }

// Validate extends Params.Validate with the spec-level constraints the
// wire protocol relies on. A Spec arrives from the network in the cluster
// protocol and its dimensions size allocations, so servers must reject a
// malformed one before instantiating anything from it: compression
// requires M ≤ N, the depth cannot be negative, and the ensemble must
// be one this build implements.
func (s Spec) Validate() error {
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if s.M > s.N {
		return fmt.Errorf("sensing: M=%d exceeds N=%d (no compression)", s.M, s.N)
	}
	if s.D < 0 {
		return fmt.Errorf("sensing: negative depth D=%d", s.D)
	}
	return s.Kind.check()
}

// depth resolves the CountSketch row-count default.
func (s Spec) depth() int {
	if s.D > 0 {
		return s.D
	}
	return DefaultCountSketchDepth
}

// Resolve returns s with D made explicit: the count-sketch default
// filled in, zero for Gaussian. Specs naming the same matrix resolve to
// equal values.
func (s Spec) Resolve() Spec {
	if s.Kind == KindCountSketch {
		s.D = s.depth()
	} else {
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
	case KindCountSketch:
		return NewCountSketch(spec.Params, spec.depth())
	default:
		return nil, spec.Kind.check()
	}
}
