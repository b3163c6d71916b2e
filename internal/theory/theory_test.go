package theory

import (
	"math"
	"testing"
)

func TestConjecture1HoldsAtPaperScale(t *testing.T) {
	// Paper §4.1: for M, s ≥ 10, ‖Φ∗ᵀr‖₂ ≥ 0.5‖r‖₂ "always holds by a
	// large margin".
	rep := VerifyConjecture1(100, 10, 2000, 1)
	if rep.Failures != 0 {
		t.Fatalf("%d failures at M=100 s=10", rep.Failures)
	}
	if rep.MinRatio < 0.7 {
		t.Fatalf("margin too thin: min ratio %v", rep.MinRatio)
	}
	if rep.CLowerBound <= 0 {
		t.Fatalf("c bound %v", rep.CLowerBound)
	}
}

func TestConjecture1SmallS(t *testing.T) {
	// s=2 is the paper's stress case (largest ζ = 1/√2). Failures may
	// occur but must be exponentially rare.
	rep := VerifyConjecture1(30, 2, 5000, 2)
	if rate := float64(rep.Failures) / float64(rep.Trials); rate > 0.01 {
		t.Fatalf("failure rate %v too high at s=2", rate)
	}
	if rep.MinRatio == math.Inf(1) {
		t.Fatal("no trials ran")
	}
}

func TestConjecture1ReportFields(t *testing.T) {
	rep := VerifyConjecture1(20, 3, 100, 3)
	if rep.M != 20 || rep.S != 3 || rep.Trials != 100 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestConjecture2HoldsWithA11(t *testing.T) {
	// Paper §4.2: with a = 1.1 no counterexamples were observed, "by a
	// wide margin in all cases". ζ = 1/√N with N = 1000.
	zeta := 1 / math.Sqrt(1000)
	rep := VerifyConjecture2(100, 5000, zeta, []float64{0.05, 0.1, 0.2, 0.4}, 4)
	if !allHold(rep) {
		t.Fatalf("conjecture 2 violated: %+v", rep.Points)
	}
	for _, p := range rep.Points {
		if p.Observed < 0 || p.Observed > 1 {
			t.Fatalf("observed probability %v", p.Observed)
		}
	}
}

func TestConjecture2SmallZetaRegime(t *testing.T) {
	// The conjecture's hypothesis is |ζ| "sufficiently small" — the
	// dependence shifts ⟨x, y′⟩ by ≈ ζ, so the bound can only hold when
	// ε is not inside that shift. At ζ = 1/√10000 = 0.01 (a BOMP run
	// with N = 10K keys) the bound must hold comfortably.
	rep := VerifyConjecture2(200, 3000, 1/math.Sqrt(10000), []float64{0.1, 0.3}, 5)
	if !allHold(rep) {
		t.Fatalf("conjecture 2 violated at small ζ: %+v", rep.Points)
	}
}

func TestConjecture2LargeZetaOutsideHypothesis(t *testing.T) {
	// Sanity check on the harness itself: when ζ is NOT small (ζ = 1/√10)
	// the inner product concentrates near ζ ≈ 0.32 and the ε = 0.1 bound
	// must fail — confirming the verifier can detect violations and that
	// the conjecture's small-ζ hypothesis is load-bearing.
	rep := VerifyConjecture2(200, 3000, 1/math.Sqrt(10), []float64{0.1}, 5)
	if allHold(rep) {
		t.Fatal("verifier failed to flag a large-ζ violation")
	}
}

func TestConjecture2MonotoneInEpsilon(t *testing.T) {
	rep := VerifyConjecture2(50, 2000, 0.05, []float64{0.1, 0.2, 0.5, 1.0}, 6)
	for i := 1; i < len(rep.Points); i++ {
		if rep.Points[i].Observed < rep.Points[i-1].Observed {
			t.Fatalf("observed probability not monotone in ε: %+v", rep.Points)
		}
	}
	// At ε = 1 essentially everything is within (|⟨x,y′⟩| ≤ ‖x‖ ≈ 1).
	last := rep.Points[len(rep.Points)-1]
	if last.Observed < 0.99 {
		t.Fatalf("P(|ip| ≤ 1) = %v", last.Observed)
	}
}

// allHold reports whether every ε point satisfied the conjectured bound.
func allHold(r Conjecture2Report) bool {
	for _, p := range r.Points {
		if !p.Holds {
			return false
		}
	}
	return true
}
