package policy

import (
	"errors"
	"math"
	"testing"

	"netmax/internal/simnet"
)

// This file checks the paper's Appendix B: the approximation-ratio
// analysis of Algorithm 3 on fully connected heterogeneous graphs. The
// certificate is test-only; the runtime never needs it.
//
// For a feasible policy with second eigenvalue λ₂ and objective
// l(λ) = t̄ · ln ε / ln λ, the paper bounds
//
//	l(λ₂)/l(λ*) ≤ (U/L) · (ln(M-1) - ln(M-3)) /
//	               (ln(1-2a+a·M) - ln(1-2a+a·(M+1)))
//
// where [L, U] is the feasible t̄ interval, M ≥ 4 the worker count, and a
// the minimum positive entry of Y_P (Eq. 38). The two spectral ingredients
// are Eq. 34 (λ₂ ≥ (M-3)/(M-1), from eigenvalue interlacing) and Eq. 35
// (the cycle-based subdominant-eigenvalue bound λ₂ ≤ (1-2a+a^{M+1})/(1-2a+a^M)).

// Lambda2LowerBound returns the Eq. 34 lower bound on the second-largest
// eigenvalue of Y_P for a fully connected graph with m > 3 workers.
func Lambda2LowerBound(m int) (float64, error) {
	if m <= 3 {
		return 0, errors.New("policy: Eq. 34 requires more than 3 workers")
	}
	return float64(m-3) / float64(m-1), nil
}

// Lambda2UpperBound returns the Eq. 35 cycle-based upper bound on λ₂ given
// the minimum positive entry a of Y_P.
func Lambda2UpperBound(a float64, m int) (float64, error) {
	if a <= 0 || a >= 1 {
		return 0, errors.New("policy: minimum entry must lie in (0,1)")
	}
	num := 1 - 2*a + math.Pow(a, float64(m)+1)
	den := 1 - 2*a + math.Pow(a, float64(m))
	if den <= 0 {
		return 0, errors.New("policy: degenerate denominator in Eq. 35")
	}
	return num / den, nil
}

// ApproximationRatio evaluates the Eq. 38 bound for a feasible-time
// interval [lo, hi], m workers and minimum positive Y_P entry a.
func ApproximationRatio(lo, hi float64, m int, a float64) (float64, error) {
	if m <= 3 {
		return 0, errors.New("policy: Eq. 38 requires more than 3 workers")
	}
	if lo <= 0 || hi < lo {
		return 0, errors.New("policy: invalid feasible interval")
	}
	lower, err := Lambda2LowerBound(m)
	if err != nil {
		return 0, err
	}
	upper, err := Lambda2UpperBound(a, m)
	if err != nil {
		return 0, err
	}
	num := -math.Log(lower) // ln(M-1) - ln(M-3)
	den := -math.Log(upper) // ln(1-2a+aM) - ln(1-2a+a(M+1))
	if den <= 0 {
		return 0, errors.New("policy: Eq. 35 bound is not contracting")
	}
	return (hi / lo) * num / den, nil
}

// MinPositiveEntry returns the smallest strictly positive entry of Y_P
// built for the given feasible policy — the `a` of Appendix B.
func MinPositiveEntry(p *Policy, times [][]float64, adj [][]bool, alpha float64) float64 {
	y := BuildY(p.P, times, adj, alpha, p.Rho)
	minV := math.Inf(1)
	for _, v := range y.Data {
		if v > 1e-12 && v < minV {
			minV = v
		}
	}
	if math.IsInf(minV, 1) {
		return 0
	}
	return minV
}

// CertifyApproximation checks the Appendix B guarantee for a generated
// policy on a fully connected graph: the policy's realized objective
// l(λ₂) = t̄·ln ε/ln λ₂ must not exceed ratio times the analytical lower
// bound L·ln ε / ln((M-3)/(M-1)). It returns the realized objective, the
// lower bound, and the certified ratio.
func CertifyApproximation(p *Policy, times [][]float64, adj [][]bool, alpha, epsilon float64) (objective, lowerBound, ratio float64, err error) {
	m := len(p.P)
	lo, hi, err := FeasibleTimeInterval(times, adj, alpha, p.Rho)
	if err != nil {
		return 0, 0, 0, err
	}
	a := MinPositiveEntry(p, times, adj, alpha)
	ratio, err = ApproximationRatio(lo, hi, m, a)
	if err != nil {
		return 0, 0, 0, err
	}
	lowerL2, err := Lambda2LowerBound(m)
	if err != nil {
		return 0, 0, 0, err
	}
	objective = p.TBar * math.Log(epsilon) / math.Log(p.Lambda2)
	lowerBound = lo * math.Log(epsilon) / math.Log(lowerL2)
	if objective > ratio*lowerBound*(1+1e-9) {
		return objective, lowerBound, ratio, errors.New("policy: Appendix B bound violated")
	}
	return objective, lowerBound, ratio, nil
}

func TestLambda2LowerBound(t *testing.T) {
	if _, err := Lambda2LowerBound(3); err == nil {
		t.Fatal("m=3 should be rejected")
	}
	v, err := Lambda2LowerBound(5)
	if err != nil || math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("bound = %v, %v; want 0.5", v, err)
	}
}

func TestLambda2UpperBound(t *testing.T) {
	v, err := Lambda2UpperBound(0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v >= 1 {
		t.Fatalf("upper bound = %v, want in (0,1)", v)
	}
	if _, err := Lambda2UpperBound(0, 5); err == nil {
		t.Fatal("a=0 should be rejected")
	}
}

func TestApproximationRatioAtLeastOne(t *testing.T) {
	r, err := ApproximationRatio(1, 2, 6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r < 1 {
		t.Fatalf("approximation ratio %v < 1", r)
	}
}

func TestApproximationRatioRejectsBadInput(t *testing.T) {
	if _, err := ApproximationRatio(1, 2, 3, 0.05); err == nil {
		t.Fatal("m<=3 accepted")
	}
	if _, err := ApproximationRatio(2, 1, 6, 0.05); err == nil {
		t.Fatal("hi<lo accepted")
	}
	if _, err := ApproximationRatio(0, 1, 6, 0.05); err == nil {
		t.Fatal("lo=0 accepted")
	}
}

func TestGeneratedPolicySpectrumWithinAppendixBBounds(t *testing.T) {
	// Eq. 34: λ₂ of any feasible policy on a fully connected graph with
	// m>3 workers is at least (m-3)/(m-1); Eq. 35 gives the a-dependent
	// upper bound. Both must hold for Algorithm 3's output.
	for _, seed := range []int64{1, 5, 9} {
		m := 6
		times := hetTimes(m, seed)
		adj := simnet.FullyConnected(m)
		pol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		low, err := Lambda2LowerBound(m)
		if err != nil {
			t.Fatal(err)
		}
		if pol.Lambda2 < low-1e-9 {
			t.Fatalf("seed %d: λ2 = %v below Eq. 34 bound %v", seed, pol.Lambda2, low)
		}
		a := MinPositiveEntry(pol, times, adj, 0.1)
		if a <= 0 {
			t.Fatalf("seed %d: no positive entry in Y_P", seed)
		}
		up, err := Lambda2UpperBound(a, m)
		if err != nil {
			t.Fatal(err)
		}
		if pol.Lambda2 > up+1e-9 {
			t.Fatalf("seed %d: λ2 = %v above Eq. 35 bound %v (a=%v)", seed, pol.Lambda2, up, a)
		}
	}
}

func TestCertifyApproximation(t *testing.T) {
	m := 6
	times := hetTimes(m, 11)
	adj := simnet.FullyConnected(m)
	pol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	obj, lower, ratio, err := CertifyApproximation(pol, times, adj, 0.1, 1e-2)
	if err != nil {
		t.Fatalf("certification failed: %v (obj=%v lower=%v ratio=%v)", err, obj, lower, ratio)
	}
	if obj <= 0 || lower <= 0 || ratio < 1 {
		t.Fatalf("degenerate certificate: obj=%v lower=%v ratio=%v", obj, lower, ratio)
	}
}
