package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimpleInequality(t *testing.T) {
	// min -x - y  s.t. x + y <= 4, x <= 2, x,y >= 0 -> x=2, y=2, obj=-4
	p := &Problem{
		C:   []float64{-1, -1},
		Aub: [][]float64{{1, 1}, {1, 0}},
		Bub: []float64{4, 2},
	}
	x, obj, err := new(Solver).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj+4) > 1e-6 {
		t.Fatalf("obj = %v, want -4 (x=%v)", obj, x)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x1 s.t. x1 + x2 = 1, x >= 0 -> x1=0, x2=1
	p := &Problem{
		C:   []float64{1, 0},
		Aeq: [][]float64{{1, 1}},
		Beq: []float64{1},
	}
	x, obj, err := new(Solver).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj) > 1e-8 || math.Abs(x[1]-1) > 1e-8 {
		t.Fatalf("x = %v obj = %v", x, obj)
	}
}

func TestLowerBounds(t *testing.T) {
	// min x1 + x2 s.t. x1 + x2 = 1, x1 >= 0.3, x2 >= 0.2
	p := &Problem{
		C:     []float64{2, 1},
		Aeq:   [][]float64{{1, 1}},
		Beq:   []float64{1},
		Lower: []float64{0.3, 0.2},
	}
	x, obj, err := new(Solver).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: x1 at its lower bound 0.3, x2 = 0.7, obj = 1.3.
	if math.Abs(x[0]-0.3) > 1e-8 || math.Abs(x[1]-0.7) > 1e-8 {
		t.Fatalf("x = %v, want [0.3 0.7]", x)
	}
	if math.Abs(obj-1.3) > 1e-8 {
		t.Fatalf("obj = %v, want 1.3", obj)
	}
}

func TestInfeasible(t *testing.T) {
	// x1 = 2 with x1 <= 1 is infeasible.
	p := &Problem{
		C:   []float64{1},
		Aeq: [][]float64{{1}},
		Beq: []float64{2},
		Aub: [][]float64{{1}},
		Bub: []float64{1},
	}
	if _, _, err := new(Solver).Solve(p); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleLowerBoundsVsSum(t *testing.T) {
	// x1 + x2 = 1 with both lower bounds 0.6 is infeasible.
	p := &Problem{
		C:     []float64{1, 1},
		Aeq:   [][]float64{{1, 1}},
		Beq:   []float64{1},
		Lower: []float64{0.6, 0.6},
	}
	if _, _, err := new(Solver).Solve(p); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with no upper constraints.
	p := &Problem{C: []float64{-1}}
	if _, _, err := new(Solver).Solve(p); err != ErrUnbounded {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -2  (i.e. x >= 2) -> x = 2.
	p := &Problem{
		C:   []float64{1},
		Aub: [][]float64{{-1}},
		Bub: []float64{-2},
	}
	x, _, err := new(Solver).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-8 {
		t.Fatalf("x = %v, want 2", x)
	}
}

func TestDegenerateTies(t *testing.T) {
	// A classic degenerate LP; Bland's rule must terminate.
	p := &Problem{
		C:   []float64{-0.75, 150, -0.02, 6},
		Aub: [][]float64{{0.25, -60, -0.04, 9}, {0.5, -90, -0.02, 3}, {0, 0, 1, 0}},
		Bub: []float64{0, 0, 1},
	}
	x, obj, err := new(Solver).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj+0.05) > 1e-6 {
		t.Fatalf("obj = %v (x=%v), want -0.05", obj, x)
	}
}

func TestPolicyRowShapeLP(t *testing.T) {
	// The exact LP shape used by the policy generator: one worker row with 3
	// neighbors, latencies t = [1, 2, 10], floor f = 0.05 each; time budget
	// sum(t_m p_m) = T; minimize self-probability p_self = 1 - sum(p_m)
	// i.e. maximize sum p_m.
	tm := []float64{1, 2, 10}
	floor := 0.05
	T := 1.5
	p := &Problem{
		C:     []float64{0, 0, 0, 1}, // minimize p_self
		Aeq:   [][]float64{{tm[0], tm[1], tm[2], 0}, {1, 1, 1, 1}},
		Beq:   []float64{T, 1},
		Lower: []float64{floor, floor, floor, 0},
	}
	x, _, err := new(Solver).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Feasibility checks.
	sum := x[0] + x[1] + x[2] + x[3]
	if math.Abs(sum-1) > 1e-7 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	dot := tm[0]*x[0] + tm[1]*x[1] + tm[2]*x[2]
	if math.Abs(dot-T) > 1e-7 {
		t.Fatalf("time budget = %v, want %v", dot, T)
	}
	for i := 0; i < 3; i++ {
		if x[i] < floor-1e-9 {
			t.Fatalf("x[%d] = %v below floor", i, x[i])
		}
	}
	// The fast neighbor should receive the bulk of the probability mass.
	if x[0] < x[2] {
		t.Fatalf("fast link prob %v < slow link prob %v", x[0], x[2])
	}
}

// TestScaleInvariance is the regression test for the scale-relative pivot
// tolerance: the policy-row LP solved with iteration times expressed at
// wildly different unit scales (seconds, microseconds-and-below, hours-and-
// above) must return the same probabilities. Before row equilibration, the
// absolute eps rejected every pivot in rows scaled below ~1e-10 and the
// solver silently returned a point violating the time-budget equality.
func TestScaleInvariance(t *testing.T) {
	tm := []float64{1, 2, 10}
	solve := func(s float64) []float64 {
		t.Helper()
		floor := 0.05
		p := &Problem{
			C:     []float64{0, 0, 0, 1}, // minimize p_self
			Aeq:   [][]float64{{tm[0] * s, tm[1] * s, tm[2] * s, 0}, {1, 1, 1, 1}},
			Beq:   []float64{1.5 * s, 1},
			Lower: []float64{floor, floor, floor, 0},
		}
		x, _, err := new(Solver).Solve(p)
		if err != nil {
			t.Fatalf("scale %g: %v", s, err)
		}
		sum := x[0] + x[1] + x[2] + x[3]
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("scale %g: probabilities sum to %v", s, sum)
		}
		dot := tm[0]*x[0] + tm[1]*x[1] + tm[2]*x[2]
		if math.Abs(dot-1.5) > 1e-6 {
			t.Fatalf("scale %g: time budget %v, want 1.5 (x=%v)", s, dot, x)
		}
		return x
	}
	ref := solve(1)
	for _, s := range []float64{1e-6, 1e-10, 1e-12, 1e6, 1e12} {
		x := solve(s)
		for i := range ref {
			if math.Abs(x[i]-ref[i]) > 1e-6 {
				t.Fatalf("scale %g: x = %v, want %v", s, x, ref)
			}
		}
	}
}

// TestScaleInvarianceInequality pins the slack-column handling: row
// equilibration must not divide the slack coefficient, or a large-scale
// inequality's slack falls below the pivot tolerance and the non-binding
// constraint is silently forced binding (min x s.t. 1e12·x <= 1e13,
// x >= 1 returned x=10 instead of 1).
func TestScaleInvarianceInequality(t *testing.T) {
	for _, s := range []float64{1, 1e-12, 1e12} {
		p := &Problem{
			C:     []float64{1},
			Aub:   [][]float64{{s}},
			Bub:   []float64{10 * s},
			Lower: []float64{1},
		}
		x, _, err := new(Solver).Solve(p)
		if err != nil {
			t.Fatalf("scale %g: %v", s, err)
		}
		if math.Abs(x[0]-1) > 1e-6 {
			t.Fatalf("scale %g: x = %v, want 1 (inequality wrongly binding)", s, x)
		}
	}
}

func TestRandomFeasibilityProperty(t *testing.T) {
	// Property: on random feasible problems, the solution satisfies all
	// constraints within tolerance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		// Random point z >= 0 gives a guaranteed-feasible constraint set.
		z := make([]float64, n)
		for i := range z {
			z[i] = rng.Float64() * 3
		}
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		// One equality through z, two inequalities loose around z.
		aeq := make([]float64, n)
		beq := 0.0
		for i := range aeq {
			aeq[i] = rng.NormFloat64()
			beq += aeq[i] * z[i]
		}
		aub := make([][]float64, 2)
		bub := make([]float64, 2)
		for k := range aub {
			aub[k] = make([]float64, n)
			dot := 0.0
			for i := range aub[k] {
				aub[k][i] = rng.NormFloat64()
				dot += aub[k][i] * z[i]
			}
			bub[k] = dot + rng.Float64() // slack
		}
		// Bound the feasible region so the problem cannot be unbounded.
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		aub = append(aub, ones)
		bub = append(bub, 100)

		x, _, err := new(Solver).Solve(&Problem{C: c, Aeq: [][]float64{aeq}, Beq: []float64{beq}, Aub: aub, Bub: bub})
		if err != nil {
			return false
		}
		dotEq := 0.0
		for i := range x {
			if x[i] < -1e-7 {
				return false
			}
			dotEq += aeq[i] * x[i]
		}
		if math.Abs(dotEq-beq) > 1e-6 {
			return false
		}
		for k := range aub {
			dot := 0.0
			for i := range x {
				dot += aub[k][i] * x[i]
			}
			if dot > bub[k]+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOptimalityAgainstVertexEnumeration2D(t *testing.T) {
	// For 2-variable problems with box + one equality we can check by a fine
	// grid that no feasible point beats the solver's objective.
	p := &Problem{
		C:     []float64{3, -1},
		Aeq:   [][]float64{{1, 1}},
		Beq:   []float64{1},
		Lower: []float64{0.1, 0.1},
	}
	x, obj, err := new(Solver).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0.1; a <= 0.9; a += 0.001 {
		b := 1 - a
		if b < 0.1 {
			continue
		}
		if v := 3*a - b; v < obj-1e-6 {
			t.Fatalf("grid point (%v,%v) obj %v beats solver %v (x=%v)", a, b, v, obj, x)
		}
	}
}

// randomProblem draws a small LP of random shape: 1–5 variables, up to two
// equalities and three inequalities, with or without lower bounds. Some
// draws are infeasible or unbounded, which exercises the error paths.
func randomProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(5)
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	p := &Problem{C: vec()}
	for k := rng.Intn(3); k > 0; k-- {
		p.Aeq = append(p.Aeq, vec())
		p.Beq = append(p.Beq, rng.NormFloat64())
	}
	for k := rng.Intn(4); k > 0; k-- {
		p.Aub = append(p.Aub, vec())
		p.Bub = append(p.Bub, rng.NormFloat64()+1)
	}
	if rng.Intn(2) == 0 {
		p.Lower = make([]float64, n)
		for i := range p.Lower {
			p.Lower[i] = rng.Float64() * 0.1
		}
	}
	return p
}

// TestSolverReuseMatchesFresh checks that a Solver's workspace carries no
// state between calls: one Solver run over a stream of differently shaped
// problems returns, bit for bit, what a fresh Solver returns for each.
func TestSolverReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused Solver
	for k := 0; k < 500; k++ {
		p := randomProblem(rng)
		x, obj, err := reused.Solve(p)
		wx, wobj, werr := new(Solver).Solve(p)
		if err != werr || obj != wobj || len(x) != len(wx) {
			t.Fatalf("problem %d: reused (%v, %v, %v), fresh (%v, %v, %v)", k, x, obj, err, wx, wobj, werr)
		}
		for i := range x {
			if x[i] != wx[i] {
				t.Fatalf("problem %d: reused x = %v, fresh %v", k, x, wx)
			}
		}
	}
}
