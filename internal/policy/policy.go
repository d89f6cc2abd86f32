// Package policy implements NetMax's communication-policy generation
// (Section III-C, Algorithm 3) and the spectral machinery behind it
// (Section IV, Eq. 20-22).
//
// Given the iteration-time matrix t[i][m] collected by the Network Monitor,
// Generate searches K values of the consensus weight ρ and, for each, R
// values of the target mean iteration time t̄; every (ρ, t̄) candidate is
// turned into a concrete probability matrix P by solving one small linear
// program per worker row (Eq. 14), scored by the predicted convergence time
// T = t̄ · ln ε / ln λ₂(Y_P), and the best-scoring policy is returned.
package policy

import (
	"errors"
	"fmt"
	"math"

	"netmax/internal/linalg"
	"netmax/internal/lp"
)

// Input bundles everything Algorithm 3 needs.
type Input struct {
	// Times[i][m] is the measured iteration time of worker i when pulling
	// from neighbor m (seconds). Entries for non-neighbors are ignored.
	Times [][]float64
	// Adj is the communication graph d[i][m].
	Adj [][]bool
	// Alpha is the SGD learning rate α.
	Alpha float64
	// OuterRounds (K) and InnerRounds (R) are the grid sizes of
	// Algorithm 3. Zero values select DefaultRounds.
	OuterRounds, InnerRounds int
	// Epsilon is the convergence target ε of Eq. (9); defaults to 1e-2.
	Epsilon float64
	// AveragingBlend selects the Section III-D extension mode: the worker
	// update is AD-PSGD's fixed averaging x_i ← (x_i+x_j)/2 instead of the
	// 1/p-scaled consensus blend. The positivity constraint on Y's entries
	// (the paper's replacement for Eq. 11) then only requires p_im > 0, so
	// the row LPs use a tiny floor instead of 2αρ, and ρ plays no role in
	// the update (a single outer iteration is searched).
	AveragingBlend bool
}

// Policy is the output of Algorithm 3.
type Policy struct {
	// P[i][m] is the probability that worker i selects neighbor m
	// (P[i][i] is the probability of skipping communication).
	P [][]float64
	// Rho is the consensus weight ρ shipped to the workers with P.
	Rho float64
	// Lambda2 is the second-largest eigenvalue of Y_P (Theorem 1).
	Lambda2 float64
	// TBar is the global mean iteration time of the chosen candidate.
	TBar float64
	// TConvergence is the predicted convergence time t̄·ln ε/ln λ₂ used as
	// the selection objective (Eq. 8).
	TConvergence float64
}

// DefaultRounds is Algorithm 3's grid size K = R when none is given.
const DefaultRounds = 10

// ErrNoFeasiblePolicy is returned when no (ρ, t̄) candidate admits a feasible
// probability matrix; callers should fall back to Uniform.
var ErrNoFeasiblePolicy = errors.New("policy: no feasible policy found")

// MaxDegree returns the largest neighbor count of any node in adj, self
// excluded: the deg_max of the ρ feasibility cap 1/(2α·deg_max).
func MaxDegree(adj [][]bool) int {
	maxDeg := 0
	for i := range adj {
		deg := 0
		for j, ok := range adj[i] {
			if ok && j != i {
				deg++
			}
		}
		maxDeg = max(maxDeg, deg)
	}
	return maxDeg
}

// Uniform returns the uniform neighbor-selection policy used by AD-PSGD and
// GoSGD: every neighbor of i gets probability 1/deg(i), self 0.
func Uniform(adj [][]bool) [][]float64 {
	m := len(adj)
	p := make([][]float64, m)
	for i := range p {
		p[i] = make([]float64, m)
		deg := 0
		for j, ok := range adj[i] {
			if ok && j != i {
				deg++
			}
		}
		if deg == 0 {
			p[i][i] = 1
			continue
		}
		for j, ok := range adj[i] {
			if ok && j != i {
				p[i][j] = 1 / float64(deg)
			}
		}
	}
	return p
}

// AvgIterTimes returns t_i = Σ_m t[i][m]·P[i][m]·d[i][m] (Eq. 2) for every
// worker.
func AvgIterTimes(p [][]float64, times [][]float64, adj [][]bool) []float64 {
	m := len(p)
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j && adj[i][j] {
				out[i] += times[i][j] * p[i][j]
			}
		}
	}
	return out
}

// GlobalStepProbs returns p_i = (1/t_i)/Σ(1/t_m) (Eq. 3): the probability
// that a given global step belongs to worker i. Workers with zero average
// iteration time (isolated or self-only) are treated as inactive.
func GlobalStepProbs(avgIterTimes []float64) []float64 {
	m := len(avgIterTimes)
	out := make([]float64, m)
	sum := 0.0
	for _, t := range avgIterTimes {
		if t > 0 {
			sum += 1 / t
		}
	}
	if sum == 0 {
		return out
	}
	for i, t := range avgIterTimes {
		if t > 0 {
			out[i] = (1 / t) / sum
		}
	}
	return out
}

// BuildY constructs Y_P = E[(D^k)ᵀD^k] per Eq. (22) for an arbitrary policy
// (not only feasible ones), using the Eq. (2)/(3) global-step probabilities
// derived from the measured iteration times.
func BuildY(p [][]float64, times [][]float64, adj [][]bool, alpha, rho float64) *linalg.Matrix {
	pg := GlobalStepProbs(AvgIterTimes(p, times, adj))
	y := linalg.NewMatrix(len(p))
	buildY(y, p, adj, alpha*rho, false, pg)
	return y
}

// buildY writes E[(D^k)ᵀD^k] for the update D^k = I + w_im·e_i(e_m-e_i)ᵀ
// into y, overwriting every entry, given the global-step probabilities pg.
// The weight is w_im = αρ·γ_im with γ_im = (d_im+d_mi)/(2 p_im), which is
// Eq. (22), or w_im = 1/2 under averaging (the Section III-D extension).
// Terms with p_im = 0 contribute nothing (the selection event has
// probability zero). In terms of w the entries are
// y_im = Σ_{sides} pg·p·(w - w²) and
// y_ii = 1 - 2 Σ_m pg_i p_im w_im + Σ_m Σ_{sides} pg·p·w².
func buildY(y *linalg.Matrix, p [][]float64, adj [][]bool, ar float64, averaging bool, pg []float64) {
	m := len(p)
	for i := 0; i < m; i++ {
		diag := 1.0
		for j := 0; j < m; j++ {
			if j == i {
				continue
			}
			// d = d_im + d_mi is the same from both sides.
			d := 0.0
			if adj[i][j] {
				d++
			}
			if adj[j][i] {
				d++
			}
			var first, second float64
			if adj[i][j] && p[i][j] > 0 {
				wij := 0.5
				if !averaging {
					wij = ar * (d / (2 * p[i][j]))
				}
				first += pg[i] * p[i][j] * wij
				second += pg[i] * p[i][j] * wij * wij
				// Diagonal first-order term covers only i's own pulls.
				diag -= 2 * pg[i] * p[i][j] * wij
			}
			if adj[j][i] && p[j][i] > 0 {
				wji := 0.5
				if !averaging {
					wji = ar * (d / (2 * p[j][i]))
				}
				first += pg[j] * p[j][i] * wji
				second += pg[j] * p[j][i] * wji * wji
			}
			y.Set(i, j, first-second)
			diag += second
		}
		y.Set(i, i, diag)
	}
}

// FeasibleRhoInterval returns (Lρ, Uρ] = (0, 0.5/α] per Appendix A.
func FeasibleRhoInterval(alpha float64) (lo, hi float64) {
	return 0, 0.5 / alpha
}

// FeasibleTimeInterval returns [L, U] for t̄ given ρ per Appendix A
// (Eq. 25-28). Returns an error when L > U (no feasible mean time).
func FeasibleTimeInterval(times [][]float64, adj [][]bool, alpha, rho float64) (lo, hi float64, err error) {
	m := len(times)
	lo = 0
	hi = math.Inf(1)
	for i := 0; i < m; i++ {
		li := 0.0
		ui := 0.0
		for j := 0; j < m; j++ {
			if i == j || !adj[i][j] {
				continue
			}
			d := 2.0 // d_im + d_mi on an undirected graph
			li += times[i][j] * d
			if times[i][j] > ui {
				ui = times[i][j]
			}
		}
		li = li * alpha * rho / float64(m)
		ui = ui / float64(m)
		if li > lo {
			lo = li
		}
		if ui < hi {
			hi = ui
		}
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("policy: infeasible time interval [%v, %v]", lo, hi)
	}
	return lo, hi, nil
}

// search is the workspace of one Generate call. The per-row LP invariants
// (neighbor list, cost, time and ones rows) are built once; the LP solver,
// the candidate and best P, Y and the eigen-solver's buffers are reused by
// every (ρ, t̄) candidate of the K×R grid.
type search struct {
	in    Input
	eps   float64
	rows  []rowLP
	lp    lp.Solver
	pg    []float64 // Eq. (3) for a feasible P: every t_i = M·t̄, so p_i = 1/M
	y     *linalg.Matrix
	eig   linalg.Eigen
	p     [][]float64 // the candidate being scored; swapped with best.P when it wins
	best  Policy      // the best candidate so far, once found
	found bool        // whether any candidate was feasible
}

// rowLP is worker i's Eq. (14) LP. Variables: p_i,nbrs[0..n-1], then p_ii.
type rowLP struct {
	nbrs []int
	prob lp.Problem
}

func newSearch(in Input, eps float64) *search {
	m := len(in.Times)
	s := &search{in: in, eps: eps, rows: make([]rowLP, m), pg: make([]float64, m), y: linalg.NewMatrix(m)}
	s.p, s.best.P = newRows(m), newRows(m)
	for i := range s.pg {
		s.pg[i] = 1 / float64(m)
	}
	for i := range s.rows {
		var nbrs []int
		for j := 0; j < m; j++ {
			if i != j && in.Adj[i][j] {
				nbrs = append(nbrs, j)
			}
		}
		n := len(nbrs)
		if n == 0 {
			s.p[i][i], s.best.P[i][i] = 1, 1
			continue
		}
		c := make([]float64, n+1)
		c[n] = 1
		timeRow := make([]float64, n+1)
		oneRow := make([]float64, n+1)
		for k, j := range nbrs {
			timeRow[k] = in.Times[i][j]
			oneRow[k] = 1
		}
		oneRow[n] = 1
		s.rows[i] = rowLP{nbrs: nbrs, prob: lp.Problem{
			C:     c,
			Aeq:   [][]float64{timeRow, oneRow},
			Beq:   []float64{0, 1},
			Lower: make([]float64, n+1),
		}}
	}
	return s
}

func newRows(m int) [][]float64 {
	p := make([][]float64, m)
	for i := range p {
		p[i] = make([]float64, m)
	}
	return p
}

// setFloors sets every row LP's lower bounds for ρ: p_im ≥ 2αρ (strictly,
// per Eq. 11) for neighbors, or a tiny positivity floor in averaging mode
// (Section III-D); p_ii ≥ 0.
func (s *search) setFloors(rho float64) {
	floorEps := 1e-9 // Eq. (11) is strict; keep entries strictly above floor
	for _, r := range s.rows {
		lower := r.prob.Lower
		for k := range r.nbrs {
			if s.in.AveragingBlend {
				lower[k] = 1e-4 // Section III-D: only positivity is needed
			} else {
				lower[k] = 2*s.in.Alpha*rho + floorEps
			}
		}
	}
}

// solveRows solves the Eq. (14) LP independently for every worker row given
// t̄ (ρ enters through setFloors) into s.p: minimize p_ii subject to
// Σ_m t_im p_im = M·t̄, the floors, and probabilities summing to 1.
func (s *search) solveRows(tbar float64) error {
	m := len(s.rows)
	for i, r := range s.rows {
		if len(r.nbrs) == 0 {
			continue // isolated: s.p[i][i] = 1 from newSearch
		}
		r.prob.Beq[0] = float64(m) * tbar
		x, _, err := s.lp.Solve(&r.prob)
		if err != nil {
			return err
		}
		row := s.p[i]
		for k, j := range r.nbrs {
			row[j] = x[k]
		}
		row[i] = x[len(r.nbrs)]
	}
	return nil
}

// Generate runs Algorithm 3 and returns the best feasible policy. When no
// candidate is feasible it returns ErrNoFeasiblePolicy; callers typically
// fall back to Uniform with a mid-range ρ.
func Generate(in Input) (*Policy, error) {
	m := len(in.Times)
	if m == 0 || len(in.Adj) != m {
		return nil, errors.New("policy: times/adjacency size mismatch")
	}
	k := in.OuterRounds
	if k <= 0 {
		k = DefaultRounds
	}
	r := in.InnerRounds
	if r <= 0 {
		r = DefaultRounds
	}
	eps := in.Epsilon
	if eps <= 0 || eps >= 1 {
		eps = 1e-2
	}
	_, ur := FeasibleRhoInterval(in.Alpha)
	// The row floors p_im >= 2αρ must fit within a probability row, which
	// caps ρ at 1/(2α·deg_max) (the paper's Eq. 33 for fully connected
	// graphs). Searching beyond that wastes the whole grid on infeasible
	// candidates, so clamp the upper end with a small safety margin.
	if maxDeg := MaxDegree(in.Adj); maxDeg > 0 {
		if cap := 0.999 / (2 * in.Alpha * float64(maxDeg)); cap < ur {
			ur = cap
		}
	}
	s := newSearch(in, eps)
	// Log-spaced grid over (0, ur]: under extreme heterogeneity (one link
	// slowed 100x) the feasible ρ range collapses toward zero, and a
	// uniform grid like the paper's pseudo-code would need a very large K
	// to land inside it; geometric spacing covers three decades with the
	// same K.
	if in.AveragingBlend {
		// Section III-D: the blend weight is fixed at 1/2, so ρ plays no
		// role in the update and a single inner search suffices.
		if err := s.innerLoop(0, r); err != nil {
			return nil, err
		}
	} else {
		const span = 1000.0
		for ki := 0; ki < k; ki++ {
			frac := float64(ki) / float64(k-1)
			if k == 1 {
				frac = 1
			}
			rho := ur / math.Pow(span, 1-frac)
			_ = s.innerLoop(rho, r) // an infeasible ρ is skipped
		}
	}
	if !s.found {
		return nil, ErrNoFeasiblePolicy
	}
	best := s.best // a copy, so the policy does not keep the workspace alive
	return &best, nil
}

// innerLoop is Algorithm 3's INNERLOOP: grid over t̄ ∈ [L, U]. Each
// candidate replaces s.best when its predicted convergence time is strictly
// lower, so the first of equal candidates wins. It fails only when ρ admits
// no feasible t̄ interval.
func (s *search) innerLoop(rho float64, r int) error {
	in := s.in
	var lo, hi float64
	var err error
	if in.AveragingBlend {
		// Only positivity floors apply, so the lower end of the feasible
		// interval collapses; search from a small positive fraction of U.
		_, hi, err = FeasibleTimeInterval(in.Times, in.Adj, in.Alpha, 0)
		lo = hi / (10 * float64(r))
	} else {
		lo, hi, err = FeasibleTimeInterval(in.Times, in.Adj, in.Alpha, rho)
	}
	if err != nil {
		return err
	}
	s.setFloors(rho)
	delta := (hi - lo) / float64(r)
	for ri := 1; ri <= r; ri++ {
		tbar := lo + float64(ri)*delta
		if err := s.solveRows(tbar); err != nil {
			continue
		}
		buildY(s.y, s.p, in.Adj, in.Alpha*rho, in.AveragingBlend, s.pg)
		l2, err := s.eig.SecondLargest(s.y)
		if err != nil || l2 >= 1 || l2 <= 0 {
			continue
		}
		tconv := tbar * math.Log(s.eps) / math.Log(l2)
		if !s.found || tconv < s.best.TConvergence {
			s.found = true
			s.p, s.best.P = s.best.P, s.p
			s.best.Rho, s.best.Lambda2, s.best.TBar, s.best.TConvergence = rho, l2, tbar, tconv
		}
	}
	return nil
}

// Validate checks the structural feasibility of a policy matrix: rows sum to
// one, entries non-negative, zero where there is no edge.
func Validate(p [][]float64, adj [][]bool) error {
	for i := range p {
		sum := 0.0
		for j, v := range p[i] {
			if v < -1e-9 {
				return fmt.Errorf("policy: negative probability p[%d][%d]=%v", i, j, v)
			}
			if i != j && !adj[i][j] && v > 1e-9 {
				return fmt.Errorf("policy: probability on non-edge p[%d][%d]=%v", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("policy: row %d sums to %v", i, sum)
		}
	}
	return nil
}
