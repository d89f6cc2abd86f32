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
	// Algorithm 3. Zero values default to 10 and 10.
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
	return buildYWithProbs(p, adj, alpha, rho, pg)
}

// buildYWithProbs is Eq. (22) with explicit global-step probabilities.
// γ_{i,m} = (d_im+d_mi)/(2 p_im); terms with p_im = 0 contribute nothing
// (the selection event has probability zero).
func buildYWithProbs(p [][]float64, adj [][]bool, alpha, rho float64, pg []float64) *linalg.Matrix {
	ar := alpha * rho
	gamma := func(i, j int) float64 {
		d := 0.0
		if adj[i][j] {
			d++
		}
		if adj[j][i] {
			d++
		}
		return d / (2 * p[i][j])
	}
	return buildYWeighted(p, adj, func(i, j int) float64 { return ar * gamma(i, j) }, pg)
}

// buildYWeighted evaluates E[(D^k)ᵀD^k] for the generic update
// D^k = I + w(i,m)·e_i(e_m-e_i)ᵀ: with w = αργ this is Eq. (22); with
// w = 1/2 it is the averaging extension. In terms of w the entries are
// y_im = Σ_{sides} pg·p·(w - w²) and
// y_ii = 1 - 2 Σ_m pg_i p_im w_im + Σ_m Σ_{sides} pg·p·w².
func buildYWeighted(p [][]float64, adj [][]bool, w func(i, j int) float64, pg []float64) *linalg.Matrix {
	m := len(p)
	y := linalg.NewMatrix(m)
	for i := 0; i < m; i++ {
		diag := 1.0
		for j := 0; j < m; j++ {
			if j == i {
				continue
			}
			var first, second float64
			if adj[i][j] && p[i][j] > 0 {
				wij := w(i, j)
				first += pg[i] * p[i][j] * wij
				second += pg[i] * p[i][j] * wij * wij
				// Diagonal first-order term covers only i's own pulls.
				diag -= 2 * pg[i] * p[i][j] * wij
			}
			if adj[j][i] && p[j][i] > 0 {
				wji := w(j, i)
				first += pg[j] * p[j][i] * wji
				second += pg[j] * p[j][i] * wji * wji
			}
			y.Set(i, j, first-second)
			diag += second
		}
		y.Set(i, i, diag)
	}
	return y
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

// solveRows solves the Eq. (14) LP independently for every worker row given
// (ρ, t̄): minimize p_ii subject to Σ_m t_im p_im = M·t̄,
// p_im ≥ αρ(d_im+d_mi) for neighbors (or a tiny positivity floor when
// averaging=true, per Section III-D), probabilities sum to 1.
func solveRows(times [][]float64, adj [][]bool, alpha, rho, tbar float64, averaging bool) ([][]float64, error) {
	m := len(times)
	p := make([][]float64, m)
	floorEps := 1e-9 // Eq. (11) is strict; keep entries strictly above floor
	for i := 0; i < m; i++ {
		var nbrs []int
		for j := 0; j < m; j++ {
			if i != j && adj[i][j] {
				nbrs = append(nbrs, j)
			}
		}
		n := len(nbrs)
		if n == 0 {
			row := make([]float64, m)
			row[i] = 1
			p[i] = row
			continue
		}
		// Variables: p_i,nbrs[0..n-1], then p_ii.
		c := make([]float64, n+1)
		c[n] = 1
		timeRow := make([]float64, n+1)
		oneRow := make([]float64, n+1)
		lower := make([]float64, n+1)
		for k, j := range nbrs {
			timeRow[k] = times[i][j]
			oneRow[k] = 1
			if averaging {
				lower[k] = 1e-4 // Section III-D: only positivity is needed
			} else {
				lower[k] = 2*alpha*rho + floorEps
			}
		}
		oneRow[n] = 1
		x, _, err := lp.Solve(&lp.Problem{
			C:     c,
			Aeq:   [][]float64{timeRow, oneRow},
			Beq:   []float64{float64(m) * tbar, 1},
			Lower: lower,
		})
		if err != nil {
			return nil, err
		}
		row := make([]float64, m)
		for k, j := range nbrs {
			row[j] = x[k]
		}
		row[i] = x[n]
		p[i] = row
	}
	return p, nil
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
		k = 10
	}
	r := in.InnerRounds
	if r <= 0 {
		r = 10
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
	// Log-spaced grid over (0, ur]: under extreme heterogeneity (one link
	// slowed 100x) the feasible ρ range collapses toward zero, and a
	// uniform grid like the paper's pseudo-code would need a very large K
	// to land inside it; geometric spacing covers three decades with the
	// same K.
	if in.AveragingBlend {
		// Section III-D: the blend weight is fixed at 1/2, so ρ plays no
		// role in the update and a single inner search suffices.
		best, err := innerLoop(in, 0, r, eps)
		if err != nil {
			return nil, err
		}
		return best, nil
	}
	const span = 1000.0
	var best *Policy
	for ki := 0; ki < k; ki++ {
		frac := float64(ki) / float64(k-1)
		if k == 1 {
			frac = 1
		}
		rho := ur / math.Pow(span, 1-frac)
		cand, err := innerLoop(in, rho, r, eps)
		if err != nil {
			continue
		}
		if best == nil || cand.TConvergence < best.TConvergence {
			best = cand
		}
	}
	if best == nil {
		return nil, ErrNoFeasiblePolicy
	}
	return best, nil
}

// innerLoop is Algorithm 3's INNERLOOP: grid over t̄ ∈ [L, U].
func innerLoop(in Input, rho float64, r int, eps float64) (*Policy, error) {
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
		return nil, err
	}
	delta := (hi - lo) / float64(r)
	var best *Policy
	for ri := 1; ri <= r; ri++ {
		tbar := lo + float64(ri)*delta
		p, err := solveRows(in.Times, in.Adj, in.Alpha, rho, tbar, in.AveragingBlend)
		if err != nil {
			continue
		}
		// For a feasible P all workers share t_i = M·t̄, so p_i = 1/M.
		pg := make([]float64, len(p))
		for i := range pg {
			pg[i] = 1 / float64(len(p))
		}
		var y *linalg.Matrix
		if in.AveragingBlend {
			y = buildYWeighted(p, in.Adj, func(i, j int) float64 { return 0.5 }, pg)
		} else {
			y = buildYWithProbs(p, in.Adj, in.Alpha, rho, pg)
		}
		l2, err := linalg.SecondLargestEigenvalue(y)
		if err != nil || l2 >= 1 || l2 <= 0 {
			continue
		}
		tconv := tbar * math.Log(eps) / math.Log(l2)
		if best == nil || tconv < best.TConvergence {
			best = &Policy{P: p, Rho: rho, Lambda2: l2, TBar: tbar, TConvergence: tconv}
		}
	}
	if best == nil {
		return nil, ErrNoFeasiblePolicy
	}
	return best, nil
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
