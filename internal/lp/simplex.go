// Package lp implements a small, self-contained two-phase primal simplex
// solver for linear programs in the form
//
//	minimize    cᵀx
//	subject to  Aeq x  = beq
//	            Aub x <= bub
//	            x >= lower   (per-variable lower bounds)
//
// It exists because the communication-policy generator (Algorithm 3 of the
// paper, Eq. 14) solves one linear program per worker row per candidate
// (ρ, t̄) pair, and no external solver is available. Bland's rule is used for
// pivot selection so the method cannot cycle.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Problem is a linear program. All rows of Aeq/Aub must have len(C) columns.
// Lower may be nil (all zeros).
type Problem struct {
	C     []float64
	Aeq   [][]float64
	Beq   []float64
	Aub   [][]float64
	Bub   []float64
	Lower []float64
}

// ErrInfeasible is returned when the constraint set is empty.
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded is returned when the objective is unbounded below.
var ErrUnbounded = errors.New("lp: unbounded")

// eps is the pivot/optimality tolerance of the simplex iterations. It is
// applied to an equilibrated tableau: Solve rescales every constraint row
// (and the objective) to unit max-magnitude before iterating, so the
// absolute comparison is effectively relative to each row's scale. Without
// that, rows whose coefficients sit far below eps — e.g. iteration times
// recorded in microseconds — had every pivot candidate rejected and were
// silently dropped from the solution.
const eps = 1e-9

// Solver solves linear programs, reusing one workspace (tableau, basis,
// cost rows and result) across calls, so a caller that solves many small
// problems allocates only for a problem larger than every earlier one.
// The zero value is ready to use. A Solver is not safe for concurrent use.
type Solver struct {
	rows   [][]float64 // tableau rows, views into cells
	cells  []float64
	basis  []int
	c      []float64 // normalized objective over the standard-form columns
	phase  []float64 // the current phase's objective over all tableau columns
	lower  []float64 // zero lower bounds for a Problem without Lower
	y, x   []float64 // standard-form and original-variable solutions
	nCols  int       // standard-form columns: originals + inequality slacks
	nTotal int       // tableau columns before the rhs: nCols + artificials
}

// Solve returns an optimal x and the objective value cᵀx. x is the
// Solver's own buffer: it stays valid only until the next call.
func (s *Solver) Solve(p *Problem) ([]float64, float64, error) {
	n := len(p.C)
	if n == 0 {
		return nil, 0, errors.New("lp: empty problem")
	}
	for _, row := range p.Aeq {
		if len(row) != n {
			return nil, 0, fmt.Errorf("lp: Aeq row has %d cols, want %d", len(row), n)
		}
	}
	for _, row := range p.Aub {
		if len(row) != n {
			return nil, 0, fmt.Errorf("lp: Aub row has %d cols, want %d", len(row), n)
		}
	}
	if len(p.Beq) != len(p.Aeq) || len(p.Bub) != len(p.Aub) {
		return nil, 0, errors.New("lp: rhs length mismatch")
	}

	// Shift lower bounds: x = y + lower, y >= 0.
	lower := p.Lower
	if lower == nil {
		s.lower = zeroed(s.lower, n)
		lower = s.lower
	} else if len(lower) != n {
		return nil, 0, errors.New("lp: Lower length mismatch")
	}

	mEq, mUb := len(p.Aeq), len(p.Aub)
	m := mEq + mUb
	// Standard form: A y (+ slack) = b, y >= 0. Columns: n original + mUb
	// slacks, then one phase-1 artificial per row, then the rhs.
	cols := n + mUb
	s.layout(m, cols)
	rhs := s.nTotal
	for i := 0; i < mEq; i++ {
		r := s.rows[i]
		copy(r, p.Aeq[i])
		r[rhs] = p.Beq[i]
		for j := 0; j < n; j++ {
			r[rhs] -= p.Aeq[i][j] * lower[j]
		}
	}
	for i := 0; i < mUb; i++ {
		r := s.rows[mEq+i]
		copy(r, p.Aub[i])
		r[n+i] = 1 // slack
		r[rhs] = p.Bub[i]
		for j := 0; j < n; j++ {
			r[rhs] -= p.Aub[i][j] * lower[j]
		}
	}
	// Make all b >= 0 by row negation (flips slack signs too, which is fine:
	// the slack then acts as a surplus variable and phase 1 restores
	// feasibility with an artificial).
	for _, r := range s.rows {
		if r[rhs] < 0 {
			for j := 0; j < cols; j++ {
				r[j] = -r[j]
			}
			r[rhs] = -r[rhs]
		}
	}
	// Row equilibration: divide each row's original-variable coefficients
	// (and its rhs) by their largest magnitude, so the simplex tolerances
	// act relative to every row's scale. Positive row scaling preserves
	// the feasible set and the optimal vertex exactly. Slack columns are
	// deliberately left at ±1: dividing them too would shrink a large-
	// scale inequality row's slack coefficient below the pivot tolerance,
	// locking the slack out of the basis and silently forcing the
	// constraint binding. Leaving the coefficient alone just rescales the
	// slack variable (slack' = slack/s ≥ 0), which is equally exact.
	for _, r := range s.rows {
		sc := 0.0
		for j := 0; j < n; j++ {
			if v := math.Abs(r[j]); v > sc {
				sc = v
			}
		}
		if sc > 0 && sc != 1 {
			for j := 0; j < n; j++ {
				r[j] /= sc
			}
			r[rhs] /= sc
		}
	}

	c := s.c
	copy(c, p.C)
	// Objective normalization: argmin is invariant under positive scaling,
	// and a unit-magnitude objective keeps the reduced-cost tolerance
	// meaningful for costs recorded at extreme scales.
	cs := 0.0
	for _, v := range c {
		if m := math.Abs(v); m > cs {
			cs = m
		}
	}
	if cs > 0 && cs != 1 {
		for j := range c {
			c[j] /= cs
		}
	}

	y, err := s.twoPhase()
	if err != nil {
		return nil, 0, err
	}
	s.x = grow(s.x, n)
	x := s.x
	obj := 0.0
	for j := 0; j < n; j++ {
		x[j] = y[j] + lower[j]
		obj += p.C[j] * x[j]
	}
	return x, obj, nil
}

// layout sizes the workspace for m rows and cols standard-form columns and
// zeroes it: each row is cols coefficients, m artificials (the row's own
// set to 1 and basic) and the rhs.
func (s *Solver) layout(m, cols int) {
	s.nCols, s.nTotal = cols, cols+m
	width := s.nTotal + 1
	s.cells = zeroed(s.cells, m*width)
	if cap(s.rows) < m {
		s.rows = make([][]float64, m)
	}
	s.rows = s.rows[:m]
	s.basis = growInts(s.basis, m)
	for i := range s.rows {
		s.rows[i] = s.cells[i*width : (i+1)*width : (i+1)*width]
		s.rows[i][cols+i] = 1
		s.basis[i] = cols + i
	}
	s.c = zeroed(s.c, cols)
	s.phase = grow(s.phase, s.nTotal)
	s.y = grow(s.y, cols)
}

// twoPhase solves min cᵀy s.t. Ay=b, y>=0, b>=0 via phase-1 artificials,
// on the tableau layout has set up.
func (s *Solver) twoPhase() ([]float64, error) {
	n, total, t := s.nCols, s.nTotal, s.rows
	if len(t) == 0 {
		// No constraints: the minimum is at y=0 unless some cost is
		// negative, in which case the problem is unbounded below.
		for _, cj := range s.c {
			if cj < -eps {
				return nil, ErrUnbounded
			}
		}
		return zeroed(s.y, n), nil
	}

	// Phase 1: minimize sum of artificials.
	phase1 := s.phase
	for j := range phase1 {
		phase1[j] = 0
		if j >= n {
			phase1[j] = 1
		}
	}
	if obj := simplexIterate(t, s.basis, phase1, total); obj > eps {
		return nil, ErrInfeasible
	}
	// Drive remaining artificials out of the basis where possible. A row
	// with no usable pivot is redundant; its artificial stays basic at 0.
	for i, bj := range s.basis {
		if bj >= n {
			for j := 0; j < n; j++ {
				if math.Abs(t[i][j]) > eps {
					pivot(t, s.basis, i, j, total)
					break
				}
			}
		}
	}

	// Phase 2: original objective; artificial columns are forbidden by
	// giving them a huge cost (they are at value 0 and stay there).
	phase2 := s.phase
	copy(phase2, s.c)
	for j := n; j < total; j++ {
		phase2[j] = 1e18
	}
	obj := simplexIterate(t, s.basis, phase2, total)
	if math.IsInf(obj, -1) {
		return nil, ErrUnbounded
	}
	y := zeroed(s.y, n)
	for i, bj := range s.basis {
		if bj < n {
			y[bj] = t[i][total]
		}
	}
	return y, nil
}

// simplexIterate runs primal simplex with Bland's rule on tableau t with the
// given objective, returning the final objective value (or -Inf if
// unbounded). basis is updated in place.
func simplexIterate(t [][]float64, basis []int, c []float64, rhsCol int) float64 {
	m := len(t)
	for iter := 0; iter < 10000; iter++ {
		// Reduced costs: r_j = c_j - c_Bᵀ B⁻¹ A_j. The tableau is kept in
		// canonical form, so r_j = c_j - Σ_i c_basis[i] * t[i][j].
		entering := -1
		for j := 0; j < rhsCol; j++ {
			r := c[j]
			for i := 0; i < m; i++ {
				r -= c[basis[i]] * t[i][j]
			}
			if r < -eps {
				entering = j // Bland: first improving column
				break
			}
		}
		if entering == -1 {
			obj := 0.0
			for i := 0; i < m; i++ {
				obj += c[basis[i]] * t[i][rhsCol]
			}
			return obj
		}
		// Ratio test with Bland tie-break on basis index.
		leaving := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][entering] > eps {
				ratio := t[i][rhsCol] / t[i][entering]
				if ratio < best-eps || (math.Abs(ratio-best) <= eps && (leaving == -1 || basis[i] < basis[leaving])) {
					best = ratio
					leaving = i
				}
			}
		}
		if leaving == -1 {
			return math.Inf(-1)
		}
		pivot(t, basis, leaving, entering, rhsCol)
	}
	// Iteration cap exceeded; treat current point as optimal enough.
	obj := 0.0
	for i := 0; i < m; i++ {
		obj += c[basis[i]] * t[i][rhsCol]
	}
	return obj
}

func pivot(t [][]float64, basis []int, row, col, rhsCol int) {
	pv := t[row][col]
	for j := 0; j <= rhsCol; j++ {
		t[row][j] /= pv
	}
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j <= rhsCol; j++ {
			t[i][j] -= f * t[row][j]
		}
	}
	basis[row] = col
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func zeroed(s []float64, n int) []float64 {
	s = grow(s, n)
	clear(s)
	return s
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
