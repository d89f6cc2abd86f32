// Package linalg provides the small dense linear-algebra routines the policy
// generator needs: a symmetric eigen-solver (Householder tridiagonalisation
// followed by Sturm-sequence bisection, Golub & Van Loan's Matrix
// Computations §8.3 and §8.4; LAPACK's dsytrd + dstebz) and the
// stochastic-matrix checks used both by Algorithm 3 and by the tests that
// verify the paper's Theorem 3 invariants.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major square matrix.
type Matrix struct {
	N    int
	Data []float64
}

// NewMatrix returns a zero n x n matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// IsSymmetric reports whether |m - mᵀ| <= tol elementwise.
func (m *Matrix) IsSymmetric(tol float64) bool {
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// IsDoublyStochastic reports whether all rows and columns sum to 1 within tol
// and all entries are >= -tol (Lemma 1 + Lemma 2 of the paper).
func (m *Matrix) IsDoublyStochastic(tol float64) bool {
	for _, v := range m.Data {
		if v < -tol {
			return false
		}
	}
	for i := 0; i < m.N; i++ {
		rs, cs := 0.0, 0.0
		for j := 0; j < m.N; j++ {
			rs += m.At(i, j)
			cs += m.At(j, i)
		}
		if math.Abs(rs-1) > tol || math.Abs(cs-1) > tol {
			return false
		}
	}
	return true
}

// Eigen is the workspace of the eigen-solver: a scratch copy of the input
// and the tridiagonal form it is reduced to. The zero value is ready to use;
// reusing one Eigen across calls of the same size allocates nothing.
type Eigen struct {
	a    []float64 // scratch copy of the input, overwritten by the reduction
	d, e []float64 // T's diagonal and sub-diagonal (e[i] = T[i+1][i])
	v, p []float64 // Householder vector and A·v
}

// SecondLargest returns λ₂ of the symmetric matrix m. The input is not
// modified.
func (w *Eigen) SecondLargest(m *Matrix) (float64, error) {
	if m.N < 2 {
		return 0, fmt.Errorf("linalg: need at least a 2x2 matrix, got %d", m.N)
	}
	if err := w.tridiagonalize(m); err != nil {
		return 0, err
	}
	return w.kthSmallest(m.N - 1), nil
}

// SymmetricEigenvalues returns all eigenvalues of a symmetric matrix in
// descending order: one reduction, then one bisection per eigenvalue. The
// input is not modified.
func SymmetricEigenvalues(m *Matrix) ([]float64, error) {
	var w Eigen
	if err := w.tridiagonalize(m); err != nil {
		return nil, err
	}
	eig := make([]float64, m.N)
	for i := range eig {
		eig[i] = w.kthSmallest(m.N - i)
	}
	return eig, nil
}

// SecondLargestEigenvalue returns λ₂ of a symmetric matrix.
func SecondLargestEigenvalue(m *Matrix) (float64, error) {
	var w Eigen
	return w.SecondLargest(m)
}

// tridiagonalize checks m for symmetry and reduces a copy of it to the
// tridiagonal T = QᵀmQ with n−2 Householder reflections, leaving T's
// diagonal in w.d and its sub-diagonal in w.e. Q is never formed: only the
// eigenvalues are wanted, and T has the same ones as m. A NaN or infinite
// entry is an error: the bisection could never narrow its interval.
func (w *Eigen) tridiagonalize(m *Matrix) error {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("linalg: matrix has a non-finite entry %v", v)
		}
	}
	if !m.IsSymmetric(1e-9) {
		return fmt.Errorf("linalg: matrix is not symmetric")
	}
	n := m.N
	if n == 0 {
		return fmt.Errorf("linalg: empty matrix")
	}
	w.a = grow(w.a, n*n)
	w.d = grow(w.d, n)
	w.e = grow(w.e, n)
	w.v = grow(w.v, n)
	w.p = grow(w.p, n)
	a, d, e := w.a, w.d, w.e
	copy(a, m.Data)
	for k := 0; k < n-2; k++ {
		d[k] = a[k*n+k]
		// Reflect x = a[k+1:, k] onto alpha·e₁; v = x − alpha·e₁.
		sub := n - k - 1
		v, p := w.v[:sub], w.p[:sub]
		scale := 0.0
		for i := range v {
			v[i] = a[(k+1+i)*n+k]
			scale = max(scale, math.Abs(v[i]))
		}
		tail := 0.0
		if scale > 0 {
			for _, x := range v[1:] {
				tail += (x / scale) * (x / scale)
			}
		}
		if tail == 0 {
			e[k] = v[0] // already zero below the sub-diagonal
			continue
		}
		x0 := v[0] / scale
		alpha := -math.Copysign(scale*math.Sqrt(x0*x0+tail), v[0])
		v[0] -= alpha
		vv := v[0] * v[0]
		for _, x := range v[1:] {
			vv += x * x
		}
		beta := 2 / vv
		// A22 ← (I − βvvᵀ) A22 (I − βvvᵀ) = A22 − v·qᵀ − q·vᵀ with
		// p = β·A22·v and q = p − (β/2)(pᵀv)·v.
		pv := 0.0
		for i := range p {
			row := a[(k+1+i)*n+k+1 : (k+2+i)*n]
			s := 0.0
			for j, x := range v {
				s += row[j] * x
			}
			p[i] = beta * s
			pv += p[i] * v[i]
		}
		half := beta / 2 * pv
		for i := range p {
			p[i] -= half * v[i]
		}
		for i := range p {
			row := a[(k+1+i)*n+k+1 : (k+2+i)*n]
			vi, qi := v[i], p[i]
			for j := range row {
				row[j] -= vi*p[j] + qi*v[j]
			}
		}
		e[k] = alpha
	}
	if n >= 2 {
		d[n-2] = a[(n-2)*n+n-2]
		e[n-2] = a[(n-1)*n+n-2]
	}
	d[n-1] = a[n*n-1]
	return nil
}

// kthSmallest returns the k-th smallest (1-based) eigenvalue of the
// tridiagonal in w.d/w.e by bisection on the Sturm count, from the
// Gershgorin interval, until the interval can no longer be halved in
// floating point.
func (w *Eigen) kthSmallest(k int) float64 {
	n := len(w.d)
	d, e := w.d[:n], w.e[:n-1]
	lo, hi := math.Inf(1), math.Inf(-1)
	emax := 0.0
	for i := range d {
		r := 0.0
		if i > 0 {
			r += math.Abs(e[i-1])
		}
		if i < n-1 {
			r += math.Abs(e[i])
			emax = max(emax, e[i]*e[i])
		}
		lo = min(lo, d[i]-r)
		hi = max(hi, d[i]+r)
	}
	// pivmin keeps the Sturm recurrence off zero pivots (LAPACK's PIVMIN).
	pivmin := minNormal * max(1, emax)
	pad := 2*epsilon*max(math.Abs(lo), math.Abs(hi)) + pivmin
	lo, hi = lo-pad, hi+pad
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			return mid
		}
		if sturmCount(d, e, mid, pivmin) >= k {
			hi = mid
		} else {
			lo = mid
		}
	}
}

// sturmCount returns the number of eigenvalues of the symmetric tridiagonal
// (d, e) that are smaller than x: the negative pivots of the LDLᵀ
// factorisation of T − x·I.
func sturmCount(d, e []float64, x, pivmin float64) int {
	count, q := 0, 0.0
	for i := range d {
		if i == 0 {
			q = d[0] - x
		} else {
			q = d[i] - x - e[i-1]*e[i-1]/q
		}
		if math.Abs(q) < pivmin {
			q = -pivmin
		}
		if q < 0 {
			count++
		}
	}
	return count
}

const (
	epsilon   = 0x1p-52   // float64 machine epsilon
	minNormal = 0x1p-1022 // smallest normal float64
)

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
