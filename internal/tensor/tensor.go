// Package tensor implements the small dense float64 kernels the MLP in
// internal/nn runs its forward and backward pass on.
//
// Tensors are row-major vectors and matrices. Every kernel writes into a
// caller-owned destination ("Into"), which the caller sizes once and reuses
// across batches; each kernel's comment says whether dst may alias an
// operand. Large MatMuls shard row panels across a persistent worker pool
// sized to runtime.NumCPU() (see SetParallelism); sharding never changes
// arithmetic order, so parallel results are bitwise identical to serial
// ones.
package tensor

import (
	"fmt"
	"math/rand"
)

// Tensor is a dense, row-major float64 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", s))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// Randn returns a tensor with entries drawn from N(0, std²) using rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Cols returns the second dimension, or 1 if rank < 2.
func (t *Tensor) Cols() int {
	if len(t.Shape) < 2 {
		return 1
	}
	return t.Shape[1]
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

func checkMatMulShapes(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	m, k, n = a.Shape[0], a.Shape[1], b.Shape[1]
	if k != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, b.Shape[0]))
	}
	return m, k, n
}

// MatMulInto computes a@b into dst, which must have shape (a rows, b cols)
// and must not alias a or b. dst is overwritten, not accumulated into.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, _, n := checkMatMulShapes(a, b)
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	dst.Zero()
	matMulInto(dst, a, b)
	return dst
}

// TransposeInto writes the transpose of rank-2 a into dst, which must have
// shape (a cols, a rows) and must not alias a.
func TransposeInto(dst, a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: TransposeInto requires rank-2 operand")
	}
	if dst.Rank() != 2 || dst.Shape[0] != a.Shape[1] || dst.Shape[1] != a.Shape[0] {
		panic(fmt.Sprintf("tensor: TransposeInto dst shape %v for operand %v", dst.Shape, a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return dst
}

// ArgMaxRow returns the index of the maximum element of row i (rank-2).
func (t *Tensor) ArgMaxRow(i int) int {
	c := t.Cols()
	row := t.Data[i*c : (i+1)*c]
	best, bv := 0, row[0]
	for j, v := range row {
		if v > bv {
			best, bv = j, v
		}
	}
	return best
}

// AddRowVectorInto writes a + v (v broadcast over rows) into dst (same
// element count as a). dst may alias a.
func AddRowVectorInto(dst, a, v *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	if v.Len() != n {
		panic(fmt.Sprintf("tensor: AddRowVector length %d vs cols %d", v.Len(), n))
	}
	if len(dst.Data) != len(a.Data) {
		panic(fmt.Sprintf("tensor: AddRowVectorInto dst length %d, want %d", len(dst.Data), len(a.Data)))
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst.Data[i*n+j] = a.Data[i*n+j] + v.Data[j]
		}
	}
	return dst
}

// SumRowsInto writes the column-wise sums of rank-2 a into vector dst
// (length = a cols), overwriting it. dst must not alias a.
func SumRowsInto(dst, a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	if dst.Len() != n {
		panic(fmt.Sprintf("tensor: SumRowsInto dst length %d, want %d", dst.Len(), n))
	}
	dst.Zero()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst.Data[j] += a.Data[i*n+j]
		}
	}
	return dst
}
