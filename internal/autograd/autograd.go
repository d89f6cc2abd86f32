// Package autograd implements a minimal reverse-mode automatic
// differentiation engine on top of internal/tensor.
//
// The design is a dynamic tape: every operation on *Value records its parents
// and a backward closure; Backward performs a topological sort from the loss
// node and accumulates gradients. This is the same execution model the paper's
// PyTorch substrate provides, built from scratch because no deep-learning
// framework is available in the target environment (see docs/ARCHITECTURE.md).
//
// Allocation discipline: op outputs, non-leaf gradients and backward-pass
// temporaries are drawn from the tensor arena (tensor.GetPooled) and handed
// back once Backward finishes, so steady-state training reuses the same
// buffers every iteration instead of allocating per op. Two consequences for
// callers:
//
//   - A graph may be backpropagated at most once. After Backward the
//     intermediate nodes' Data and Grad buffers have been recycled (only the
//     root's Data and the leaves' Data/Grad survive); build a fresh graph
//     for another pass — leaf gradients still accumulate across graphs.
//   - Values must not be shared between graphs that are backpropagated
//     separately: the first Backward would recycle buffers the second still
//     needs. Leaves (parameters, constants) are exempt and freely shared.
package autograd

import (
	"fmt"
	"math"

	"netmax/internal/tensor"
)

// Value is a node in the computation graph: a tensor plus (after Backward)
// its gradient with respect to the final scalar output.
type Value struct {
	Data *tensor.Tensor
	Grad *tensor.Tensor

	requiresGrad bool
	pooled       bool // Data is arena-owned: recycle it after Backward
	parents      []*Value
	backward     func() // accumulates into parents' Grad using v.Grad
	label        string
}

// NewLeaf wraps t as a graph leaf. If requiresGrad, Backward will populate
// its Grad.
func NewLeaf(t *tensor.Tensor, requiresGrad bool) *Value {
	return &Value{Data: t, requiresGrad: requiresGrad, label: "leaf"}
}

// Constant wraps t as a leaf that does not require gradients.
func Constant(t *tensor.Tensor) *Value { return NewLeaf(t, false) }

// newPooledOp creates an op node whose output is drawn from the tensor
// arena; Backward recycles its Data once the sweep completes.
func newPooledOp(label string, data *tensor.Tensor, parents ...*Value) *Value {
	rg := false
	for _, p := range parents {
		if p.requiresGrad {
			rg = true
			break
		}
	}
	return &Value{Data: data, requiresGrad: rg, parents: parents, label: label, pooled: true}
}

func (v *Value) ensureGrad() {
	if v.Grad == nil {
		if v.parents == nil {
			// Leaf gradients persist across iterations (the optimizer reads
			// them after Backward), so they are not arena-owned.
			v.Grad = tensor.New(v.Data.Shape...)
		} else {
			// Must be zero-filled: accumulate adds into it.
			v.Grad = tensor.GetPooled(v.Data.Shape...)
		}
	}
}

// accumulate adds g into p.Grad if p participates in the graph.
func accumulate(p *Value, g *tensor.Tensor) {
	if !p.requiresGrad {
		return
	}
	p.ensureGrad()
	p.Grad.AddInPlace(g)
}

// accumTemp accumulates an arena-owned temporary into p's gradient and
// immediately returns the buffer to the arena.
func accumTemp(p *Value, g *tensor.Tensor) {
	accumulate(p, g)
	tensor.Recycle(g)
}

// Add returns a + b.
func Add(a, b *Value) *Value {
	out := newPooledOp("add", tensor.AddInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, b.Data), a, b)
	out.backward = func() {
		accumulate(a, out.Grad)
		accumulate(b, out.Grad)
	}
	return out
}

// Sub returns a - b.
func Sub(a, b *Value) *Value {
	out := newPooledOp("sub", tensor.SubInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, b.Data), a, b)
	out.backward = func() {
		accumulate(a, out.Grad)
		if b.requiresGrad {
			accumTemp(b, tensor.ScaleInto(tensor.GetPooledDirty(out.Grad.Shape...), out.Grad, -1))
		}
	}
	return out
}

// Mul returns the elementwise product a*b.
func Mul(a, b *Value) *Value {
	out := newPooledOp("mul", tensor.MulInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, b.Data), a, b)
	out.backward = func() {
		if a.requiresGrad {
			accumTemp(a, tensor.MulInto(tensor.GetPooledDirty(out.Grad.Shape...), out.Grad, b.Data))
		}
		if b.requiresGrad {
			accumTemp(b, tensor.MulInto(tensor.GetPooledDirty(out.Grad.Shape...), out.Grad, a.Data))
		}
	}
	return out
}

// Scale returns a*s for scalar s.
func Scale(a *Value, s float64) *Value {
	out := newPooledOp("scale", tensor.ScaleInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, s), a)
	out.backward = func() {
		if a.requiresGrad {
			accumTemp(a, tensor.ScaleInto(tensor.GetPooledDirty(out.Grad.Shape...), out.Grad, s))
		}
	}
	return out
}

// MatMul returns a@b for rank-2 values.
func MatMul(a, b *Value) *Value {
	out := newPooledOp("matmul", tensor.MatMulInto(tensor.GetPooledDirty(a.Data.Shape[0], b.Data.Shape[1]), a.Data, b.Data), a, b)
	out.backward = func() {
		// dA = dOut @ B^T ; dB = A^T @ dOut
		if a.requiresGrad {
			bt := tensor.TransposeInto(tensor.GetPooledDirty(b.Data.Shape[1], b.Data.Shape[0]), b.Data)
			accumTemp(a, tensor.MatMulInto(tensor.GetPooledDirty(a.Data.Shape...), out.Grad, bt))
			tensor.Recycle(bt)
		}
		if b.requiresGrad {
			at := tensor.TransposeInto(tensor.GetPooledDirty(a.Data.Shape[1], a.Data.Shape[0]), a.Data)
			accumTemp(b, tensor.MatMulInto(tensor.GetPooledDirty(b.Data.Shape...), at, out.Grad))
			tensor.Recycle(at)
		}
	}
	return out
}

// AddRowVector adds a bias vector v to every row of rank-2 a.
func AddRowVector(a, v *Value) *Value {
	out := newPooledOp("addrow", tensor.AddRowVectorInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, v.Data), a, v)
	out.backward = func() {
		accumulate(a, out.Grad)
		if v.requiresGrad {
			accumTemp(v, tensor.SumRowsInto(tensor.GetPooledDirty(v.Data.Len()), out.Grad))
		}
	}
	return out
}

// ReLU returns max(x, 0) elementwise.
func ReLU(a *Value) *Value {
	out := newPooledOp("relu", tensor.ApplyInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	}), a)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		// Zero-filled: only the positive positions are written below.
		g := tensor.GetPooled(a.Data.Shape...)
		for i, x := range a.Data.Data {
			if x > 0 {
				g.Data[i] = out.Grad.Data[i]
			}
		}
		accumTemp(a, g)
	}
	return out
}

// Tanh returns tanh(x) elementwise.
func Tanh(a *Value) *Value {
	out := newPooledOp("tanh", tensor.ApplyInto(tensor.GetPooledDirty(a.Data.Shape...), a.Data, math.Tanh), a)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		g := tensor.GetPooledDirty(a.Data.Shape...)
		for i, y := range out.Data.Data {
			g.Data[i] = out.Grad.Data[i] * (1 - y*y)
		}
		accumTemp(a, g)
	}
	return out
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of rank-2 logits
// against integer class labels, with a numerically stable fused
// softmax+log+NLL. It returns a scalar value.
func SoftmaxCrossEntropy(logits *Value, labels []int) *Value {
	m, n := logits.Data.Shape[0], logits.Data.Shape[1]
	if len(labels) != m {
		panic(fmt.Sprintf("autograd: %d labels for %d rows", len(labels), m))
	}
	probs := tensor.GetPooledDirty(m, n)
	loss := 0.0
	for i := 0; i < m; i++ {
		row := logits.Data.Data[i*n : (i+1)*n]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		prow := probs.Data[i*n : (i+1)*n]
		for j, v := range row {
			e := math.Exp(v - maxv)
			prow[j] = e
			sum += e
		}
		for j := range prow {
			prow[j] /= sum
		}
		p := prow[labels[i]]
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
	}
	loss /= float64(m)
	data := tensor.GetPooledDirty(1)
	data.Data[0] = loss
	out := newPooledOp("softmax-xent", data, logits)
	out.backward = func() {
		scale := out.Grad.Data[0] / float64(m)
		g := tensor.GetPooledDirty(m, n)
		for i := 0; i < m; i++ {
			prow := probs.Data[i*n : (i+1)*n]
			grow := g.Data[i*n : (i+1)*n]
			for j := range grow {
				grow[j] = prow[j] * scale
			}
			grow[labels[i]] -= scale
		}
		tensor.Recycle(probs)
		accumTemp(logits, g)
	}
	return out
}

// Item returns the scalar payload of a 1-element value.
func (v *Value) Item() float64 {
	if v.Data.Len() != 1 {
		panic("autograd: Item on non-scalar value")
	}
	return v.Data.Data[0]
}

// Backward runs reverse-mode autodiff from v, which must be scalar.
// Gradients accumulate into every reachable node that requires them.
//
// After the sweep the graph's intermediate buffers are returned to the
// tensor arena: every non-leaf node loses its Grad, and every pooled op
// output except v itself loses its Data. v's Data survives so the loss can
// still be read with Item; leaf Data and Grad are never touched. The graph
// must therefore not be backpropagated a second time.
func Backward(v *Value) {
	if v.Data.Len() != 1 {
		panic("autograd: Backward requires a scalar output")
	}
	// Topological order via iterative DFS.
	order := make([]*Value, 0, 64)
	visited := make(map[*Value]bool)
	type frame struct {
		node *Value
		idx  int
	}
	stack := []frame{{v, 0}}
	visited[v] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx < len(f.node.parents) {
			p := f.node.parents[f.idx]
			f.idx++
			if !visited[p] {
				visited[p] = true
				stack = append(stack, frame{p, 0})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	// order is children-after-parents; walk it in reverse.
	v.ensureGrad()
	v.Grad.Data[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backward != nil && n.requiresGrad && n.Grad != nil {
			n.backward()
		}
	}
	// Release the graph's intermediates back to the arena. The root keeps
	// its Data (callers read the loss after Backward); leaves keep both
	// Data and Grad (the optimizer reads leaf gradients).
	for _, n := range order {
		if n.parents == nil {
			continue
		}
		if n.Grad != nil {
			tensor.Recycle(n.Grad)
			n.Grad = nil
		}
		if n != v && n.pooled {
			tensor.Recycle(n.Data)
			n.Data = nil
		}
	}
}

// ZeroGrad clears the gradients of the given leaves.
func ZeroGrad(leaves ...*Value) {
	for _, l := range leaves {
		if l.Grad != nil {
			l.Grad.Zero()
		}
	}
}
