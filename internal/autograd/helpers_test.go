package autograd

import "netmax/internal/tensor"

// Mean returns the scalar mean of all elements as a 1-element value: the
// reduction the gradient tests backpropagate from.
func Mean(a *Value) *Value {
	data := tensor.GetPooledDirty(1)
	data.Data[0] = a.Data.Mean()
	out := newPooledOp("mean", data, a)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		c := out.Grad.Data[0] / float64(a.Data.Len())
		g := tensor.GetPooledDirty(a.Data.Shape...)
		for i := range g.Data {
			g.Data[i] = c
		}
		accumTemp(a, g)
	}
	return out
}
