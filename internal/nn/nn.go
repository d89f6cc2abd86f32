// Package nn provides the MLP stand-in model with its explicit forward and
// backward pass, and the SGD optimizer, built on internal/tensor.
//
// The network is Linear → ReLU → … → Linear with a softmax cross-entropy
// loss; Grad backpropagates through exactly that stack, so no general
// autodiff machinery is needed.
//
// A central requirement of the decentralized algorithms in this repository is
// treating a model as a flat parameter vector that can be serialized, sent to
// a peer, and blended into another replica (Algorithm 2, lines 13-15 of the
// paper). Model therefore exposes VectorLen/CopyVector/SetVector/BlendVector
// views over its parameters in addition to Loss/Grad/Accuracy.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"netmax/internal/tensor"
)

// dense is one fully connected layer y = xW + b of a Model, with its
// gradient buffers and scratch sized to the last batch.
type dense struct {
	W, B   *tensor.Tensor // parameters, (in, out) and (out)
	GW, GB *tensor.Tensor // gradients left by the last Grad call

	// out holds the layer's activations from the last forward pass (ReLU
	// applied on hidden layers). On the output layer it holds the logits,
	// which Loss and Grad overwrite with probabilities and then with the
	// loss gradient.
	out *tensor.Tensor // (rows, out)
	d   *tensor.Tensor // (rows, out): loss gradient at a hidden layer's pre-activation
	inT *tensor.Tensor // (in, rows): transposed layer input
	wT  *tensor.Tensor // (out, in): transposed W
}

// newDense creates a layer with Xavier-style initialization, drawing W from
// rng.
func newDense(rng *rand.Rand, in, out int) *dense {
	std := math.Sqrt(2.0 / float64(in+out))
	return &dense{
		W:  tensor.Randn(rng, std, in, out),
		B:  tensor.New(out),
		GW: tensor.New(in, out),
		GB: tensor.New(out),
	}
}

// sized returns t if it already has shape (rows, cols), else a fresh one.
func sized(t *tensor.Tensor, rows, cols int) *tensor.Tensor {
	if t != nil && t.Shape[0] == rows && t.Shape[1] == cols {
		return t
	}
	return tensor.New(rows, cols)
}

// Model is a feed-forward ReLU network with a flat-parameter-vector view.
// Parameters are ordered W1, b1, W2, b2, … in every flat view.
//
// A Model owns batch-sized scratch buffers, so it must be used by one
// goroutine at a time.
type Model struct {
	layers []*dense
	params []*tensor.Tensor // W1, b1, W2, b2, …
	grads  []*tensor.Tensor // gradients, in params order
	total  int              // total scalar parameter count
}

func newModel(layers []*dense) *Model {
	m := &Model{layers: layers}
	for _, l := range layers {
		m.params = append(m.params, l.W, l.B)
		m.grads = append(m.grads, l.GW, l.GB)
		m.total += l.W.Len() + l.B.Len()
	}
	return m
}

// forward runs the network on a batch (rank-2: batch x features) and
// returns the output layer's logits.
func (m *Model) forward(x *tensor.Tensor) *tensor.Tensor {
	rows := x.Shape[0]
	h := x
	for k, l := range m.layers {
		l.out = sized(l.out, rows, l.W.Shape[1])
		tensor.AddRowVectorInto(l.out, tensor.MatMulInto(l.out, h, l.W), l.B)
		if k < len(m.layers)-1 {
			for i, v := range l.out.Data {
				if !(v > 0) { // max(v, 0), with NaN mapped to 0
					l.out.Data[i] = 0
				}
			}
		}
		h = l.out
	}
	return h
}

// softmaxXent overwrites logits with their row-wise softmax and returns the
// mean cross-entropy against labels (numerically stable fused
// softmax+log+NLL).
func softmaxXent(logits *tensor.Tensor, labels []int) float64 {
	m, n := logits.Shape[0], logits.Shape[1]
	if len(labels) != m {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(labels), m))
	}
	loss := 0.0
	for i := 0; i < m; i++ {
		row := logits.Data[i*n : (i+1)*n]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxv)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
		p := row[labels[i]]
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
	}
	return loss / float64(m)
}

// Loss returns the mean softmax cross-entropy of the model on a batch.
func (m *Model) Loss(x *tensor.Tensor, labels []int) float64 {
	return softmaxXent(m.forward(x), labels)
}

// Grad runs the forward and backward pass on a batch, overwrites every
// parameter gradient with the gradient of the mean softmax cross-entropy,
// and returns that loss.
func (m *Model) Grad(x *tensor.Tensor, labels []int) float64 {
	d := m.forward(x)
	loss := softmaxXent(d, labels)
	// dLoss/dlogits = (softmax - onehot) / rows, in place over the
	// probabilities.
	rows, n := d.Shape[0], d.Shape[1]
	scale := 1 / float64(rows)
	for i := 0; i < rows; i++ {
		grow := d.Data[i*n : (i+1)*n]
		for j := range grow {
			grow[j] *= scale
		}
		grow[labels[i]] -= scale
	}
	for k := len(m.layers) - 1; ; k-- {
		l := m.layers[k]
		in := x
		if k > 0 {
			in = m.layers[k-1].out
		}
		tensor.SumRowsInto(l.GB, d)
		l.inT = sized(l.inT, in.Shape[1], rows)
		tensor.MatMulInto(l.GW, tensor.TransposeInto(l.inT, in), d)
		if k == 0 {
			return loss
		}
		// Through W and the previous layer's ReLU: the gradient passes
		// only where that layer's activation is positive.
		prev := m.layers[k-1]
		prev.d = sized(prev.d, rows, in.Shape[1])
		l.wT = sized(l.wT, l.W.Shape[1], l.W.Shape[0])
		tensor.MatMulInto(prev.d, d, tensor.TransposeInto(l.wT, l.W))
		for i, v := range in.Data {
			if !(v > 0) {
				prev.d.Data[i] = 0
			}
		}
		d = prev.d
	}
}

// Accuracy returns the fraction of rows of x whose argmax logit equals the
// label.
func (m *Model) Accuracy(x *tensor.Tensor, labels []int) float64 {
	logits := m.forward(x)
	correct := 0
	for i := range labels {
		if logits.ArgMaxRow(i) == labels[i] {
			correct++
		}
	}
	if len(labels) == 0 {
		return 0
	}
	return float64(correct) / float64(len(labels))
}

// VectorLen returns the total number of scalar parameters.
func (m *Model) VectorLen() int { return m.total }

// copyOut concatenates ts into dst, which must have length VectorLen.
func (m *Model) copyOut(op string, dst []float64, ts []*tensor.Tensor) []float64 {
	if len(dst) != m.total {
		panic(fmt.Sprintf("nn: %s dst length %d, want %d", op, len(dst), m.total))
	}
	off := 0
	for _, t := range ts {
		off += copy(dst[off:], t.Data)
	}
	return dst
}

// copyIn overwrites ts from src, which must have length VectorLen.
func (m *Model) copyIn(op string, ts []*tensor.Tensor, src []float64) {
	if len(src) != m.total {
		panic(fmt.Sprintf("nn: %s src length %d, want %d", op, len(src), m.total))
	}
	off := 0
	for _, t := range ts {
		off += copy(t.Data, src[off:off+t.Len()])
	}
}

// CopyVector copies all parameters into dst, which must have length
// VectorLen, and returns dst.
func (m *Model) CopyVector(dst []float64) []float64 { return m.copyOut("CopyVector", dst, m.params) }

// Vector returns a fresh copy of the parameter vector.
func (m *Model) Vector() []float64 {
	return m.CopyVector(make([]float64, m.total))
}

// SetVector overwrites all parameters from src (length VectorLen).
func (m *Model) SetVector(src []float64) { m.copyIn("SetVector", m.params, src) }

// BlendVector performs params += c*(v - params) over the flat parameter
// view, i.e. params = (1-c)*params + c*v. This is exactly the second-step
// consensus update x_i ← x_i − αθ with θ = (ρ/2)(d_im+d_mi)/p_im (x_i − x_m)
// of Algorithm 2 when c = αρ(d_im+d_mi)/(2 p_im).
func (m *Model) BlendVector(c float64, v []float64) {
	if len(v) != m.total {
		panic(fmt.Sprintf("nn: BlendVector length %d, want %d", len(v), m.total))
	}
	off := 0
	for _, p := range m.params {
		d := p.Data
		for i := range d {
			d[i] += c * (v[off+i] - d[i])
		}
		off += len(d)
	}
}

// GradVector copies all parameter gradients into dst (zeros before the
// first Grad call) and returns dst.
func (m *Model) GradVector(dst []float64) []float64 { return m.copyOut("GradVector", dst, m.grads) }

// SetGradVector overwrites all parameter gradients from src (length
// VectorLen). Used by gradient-averaging algorithms (allreduce, parameter
// server).
func (m *Model) SetGradVector(src []float64) { m.copyIn("SetGradVector", m.grads, src) }

// SGD is a stochastic-gradient-descent optimizer with momentum and weight
// decay, matching the paper's training configuration (momentum 0.9, weight
// decay 1e-4, step LR decay).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity [][]float64
}

// NewSGD creates an optimizer with the paper's default hyper-parameters and
// the given initial learning rate.
func NewSGD(lr float64) *SGD {
	return &SGD{LR: lr, Momentum: 0.9, WeightDecay: 1e-4}
}

// Step applies one SGD update to the model from its current gradients.
func (o *SGD) Step(m *Model) {
	if o.velocity == nil {
		o.velocity = make([][]float64, len(m.params))
		for i, p := range m.params {
			o.velocity[i] = make([]float64, p.Len())
		}
	}
	for i, p := range m.params {
		v := o.velocity[i]
		d := p.Data
		g := m.grads[i].Data
		for j := range d {
			gj := g[j] + o.WeightDecay*d[j]
			v[j] = o.Momentum*v[j] - o.LR*gj
			d[j] += v[j]
		}
	}
}

// DecayLR multiplies the learning rate by factor (paper: 0.1 on plateau).
func (o *SGD) DecayLR(factor float64) { o.LR *= factor }
