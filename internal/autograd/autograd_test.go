package autograd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netmax/internal/tensor"
)

// numericalGrad computes d(loss)/d(x[i]) by central differences.
func numericalGrad(f func() float64, x *tensor.Tensor, i int) float64 {
	const h = 1e-6
	orig := x.Data[i]
	x.Data[i] = orig + h
	fp := f()
	x.Data[i] = orig - h
	fm := f()
	x.Data[i] = orig
	return (fp - fm) / (2 * h)
}

func TestAddBackward(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	b := NewLeaf(tensor.FromSlice([]float64{3, 4}, 2), true)
	out := Mean(Add(a, b))
	Backward(out)
	for i := 0; i < 2; i++ {
		if math.Abs(a.Grad.Data[i]-0.5) > 1e-12 {
			t.Fatalf("a.Grad[%d] = %v, want 0.5", i, a.Grad.Data[i])
		}
		if math.Abs(b.Grad.Data[i]-0.5) > 1e-12 {
			t.Fatalf("b.Grad[%d] = %v, want 0.5", i, b.Grad.Data[i])
		}
	}
}

func TestSubBackward(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	b := NewLeaf(tensor.FromSlice([]float64{3, 4}, 2), true)
	Backward(Mean(Sub(a, b)))
	if b.Grad.Data[0] != -0.5 {
		t.Fatalf("b.Grad = %v, want -0.5", b.Grad.Data[0])
	}
}

func TestMulBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	at := tensor.Randn(rng, 1, 3)
	bt := tensor.Randn(rng, 1, 3)
	a := NewLeaf(at, true)
	b := NewLeaf(bt, true)
	loss := func() float64 {
		return tensor.Mul(at, bt).Mean()
	}
	Backward(Mean(Mul(a, b)))
	for i := 0; i < 3; i++ {
		want := numericalGrad(loss, at, i)
		if math.Abs(a.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("grad a[%d] = %v, numerical %v", i, a.Grad.Data[i], want)
		}
	}
}

func TestMatMulBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	at := tensor.Randn(rng, 1, 2, 3)
	bt := tensor.Randn(rng, 1, 3, 2)
	forward := func() float64 { return tensor.MatMul(at, bt).Mean() }

	a := NewLeaf(at, true)
	b := NewLeaf(bt, true)
	Backward(Mean(MatMul(a, b)))
	for i := range at.Data {
		want := numericalGrad(forward, at, i)
		if math.Abs(a.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("dA[%d] = %v, numerical %v", i, a.Grad.Data[i], want)
		}
	}
	for i := range bt.Data {
		want := numericalGrad(forward, bt, i)
		if math.Abs(b.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("dB[%d] = %v, numerical %v", i, b.Grad.Data[i], want)
		}
	}
}

func TestReLUBackward(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{-1, 2, 0, 3}, 4), true)
	Backward(Mean(ReLU(a)))
	want := []float64{0, 0.25, 0, 0.25}
	for i := range want {
		if a.Grad.Data[i] != want[i] {
			t.Fatalf("ReLU grad = %v, want %v", a.Grad.Data, want)
		}
	}
}

func TestTanhBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	at := tensor.Randn(rng, 1, 4)
	forward := func() float64 { return tensor.Apply(at, math.Tanh).Mean() }
	a := NewLeaf(at, true)
	Backward(Mean(Tanh(a)))
	for i := range at.Data {
		want := numericalGrad(forward, at, i)
		if math.Abs(a.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("tanh grad[%d] = %v, numerical %v", i, a.Grad.Data[i], want)
		}
	}
}

func TestAddRowVectorBackward(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2), true)
	v := NewLeaf(tensor.FromSlice([]float64{10, 20}, 2), true)
	out := AddRowVector(a, v)
	Backward(Mean(out))
	// d mean / d v_j = (#rows)/(m*n) = 2/4 = 0.5
	for j := 0; j < 2; j++ {
		if math.Abs(v.Grad.Data[j]-0.5) > 1e-12 {
			t.Fatalf("bias grad = %v, want 0.5", v.Grad.Data)
		}
	}
}

func TestSoftmaxCrossEntropyMatchesManual(t *testing.T) {
	logits := tensor.FromSlice([]float64{2, 1, 0.1, 0, 0, 5}, 2, 3)
	labels := []int{0, 2}
	l := NewLeaf(logits, true)
	loss := SoftmaxCrossEntropy(l, labels)
	// manual computation
	manual := 0.0
	for i := 0; i < 2; i++ {
		row := logits.Data[i*3 : (i+1)*3]
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v)
		}
		manual -= math.Log(math.Exp(row[labels[i]]) / sum)
	}
	manual /= 2
	if math.Abs(loss.Item()-manual) > 1e-10 {
		t.Fatalf("loss = %v, manual = %v", loss.Item(), manual)
	}
}

func TestSoftmaxCrossEntropyGradNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := tensor.Randn(rng, 1, 3, 4)
	labels := []int{1, 0, 3}
	forward := func() float64 {
		l := NewLeaf(logits, false)
		return SoftmaxCrossEntropy(l, labels).Item()
	}
	l := NewLeaf(logits, true)
	Backward(SoftmaxCrossEntropy(l, labels))
	for i := range logits.Data {
		want := numericalGrad(forward, logits, i)
		if math.Abs(l.Grad.Data[i]-want) > 1e-4 {
			t.Fatalf("xent grad[%d] = %v, numerical %v", i, l.Grad.Data[i], want)
		}
	}
}

func TestSoftmaxGradSumsToZeroPerRow(t *testing.T) {
	// Property: each row of the cross-entropy gradient sums to 0
	// (softmax probabilities sum to one).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(4), 2+rng.Intn(5)
		logits := tensor.Randn(rng, 2, m, n)
		labels := make([]int, m)
		for i := range labels {
			labels[i] = rng.Intn(n)
		}
		l := NewLeaf(logits, true)
		Backward(SoftmaxCrossEntropy(l, labels))
		for i := 0; i < m; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += l.Grad.Data[i*n+j]
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGradAccumulationOnSharedNode(t *testing.T) {
	// y = a + a: grad should be 2 * d(mean)
	a := NewLeaf(tensor.FromSlice([]float64{1, 1}, 2), true)
	Backward(Mean(Add(a, a)))
	if math.Abs(a.Grad.Data[0]-1.0) > 1e-12 {
		t.Fatalf("shared node grad = %v, want 1.0", a.Grad.Data[0])
	}
}

func TestConstantGetsNoGrad(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	c := Constant(tensor.FromSlice([]float64{3, 4}, 2))
	Backward(Mean(Mul(a, c)))
	if c.Grad != nil {
		t.Fatal("constant accumulated a gradient")
	}
	if a.Grad == nil {
		t.Fatal("leaf missing gradient")
	}
}

func TestZeroGrad(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	Backward(Mean(a))
	ZeroGrad(a)
	if a.Grad.Sum() != 0 {
		t.Fatal("ZeroGrad did not clear gradients")
	}
}

func TestBackwardTwiceAccumulates(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	out1 := Mean(a)
	Backward(out1)
	g1 := a.Grad.Clone()
	out2 := Mean(a)
	Backward(out2)
	for i := range g1.Data {
		if math.Abs(a.Grad.Data[i]-2*g1.Data[i]) > 1e-12 {
			t.Fatal("second Backward should accumulate")
		}
	}
}

func TestBackwardNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	Backward(a)
}

func TestScaleBackward(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	Backward(Mean(Scale(a, 10)))
	if math.Abs(a.Grad.Data[0]-5) > 1e-12 {
		t.Fatalf("scale grad = %v, want 5", a.Grad.Data[0])
	}
}

func TestDeepChainGradient(t *testing.T) {
	// f(x) = mean(relu(x W1 + b1) W2) — two-layer chain, check numerically.
	rng := rand.New(rand.NewSource(21))
	x := tensor.Randn(rng, 1, 2, 3)
	w1 := tensor.Randn(rng, 1, 3, 4)
	b1 := tensor.Randn(rng, 1, 4)
	w2 := tensor.Randn(rng, 1, 4, 2)
	forward := func() float64 {
		h := tensor.AddRowVector(tensor.MatMul(x, w1), b1)
		h = tensor.Apply(h, func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		})
		return tensor.MatMul(h, w2).Mean()
	}
	xv := NewLeaf(x, false)
	w1v := NewLeaf(w1, true)
	b1v := NewLeaf(b1, true)
	w2v := NewLeaf(w2, true)
	out := Mean(MatMul(ReLU(AddRowVector(MatMul(xv, w1v), b1v)), w2v))
	Backward(out)
	for i := range w1.Data {
		want := numericalGrad(forward, w1, i)
		if math.Abs(w1v.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("w1 grad[%d] = %v, numerical %v", i, w1v.Grad.Data[i], want)
		}
	}
	for i := range b1.Data {
		want := numericalGrad(forward, b1, i)
		if math.Abs(b1v.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("b1 grad[%d] = %v, numerical %v", i, b1v.Grad.Data[i], want)
		}
	}
}
