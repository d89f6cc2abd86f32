package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netmax/internal/tensor"
)

// goldenBatch is the fixed input of TestGradMatchesTapeBitwise: 6 rows of 4
// standard-normal features.
func goldenBatch() (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(6, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x, []int{0, 2, 1, 1, 0, 2}
}

// TestGradMatchesTapeBitwise pins the loss and every gradient bit of one
// Grad call. The values were recorded with the reverse-mode tape this
// backward pass replaced; any change to kernel order or arithmetic shows up
// here before it shows up as end-to-end drift.
func TestGradMatchesTapeBitwise(t *testing.T) {
	const wantLoss = 0x3ff11ab9acfe8c47
	want := []uint64{
		0x3f62f0684c6cafa6, 0x3fc1184ed805c9f4, 0xbfa18497d804b23a, 0xbfab2c504fa5b120,
		0xbfa699537dbd185e, 0x3f833664c53e2267, 0x3facb58cc89fc32b, 0xbfa33b7a895ad1fb,
		0x3f86a371627c546d, 0xbf907bbb948d0e5a, 0x3f5b64f1e3859a12, 0x3faa61f7c08a5516,
		0x3facfa75605195a6, 0x3fb58f776b64c2d5, 0xbf90a6c348b7925a, 0xbf96b9975332c04f,
		0x3fa0f9c31c4f144b, 0xbf9bb5cfb3572d59, 0xbfaed6168ce423e7, 0xbfa22d8e8c860516,
		0xbf743a1735b28456, 0xbf9a0fd0c9e642f6, 0x3f6dbb2da120f8a0, 0x3fc228567bae4c48,
		0xbf91178830f89a22, 0x3fb008abc60f1546, 0xbfc23e2ef591b979, 0x3fb473b225145dae,
		0x3fb7a7d11dd56233, 0x3f9331d9572a9122, 0xbfbc744773a0067b, 0x3fb41b09c840bcb8,
		0xbfbab7de21ffbcfa, 0x3f9a735166fc010c, 0xbfb33c2708f94a9c, 0x3fb988d28431456e,
		0xbf9932adecdfeb42, 0x3fa1b5dcae388827, 0xbf78dda7ba8389d4, 0xbf9d344f6dd02dda,
		0xbfb6a74aa2f0f19c, 0xbf786a1b13a1194c, 0x3fb82dec542b0331,
	}
	m := ModelSpec{Hidden: []int{5}}.Build(3, 4, 3)
	x, labels := goldenBatch()
	for pass := 0; pass < 2; pass++ { // the second pass reuses the scratch
		if got := math.Float64bits(m.Grad(x, labels)); got != wantLoss {
			t.Fatalf("pass %d: loss bits %#x, want %#x", pass, got, uint64(wantLoss))
		}
		g := m.GradVector(make([]float64, m.VectorLen()))
		if len(g) != len(want) {
			t.Fatalf("%d gradients, want %d", len(g), len(want))
		}
		for i, v := range g {
			if got := math.Float64bits(v); got != want[i] {
				t.Fatalf("pass %d: gradient %d bits %#x, want %#x", pass, i, got, want[i])
			}
		}
	}
	if got := math.Float64bits(m.Loss(x, labels)); got != wantLoss {
		t.Fatalf("Loss bits %#x, want %#x", got, uint64(wantLoss))
	}
}

// centralDiff returns the central-difference estimate of d f / d p[i].
func centralDiff(f func() float64, p []float64, i int) float64 {
	const h = 1e-6
	orig := p[i]
	p[i] = orig + h
	fp := f()
	p[i] = orig - h
	fm := f()
	p[i] = orig
	return (fp - fm) / (2 * h)
}

// TestMatMulBackwardNumerical checks the weight gradients of both layers of
// a one-hidden-layer model against central differences of Loss: the output
// layer's exercises dW = inᵀ·d, the hidden layer's also d·Wᵀ.
func TestMatMulBackwardNumerical(t *testing.T) {
	m := ModelSpec{Hidden: []int{5}}.Build(11, 3, 2)
	x := tensor.Randn(rand.New(rand.NewSource(11)), 1, 4, 3)
	labels := []int{0, 1, 1, 0}
	m.Grad(x, labels)
	loss := func() float64 { return m.Loss(x, labels) }
	for k, l := range m.layers {
		for i := range l.W.Data {
			want := centralDiff(loss, l.W.Data, i)
			if math.Abs(l.GW.Data[i]-want) > 1e-6 {
				t.Fatalf("layer %d dW[%d] = %v, numerical %v", k, i, l.GW.Data[i], want)
			}
		}
	}
}

// TestAddRowVectorBackward: with the output layer's weights and bias at
// zero the logits are zero, the softmax is uniform, and the output bias
// gradient is 1/classes minus each class's share of the labels; nothing
// flows back through the zero weights to the hidden bias.
func TestAddRowVectorBackward(t *testing.T) {
	m := smallModel(3) // 3 classes
	out := m.layers[1]
	out.W.Zero()
	out.B.Zero()
	x := tensor.Randn(rand.New(rand.NewSource(3)), 1, 4, 4)
	m.Grad(x, []int{0, 0, 1, 0})
	want := []float64{1.0/3 - 3.0/4, 1.0/3 - 1.0/4, 1.0 / 3}
	for j, w := range want {
		if math.Abs(out.GB.Data[j]-w) > 1e-12 {
			t.Fatalf("output bias grad = %v, want %v", out.GB.Data, want)
		}
	}
	for j, g := range m.layers[0].GB.Data {
		if g != 0 {
			t.Fatalf("hidden bias grad [%d] = %v, want 0", j, g)
		}
	}
}

// TestSoftmaxCrossEntropyGradNumerical checks the logits gradient Grad
// leaves in the output buffer against central differences of softmaxXent.
// A single identity layer makes the logits equal to the input.
func TestSoftmaxCrossEntropyGradNumerical(t *testing.T) {
	logits := tensor.Randn(rand.New(rand.NewSource(5)), 1, 3, 4)
	labels := []int{1, 0, 3}
	m := ModelSpec{}.Build(1, 4, 4)
	l := m.layers[0]
	l.W.Zero()
	for i := 0; i < 4; i++ {
		l.W.Data[i*4+i] = 1
	}
	m.Grad(logits, labels)
	scratch := tensor.New(3, 4)
	xent := func() float64 {
		copy(scratch.Data, logits.Data) // softmaxXent overwrites its input
		return softmaxXent(scratch, labels)
	}
	for i := range logits.Data {
		want := centralDiff(xent, logits.Data, i)
		if math.Abs(l.out.Data[i]-want) > 1e-6 {
			t.Fatalf("xent grad[%d] = %v, numerical %v", i, l.out.Data[i], want)
		}
	}
}

// TestDeepChainGradient checks every gradient of a model with two hidden
// layers against central differences of Loss.
func TestDeepChainGradient(t *testing.T) {
	m := ModelSpec{Hidden: []int{6, 5}}.Build(4, 3, 4)
	rng := rand.New(rand.NewSource(12))
	x := tensor.Randn(rng, 1, 7, 3)
	labels := []int{0, 1, 2, 3, 3, 1, 0}
	m.Grad(x, labels)
	g := m.GradVector(make([]float64, m.VectorLen()))
	v := m.Vector()
	const h = 1e-6
	for i := range v {
		orig := v[i]
		v[i] = orig + h
		m.SetVector(v)
		fp := m.Loss(x, labels)
		v[i] = orig - h
		m.SetVector(v)
		fm := m.Loss(x, labels)
		v[i] = orig
		want := (fp - fm) / (2 * h)
		if math.Abs(g[i]-want) > 1e-6 {
			t.Fatalf("gradient %d = %v, finite difference %v", i, g[i], want)
		}
	}
}

// TestGradTwiceOverwrites: Grad replaces the gradients rather than
// accumulating into them.
func TestGradTwiceOverwrites(t *testing.T) {
	m := smallModel(5)
	x, labels := tensor.Randn(rand.New(rand.NewSource(1)), 1, 3, 4), []int{0, 1, 2}
	m.Grad(x, labels)
	first := m.GradVector(make([]float64, m.VectorLen()))
	m.Grad(x, labels)
	second := m.GradVector(make([]float64, m.VectorLen()))
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("gradient %d changed on a repeated Grad: %v -> %v", i, first[i], second[i])
		}
	}
}

// TestReLUBackward: a hidden unit whose ReLU is inactive on every row of the
// batch receives exactly zero gradient in its incoming weights and bias.
func TestReLUBackward(t *testing.T) {
	m := smallModel(6)
	hid := m.layers[0]
	hid.B.Data[2] = -100 // unit 2 is dead for any small input
	x := tensor.Randn(rand.New(rand.NewSource(2)), 0.1, 5, 4)
	m.Grad(x, []int{0, 1, 2, 0, 1})
	if hid.GB.Data[2] != 0 {
		t.Fatalf("dead unit bias gradient = %v, want 0", hid.GB.Data[2])
	}
	n := hid.W.Shape[1]
	for i := 0; i < hid.W.Shape[0]; i++ {
		if g := hid.GW.Data[i*n+2]; g != 0 {
			t.Fatalf("dead unit weight gradient [%d] = %v, want 0", i, g)
		}
	}
	if hid.GB.Data[0] == 0 && hid.GB.Data[1] == 0 {
		t.Fatal("live units got no gradient")
	}
}

func TestSoftmaxCrossEntropyMatchesManual(t *testing.T) {
	logits := []float64{2, 1, 0.1, 0, 0, 5}
	labels := []int{0, 2}
	manual := 0.0
	for i := 0; i < 2; i++ {
		row := logits[i*3 : (i+1)*3]
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v)
		}
		manual -= math.Log(math.Exp(row[labels[i]]) / sum)
	}
	manual /= 2
	x := tensor.New(2, 3)
	copy(x.Data, logits)
	if got := softmaxXent(x, labels); math.Abs(got-manual) > 1e-10 {
		t.Fatalf("loss = %v, manual = %v", got, manual)
	}
}

func TestSoftmaxGradSumsToZeroPerRow(t *testing.T) {
	// Property: each row of the logits gradient sums to 0 (softmax
	// probabilities sum to one), so the output bias gradient sums to 0 too.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, classes := 1+rng.Intn(4), 2+rng.Intn(5)
		m := ModelSpec{Hidden: []int{3}}.Build(seed, 2, classes)
		x := tensor.Randn(rng, 2, rows, 2)
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = rng.Intn(classes)
		}
		m.Grad(x, labels)
		d := m.layers[1].out
		for i := 0; i < rows; i++ {
			s := 0.0
			for _, v := range d.Data[i*classes : (i+1)*classes] {
				s += v
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

// resnet18Batch is a paper-sized SynthCIFAR10 training batch for the
// SimResNet18 stand-in.
func resnet18Batch() (*Model, *tensor.Tensor, []int) {
	const (
		batch   = 16
		dim     = 24 // SynthCIFAR10 feature dimensionality
		classes = 10
	)
	model := SimResNet18.Build(1, dim, classes)
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, batch, dim)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return model, x, labels
}

// BenchmarkResNet18Grad measures one training step's forward and backward
// pass; steady state allocates nothing.
func BenchmarkResNet18Grad(b *testing.B) {
	model, x, labels := resnet18Batch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Grad(x, labels)
	}
}

// BenchmarkResNet18Loss isolates the forward pass for comparison with the
// training step.
func BenchmarkResNet18Loss(b *testing.B) {
	model, x, labels := resnet18Batch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Loss(x, labels)
	}
}
