package tensor

import (
	"math/rand"
	"testing"
)

// serialMatMul is the reference kernel: the pre-parallel triple loop.
func serialMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

func TestParallelMatMulBitwiseIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 7, 5}, {16, 24, 40}, {97, 103, 89}, {256, 64, 128}} {
		a := Randn(rng, 1, dims[0], dims[1])
		b := Randn(rng, 1, dims[1], dims[2])
		want := serialMatMul(a, b)
		for _, par := range []int{1, 2, 4, 8} {
			prev := SetParallelism(par)
			got := matMul(a, b)
			SetParallelism(prev)
			if !near(got.Data, want.Data, 0) {
				t.Fatalf("MatMul %vx%v at parallelism %d differs from serial", a.Shape, b.Shape, par)
			}
		}
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Randn(rng, 1, 33, 17)
	b := Randn(rng, 1, 17, 29)
	dst := New(33, 29)
	for i := range dst.Data {
		dst.Data[i] = 99 // stale contents must be overwritten
	}
	got := MatMulInto(dst, a, b)
	if got != dst {
		t.Fatal("MatMulInto did not return dst")
	}
	if !near(got.Data, naiveMatMul(a, b), 1e-12) {
		t.Fatal("MatMulInto differs from the naive loop")
	}
}

func TestTransposeIntoMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := Randn(rng, 1, 5, 9)
	dst := New(9, 5)
	for i := range dst.Data {
		dst.Data[i] = 99
	}
	if !near(TransposeInto(dst, a).Data, naiveTranspose(a), 0) {
		t.Fatal("TransposeInto differs from the naive loop")
	}
}

// TestIntoVariantsMatchAllocatingOnes: every Into kernel writing over a
// reused destination full of stale values gives bit for bit what it gives
// in a freshly allocated one.
func TestIntoVariantsMatchAllocatingOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Randn(rng, 1, 4, 6)
	b := Randn(rng, 1, 6, 5)
	v := Randn(rng, 1, 6)
	stale := func(shape ...int) *Tensor {
		s := New(shape...)
		for i := range s.Data {
			s.Data[i] = -7
		}
		return s
	}
	if !near(MatMulInto(stale(4, 5), a, b).Data, MatMulInto(New(4, 5), a, b).Data, 0) {
		t.Fatal("MatMulInto into a stale destination differs from a fresh one")
	}
	if !near(TransposeInto(stale(6, 4), a).Data, TransposeInto(New(6, 4), a).Data, 0) {
		t.Fatal("TransposeInto into a stale destination differs from a fresh one")
	}
	if !near(AddRowVectorInto(stale(4, 6), a, v).Data, AddRowVectorInto(New(4, 6), a, v).Data, 0) {
		t.Fatal("AddRowVectorInto into a stale destination differs from a fresh one")
	}
	if !near(SumRowsInto(stale(6), a).Data, SumRowsInto(New(6), a).Data, 0) {
		t.Fatal("SumRowsInto into a stale destination differs from a fresh one")
	}
}

func TestSetParallelismRoundTrip(t *testing.T) {
	prev := SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	if back := SetParallelism(prev); back != 3 {
		t.Fatalf("SetParallelism returned %d, want 3", back)
	}
}
