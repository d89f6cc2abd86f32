package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The kernels are checked against naive loops written here.

func naiveMatMul(a, b *Tensor) []float64 {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func naiveTranspose(a *Tensor) []float64 {
	m, n := a.Shape[0], a.Shape[1]
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

func matMul(a, b *Tensor) *Tensor { return MatMulInto(New(a.Shape[0], b.Shape[1]), a, b) }

func transpose(a *Tensor) *Tensor { return TransposeInto(New(a.Shape[1], a.Shape[0]), a) }

func fromSlice(data []float64, rows, cols int) *Tensor {
	t := New(rows, cols)
	copy(t.Data, data)
	return t
}

func near(got, want []float64, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			return false
		}
	}
	return true
}

func TestNewZeroFilled(t *testing.T) {
	a := New(2, 3)
	if a.Len() != 6 {
		t.Fatalf("Len = %d, want 6", a.Len())
	}
	for i, v := range a.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestMatMul(t *testing.T) {
	a := fromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := fromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := matMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("MatMulInto = %v, want %v", got.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Data[i*4+i] = 1
	}
	if !near(matMul(a, id).Data, a.Data, 1e-12) {
		t.Fatal("A @ I != A")
	}
	if !near(matMul(id, a).Data, a.Data, 1e-12) {
		t.Fatal("I @ A != A")
	}
}

func TestTranspose(t *testing.T) {
	a := fromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := transpose(a)
	if at.Shape[0] != 3 || at.Shape[1] != 2 {
		t.Fatalf("shape = %v", at.Shape)
	}
	if at.Data[2*2+1] != 6 || at.Data[0*2+1] != 4 {
		t.Fatalf("transpose wrong: %v", at.Data)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 1, m, n)
		return near(transpose(transpose(a)).Data, a.Data, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatMulTransposeProperty(t *testing.T) {
	// (AB)^T == B^T A^T
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		lhs := transpose(matMul(a, b))
		rhs := matMul(transpose(b), transpose(a))
		return near(lhs.Data, rhs.Data, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArgMaxRow(t *testing.T) {
	a := fromSlice([]float64{1, 9, 3, 8, 2, 0}, 2, 3)
	if a.ArgMaxRow(0) != 1 {
		t.Errorf("ArgMaxRow(0) = %d", a.ArgMaxRow(0))
	}
	if a.ArgMaxRow(1) != 0 {
		t.Errorf("ArgMaxRow(1) = %d", a.ArgMaxRow(1))
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Randn(rng, 1, 4, 6)
	v := Randn(rng, 1, 6)
	want := make([]float64, 24)
	sums := make([]float64, 6)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			want[i*6+j] = a.Data[i*6+j] + v.Data[j]
			sums[j] += a.Data[i*6+j]
		}
	}
	if !near(AddRowVectorInto(New(4, 6), a, v).Data, want, 0) {
		t.Fatal("AddRowVectorInto differs from the naive loop")
	}
	stale := New(6)
	for j := range stale.Data {
		stale.Data[j] = 3 // stale contents must be overwritten
	}
	if !near(SumRowsInto(stale, a).Data, sums, 0) {
		t.Fatal("SumRowsInto differs from the naive loop")
	}
	// dst may alias a.
	if !near(AddRowVectorInto(a, a, v).Data, want, 0) {
		t.Fatal("aliased AddRowVectorInto differs from the naive loop")
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(42)), 1, 3, 3)
	b := Randn(rand.New(rand.NewSource(42)), 1, 3, 3)
	if !near(a.Data, b.Data, 0) {
		t.Fatal("Randn not deterministic for equal seeds")
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, k, n)
		bc := New(k, n)
		for i := range bc.Data {
			bc.Data[i] = b.Data[i] + c.Data[i]
		}
		lhs := matMul(a, bc).Data
		ab, ac := matMul(a, b).Data, matMul(a, c).Data
		for i := range ab {
			ab[i] += ac[i]
		}
		return near(lhs, ab, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
