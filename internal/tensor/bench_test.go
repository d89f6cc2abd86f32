package tensor

import (
	"math/rand"
	"testing"
)

func benchMatMul(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, n, n)
	y := Randn(rng, 1, n, n)
	dst := New(n, n)
	b.ReportAllocs()
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMul64(b *testing.B)   { benchMatMul(b, 64) }
func BenchmarkMatMul256(b *testing.B)  { benchMatMul(b, 256) }
func BenchmarkMatMul1024(b *testing.B) { benchMatMul(b, 1024) }

// BenchmarkMatMulSerial1024 pins the kernel to one goroutine for an in-tree
// measurement of the parallel speedup (compare with BenchmarkMatMul1024).
func BenchmarkMatMulSerial1024(b *testing.B) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	benchMatMul(b, 1024)
}
