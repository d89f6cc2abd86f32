package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel execution substrate: a persistent pool of worker goroutines that
// large kernels (MatMul and friends) shard row-panels across. The pool is
// lazily started at first use and sized to runtime.NumCPU(); workers block on
// an unbuffered-receive loop and cost nothing while idle.
//
// Two properties the rest of the repository depends on:
//
//   - Determinism: work is sharded so that every output element is produced
//     by exactly one task using the same arithmetic order as the serial
//     kernel, so parallel results are bitwise identical to serial ones.
//   - No deadlock under nesting: when the queue is full (e.g. parallel
//     worker stepping in the engine issuing parallel MatMuls), the caller
//     runs the chunk itself instead of blocking on submission, so progress
//     never depends on a free pool worker.

// parDegree is the configured parallel degree; 0 means runtime.NumCPU().
var parDegree atomic.Int64

// SetParallelism sets the degree of intra-op parallelism: 0 restores the
// default (NumCPU), 1 forces every kernel onto the calling goroutine (the
// serial baseline), n > 1 allows up to n-way sharding. It returns the
// previous setting. Safe to call concurrently; kernels already in flight
// finish under the old degree.
func SetParallelism(n int) int {
	if n < 0 {
		n = 0
	}
	return int(parDegree.Swap(int64(n)))
}

// Parallelism reports the effective parallel degree kernels run at.
func Parallelism() int {
	if n := int(parDegree.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

type task struct {
	f      func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce sync.Once
	tasks    chan task
)

func ensurePool() {
	poolOnce.Do(func() {
		n := runtime.NumCPU()
		tasks = make(chan task, 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for t := range tasks {
					t.f(t.lo, t.hi)
					t.wg.Done()
				}
			}()
		}
	})
}

// parallelFor splits [0, n) into one contiguous chunk per available worker
// (at least grain iterations each) and runs f over the chunks concurrently.
// The caller always executes at least one chunk itself and never blocks
// handing out work, so nested parallelFor calls cannot deadlock.
func parallelFor(n, grain int, f func(lo, hi int)) {
	p := Parallelism()
	if grain < 1 {
		grain = 1
	}
	if p <= 1 || n <= grain {
		f(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > p {
		chunks = p
	}
	ensurePool()
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	lo := 0
	for lo < n {
		hi := lo + size
		if hi > n {
			hi = n
		}
		if hi == n {
			// Final chunk runs on the caller.
			f(lo, hi)
			break
		}
		wg.Add(1)
		select {
		case tasks <- task{f: f, lo: lo, hi: hi, wg: &wg}:
		default:
			// Queue full (nested parallelism): do it ourselves.
			f(lo, hi)
			wg.Done()
		}
		lo = hi
	}
	wg.Wait()
}

// matMulGrainFlops is the approximate flop count below which sharding a
// MatMul costs more than it saves; panels are sized so each task does at
// least this much work. The model-zoo MLP matmuls (batch 16, widths ≤ 72)
// stay below it and run serially, which is the right call at that size.
const matMulGrainFlops = 64 * 1024

// matMulInto is the kernel behind MatMulInto: out += a@b with
// row panels of out sharded across the pool. Each output row is produced
// start-to-finish by one task with the serial loop's arithmetic order, so the
// result is bitwise identical at any parallel degree.
func matMulInto(out, a, b *Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	grain := 1
	if rowFlops := k * n; rowFlops > 0 {
		grain = (matMulGrainFlops + rowFlops - 1) / rowFlops
	}
	if Parallelism() <= 1 || m <= grain {
		// Skip parallelFor entirely: the direct call keeps the serial path
		// allocation-free (no chunk closure).
		matMulRows(out, a, b, 0, m)
		return
	}
	parallelFor(m, grain, func(lo, hi int) { matMulRows(out, a, b, lo, hi) })
}

func matMulRows(out, a, b *Tensor, lo, hi int) {
	k, n := a.Shape[1], b.Shape[1]
	// Local slice headers: with out passed in (rather than freshly
	// allocated) the compiler cannot prove non-aliasing and would otherwise
	// reload the headers through the Tensor pointers on every iteration,
	// costing ~40% on model-sized products.
	ad, bd, od := a.Data, b.Data, out.Data
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n : (p+1)*n]
			// Unrolled by four: each orow[j] still gets one av*brow[j]
			// per p, in the same order, so results are bitwise those of
			// the plain loop. The plain loop's speed swung by ~25% with
			// where the linker happened to place it (its address mod 64);
			// the unrolled body runs at the fast end in either placement.
			j := 0
			for ; j+4 <= n; j += 4 {
				o, b := orow[j:j+4:j+4], brow[j:j+4:j+4]
				o[0] += av * b[0]
				o[1] += av * b[1]
				o[2] += av * b[2]
				o[3] += av * b[3]
			}
			for ; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}
