package policy

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"netmax/internal/linalg"
	"netmax/internal/simnet"
)

// randomConnected returns a ring over a random permutation of m nodes plus
// each remaining edge with probability 0.3: connected, of random degree.
func randomConnected(rng *rand.Rand, m int) [][]bool {
	adj := make([][]bool, m)
	for i := range adj {
		adj[i] = make([]bool, m)
	}
	link := func(i, j int) { adj[i][j], adj[j][i] = true, true }
	perm := rng.Perm(m)
	for k := range perm {
		if m > 1 {
			link(perm[k], perm[(k+1)%m])
		}
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if rng.Float64() < 0.3 {
				link(i, j)
			}
		}
	}
	for i := range adj {
		adj[i][i] = false
	}
	return adj
}

// randomTimes draws symmetric link iteration times. Half the draws are
// homogeneous but for one slowed link, the rest spread over two decades.
func randomTimes(rng *rand.Rand, m int) [][]float64 {
	t := make([][]float64, m)
	for i := range t {
		t[i] = make([]float64, m)
	}
	homogeneous := rng.Intn(2) == 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			v := 0.05 * (1 + 99*rng.Float64())
			if homogeneous {
				v = 0.2
			}
			t[i][j], t[j][i] = v, v
		}
	}
	if homogeneous && m > 1 {
		i := rng.Intn(m)
		j := (i + 1 + rng.Intn(m-1)) % m
		t[i][j] *= 10
		t[j][i] = t[i][j]
	}
	return t
}

// checkPolicy checks the ROADMAP's invariants of Algorithm 3's output: P's
// rows are stochastic, P puts no mass off the adjacency, Y_P is doubly
// stochastic, and 0 < λ₂ < 1 (both as reported and as recomputed from P).
// In averaging mode Y_P is symmetric but not doubly stochastic by design
// (see TestBuildYAveragingSpectrum), so only the reported λ₂ of Algorithm
// 3's own Y (built with the uniform p_i of a feasible P) is checked there.
func checkPolicy(pol *Policy, in Input) error {
	if err := Validate(pol.P, in.Adj); err != nil {
		return err
	}
	for i, row := range pol.P {
		for j, v := range row {
			if i != j && !in.Adj[i][j] && v != 0 {
				return fmt.Errorf("p[%d][%d] = %v off the adjacency", i, j, v)
			}
		}
	}
	if pol.Lambda2 <= 0 || pol.Lambda2 >= 1 {
		return fmt.Errorf("reported λ₂ = %v outside (0, 1)", pol.Lambda2)
	}
	if in.AveragingBlend {
		if y := BuildYAveraging(pol.P, in.Times, in.Adj); !y.IsSymmetric(1e-9) {
			return errors.New("averaging-mode Y_P is not symmetric")
		}
		return nil
	}
	y := BuildY(pol.P, in.Times, in.Adj, in.Alpha, pol.Rho)
	if !y.IsDoublyStochastic(1e-6) {
		return errors.New("Y_P is not doubly stochastic")
	}
	l2, err := linalg.SecondLargestEigenvalue(y)
	if err != nil {
		return err
	}
	if l2 <= 0 || l2 >= 1 {
		return fmt.Errorf("λ₂(BuildY(P)) = %v outside (0, 1)", l2)
	}
	return nil
}

func TestGenerateInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	topologies := []struct {
		name string
		adj  func(m int) [][]bool
	}{
		{"full", simnet.FullyConnected},
		{"ring", simnet.Ring},
		{"random", func(m int) [][]bool { return randomConnected(rng, m) }},
	}
	feasible, total := 0, 0
	for trial := 0; trial < 20; trial++ {
		for _, topo := range topologies {
			for _, averaging := range []bool{false, true} {
				m := 3 + rng.Intn(10)
				in := Input{Times: randomTimes(rng, m), Adj: topo.adj(m), Alpha: 0.1, AveragingBlend: averaging}
				total++
				pol, err := Generate(in)
				if errors.Is(err, ErrNoFeasiblePolicy) {
					continue
				}
				if err != nil {
					t.Fatalf("%s N=%d averaging=%v: %v", topo.name, m, averaging, err)
				}
				feasible++
				if err := checkPolicy(pol, in); err != nil {
					t.Fatalf("%s N=%d averaging=%v: %v", topo.name, m, averaging, err)
				}
			}
		}
	}
	// Infeasible draws are allowed, but the check must not pass vacuously.
	if feasible < total*3/4 {
		t.Fatalf("only %d of %d random inputs had a feasible policy", feasible, total)
	}
}

// BenchmarkGenerate times Algorithm 3 with the default 10×10 grid on a
// fully connected graph with spread link times.
func BenchmarkGenerate(b *testing.B) {
	for _, m := range []int{8, 16, 32} {
		in := Input{Times: hetTimes(m, 1), Adj: simnet.FullyConnected(m), Alpha: 0.1}
		b.Run(fmt.Sprintf("n%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
