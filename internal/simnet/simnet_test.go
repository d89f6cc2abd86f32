package simnet

import (
	"math"
	"testing"
	"testing/quick"

	"netmax/internal/nn"
)

func TestFullyConnected(t *testing.T) {
	adj := FullyConnected(4)
	for i := 0; i < 4; i++ {
		if adj[i][i] {
			t.Fatal("self loop present")
		}
		for j := 0; j < 4; j++ {
			if i != j && !adj[i][j] {
				t.Fatalf("edge %d-%d missing", i, j)
			}
		}
	}
}

func TestRingConnected(t *testing.T) {
	topo := &Topology{M: 5, Machine: make([]int, 5), Adj: Ring(5)}
	if !topo.Connected() {
		t.Fatal("ring should be connected")
	}
	degree := 0
	for _, ok := range topo.Adj[0] {
		if ok {
			degree++
		}
	}
	if degree != 2 {
		t.Fatalf("ring degree = %d, want 2", degree)
	}
}

func TestDisconnectedDetected(t *testing.T) {
	adj := make([][]bool, 4)
	for i := range adj {
		adj[i] = make([]bool, 4)
	}
	adj[0][1], adj[1][0] = true, true
	adj[2][3], adj[3][2] = true, true
	topo := &Topology{M: 4, Machine: make([]int, 4), Adj: adj}
	if topo.Connected() {
		t.Fatal("two components reported connected")
	}
}

func TestPaperClusterPlacements(t *testing.T) {
	cases := []struct {
		workers  int
		machines int
	}{{4, 2}, {8, 3}, {16, 4}, {6, 2}, {12, 3}}
	for _, c := range cases {
		topo := PaperCluster(c.workers)
		if topo.M != c.workers {
			t.Fatalf("workers = %d, want %d", topo.M, c.workers)
		}
		maxM := 0
		for _, m := range topo.Machine {
			if m > maxM {
				maxM = m
			}
		}
		if maxM+1 != c.machines {
			t.Errorf("%d workers placed on %d machines, want %d", c.workers, maxM+1, c.machines)
		}
		if !topo.Connected() {
			t.Errorf("%d-worker topology not connected", c.workers)
		}
	}
}

func TestIntraFasterThanInter(t *testing.T) {
	topo := PaperCluster(8)
	net := NewStatic(topo)
	// Nodes 0,1 share machine 0; node 7 is on machine 2.
	intra := net.TransferTime(0, 1, 1e8, 0)
	inter := net.TransferTime(0, 7, 1e8, 0)
	if intra >= inter {
		t.Fatalf("intra %v >= inter %v", intra, inter)
	}
	ratio := inter / intra
	if ratio < 2 || ratio > 8 {
		t.Fatalf("inter/intra ratio = %v, want within [2,8]", ratio)
	}
}

func TestFig3Shape(t *testing.T) {
	// Fig 3: inter-machine iteration time is ~2-4x intra-machine for both
	// ResNet18 and VGG19, and VGG19 > ResNet18.
	topo := PaperCluster(8)
	net := NewStatic(topo)
	iter := func(spec nn.ModelSpec, i, j int) float64 {
		return net.IterationTime(i, j, spec.ModelBytes(), spec.ComputeSecs, 0, true)
	}
	r18Intra, r18Inter := iter(nn.SimResNet18, 0, 1), iter(nn.SimResNet18, 0, 7)
	vggIntra, vggInter := iter(nn.SimVGG19, 0, 1), iter(nn.SimVGG19, 0, 7)
	if ratio := r18Inter / r18Intra; ratio < 1.5 || ratio > 5 {
		t.Errorf("ResNet18 inter/intra = %v, want ~2-4x", ratio)
	}
	if ratio := vggInter / vggIntra; ratio < 1.5 || ratio > 5 {
		t.Errorf("VGG19 inter/intra = %v, want ~2-4x", ratio)
	}
	if vggIntra <= r18Intra || vggInter <= r18Inter {
		t.Errorf("VGG19 times (%v, %v) should exceed ResNet18 (%v, %v)", vggIntra, vggInter, r18Intra, r18Inter)
	}
}

func TestSlowdownScheduleMovesEveryPeriod(t *testing.T) {
	topo := PaperCluster(8)
	net := NewHeterogeneousPeriod(topo, 1, 1800, 300)
	if got := net.SlowdownCount(); got != 6 {
		t.Fatalf("schedule has %d events for 1800s horizon, want 6", got)
	}
}

func TestSlowdownAffectsExactlyOneLink(t *testing.T) {
	topo := PaperCluster(4)
	net := NewHeterogeneousPeriod(topo, 3, 600, 300)
	now := 10.0
	slowed := 0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			base := NewStatic(topo).Rate(i, j, now)
			cur := net.Rate(i, j, now)
			if cur < base-1e-9 {
				slowed++
				factor := base / cur
				if factor < 2 || factor > 100 {
					t.Fatalf("slowdown factor %v outside [2,100]", factor)
				}
			}
		}
	}
	if slowed != 1 {
		t.Fatalf("%d links slowed at once, want exactly 1", slowed)
	}
}

func TestSlowdownDeterministicInSeed(t *testing.T) {
	topo := PaperCluster(8)
	a := NewHeterogeneousPeriod(topo, 42, 1200, 300)
	b := NewHeterogeneousPeriod(topo, 42, 1200, 300)
	for now := 0.0; now < 1200; now += 37 {
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if i == j {
					continue
				}
				if a.Rate(i, j, now) != b.Rate(i, j, now) {
					t.Fatal("same seed produced different rates")
				}
			}
		}
	}
}

func TestSlowLinkChangesOverTime(t *testing.T) {
	topo := PaperCluster(8)
	net := NewHeterogeneousPeriod(topo, 7, 3000, 300)
	// Find the slowed pair in two different periods; with 28 pairs the odds
	// of a collision across all sampled periods are negligible for this seed.
	find := func(now float64) [2]int {
		base := NewStatic(topo)
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				if net.Rate(i, j, now) < base.Rate(i, j, now)-1e-9 {
					return [2]int{i, j}
				}
			}
		}
		return [2]int{-1, -1}
	}
	first := find(1)
	changed := false
	for p := 1; p < 10; p++ {
		if find(float64(p)*300+1) != first {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("slow link never moved across 10 periods")
	}
}

func TestHomogeneousUniformRates(t *testing.T) {
	net := NewHomogeneous(SingleMachine(8))
	r := net.Rate(0, 1, 0)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j && net.Rate(i, j, 123) != r {
				t.Fatal("homogeneous rates differ")
			}
		}
	}
	if r != VSwitchRate {
		t.Fatalf("rate = %v, want %v", r, VSwitchRate)
	}
}

func TestSelfTransferFree(t *testing.T) {
	net := NewStatic(PaperCluster(4))
	if net.TransferTime(2, 2, 1e9, 0) != 0 {
		t.Fatal("self transfer should be free")
	}
}

func TestIterationTimeOverlapVsSerial(t *testing.T) {
	net := NewStatic(PaperCluster(8))
	spec := nn.SimResNet18
	over := net.IterationTime(0, 7, spec.ModelBytes(), spec.ComputeSecs, 0, true)
	serial := net.IterationTime(0, 7, spec.ModelBytes(), spec.ComputeSecs, 0, false)
	nt := net.TransferTime(0, 7, spec.ModelBytes(), 0)
	if math.Abs(over-math.Max(spec.ComputeSecs, nt)) > 1e-12 {
		t.Fatalf("overlap time = %v, want max(C,N) = %v", over, math.Max(spec.ComputeSecs, nt))
	}
	if math.Abs(serial-(spec.ComputeSecs+nt)) > 1e-12 {
		t.Fatalf("serial time = %v, want C+N = %v", serial, spec.ComputeSecs+nt)
	}
	if serial <= over {
		t.Fatal("serial should be slower than overlapped")
	}
}

func TestCrossRegionStructure(t *testing.T) {
	net := NewCrossRegion()
	if net.Topo.M != 6 {
		t.Fatalf("regions = %d, want 6", net.Topo.M)
	}
	// Symmetric rates, positive off-diagonal, spread >= ~6x (paper cites 12x
	// between closest and farthest; our matrix spans 10-60 MB/s).
	minR, maxR := math.Inf(1), 0.0
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			r := net.Rate(i, j, 0)
			if r <= 0 {
				t.Fatalf("non-positive WAN rate %d-%d", i, j)
			}
			if r != net.Rate(j, i, 0) {
				t.Fatalf("asymmetric WAN rate %d-%d", i, j)
			}
			minR = math.Min(minR, r)
			maxR = math.Max(maxR, r)
		}
	}
	if maxR/minR < 5 {
		t.Fatalf("WAN heterogeneity spread = %v, want >= 5x", maxR/minR)
	}
}

func TestTransferTimeScalesLinearlyInBytes(t *testing.T) {
	f := func(seed int64) bool {
		topo := PaperCluster(8)
		net := NewHeterogeneousPeriod(topo, seed, 600, 300)
		t1 := net.TransferTime(0, 5, 1e6, 100)
		t2 := net.TransferTime(0, 5, 2e6, 100)
		return math.Abs(t2-2*t1) < 1e-9*t1+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRateSymmetryProperty(t *testing.T) {
	f := func(seed int64, nowRaw uint16) bool {
		topo := PaperCluster(8)
		net := NewHeterogeneousPeriod(topo, seed, 3000, 300)
		now := float64(nowRaw)
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				if net.Rate(i, j, now) != net.Rate(j, i, now) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Connected reports whether the adjacency graph is connected (Assumption 1).
func (t *Topology) Connected() bool {
	if t.M == 0 {
		return true
	}
	seen := make([]bool, t.M)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j, ok := range t.Adj[i] {
			if ok && !seen[j] {
				seen[j] = true
				count++
				stack = append(stack, j)
			}
		}
	}
	return count == t.M
}
