package core

import (
	"math"
	"reflect"
	"testing"

	"netmax/internal/baselines"
	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/nn"
	"netmax/internal/policy"
	"netmax/internal/simnet"
)

func hetConfig(workers, epochs int, seed int64) *engine.Config {
	train, test := data.SynthMNIST.Generate(1)
	idx := make([]int, 256)
	for i := range idx {
		idx[i] = i
	}
	topo := simnet.PaperCluster(workers)
	return &engine.Config{
		Spec:    nn.SimResNet18,
		Part:    data.Uniform(train, workers, 1),
		Eval:    train.Slice(idx),
		Test:    test,
		Net:     simnet.NewHeterogeneousPeriod(topo, seed, 1e6, 8),
		LR:      0.1,
		Batch:   16,
		Epochs:  epochs,
		Seed:    5,
		Overlap: true,
	}
}

// opts returns the options a resolved NetMax manifest with a 2 s monitor
// period builds, after applying mod.
func opts(mod func(*Options)) Options {
	o := Options{Ts: 2, Beta: DefaultBeta, PolicyRounds: policy.DefaultRounds}
	if mod != nil {
		mod(&o)
	}
	return o
}

// watched wraps NetMax's behavior and, after every Tick, records what the
// policy worker 0 adopted: each regeneration installs a freshly generated
// P, so a new row is a new policy.
type watched struct {
	*behavior
	last     *float64
	policies int
	// excluded is set once an adopted policy gives worker 1 no mass: the
	// monitor counts it dead (failure-free policies keep the Eq. 11 floor
	// on every neighbor).
	excluded bool
}

func watch(b *behavior) *watched { return &watched{behavior: b, last: &b.peers[0].Row()[0]} }

func (w *watched) Tick(now float64) {
	w.behavior.Tick(now)
	if row := w.peers[0].Row(); &row[0] != w.last {
		w.last = &row[0]
		w.policies++
		w.excluded = w.excluded || row[1] == 0
	}
}

func TestNetMaxTrains(t *testing.T) {
	r := Run(hetConfig(4, 6, 3), opts(nil))
	if r.Epochs != 6 {
		t.Fatalf("epochs = %d", r.Epochs)
	}
	if r.FinalLoss >= r.Curve[0].Value {
		t.Fatalf("loss did not decrease: %v -> %v", r.Curve[0].Value, r.FinalLoss)
	}
	if r.FinalAccuracy < 0.85 {
		t.Fatalf("accuracy = %v", r.FinalAccuracy)
	}
}

func TestNetMaxDeterministic(t *testing.T) {
	a := Run(hetConfig(4, 3, 3), opts(nil))
	b := Run(hetConfig(4, 3, 3), opts(nil))
	if a.TotalTime != b.TotalTime || a.FinalLoss != b.FinalLoss {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", a.TotalTime, a.FinalLoss, b.TotalTime, b.FinalLoss)
	}
}

func TestNetMaxRegeneratesPolicies(t *testing.T) {
	cfg := hetConfig(4, 8, 3)
	w := watch(newBehavior(cfg, opts(nil)))
	engine.RunAsync(cfg, w, "NetMax")
	if w.policies < 2 {
		t.Fatalf("workers adopted only %d policies over a multi-period run", w.policies)
	}
}

func TestNetMaxFasterThanADPSGDHeterogeneous(t *testing.T) {
	// The headline claim (Fig. 8): on a heterogeneous network NetMax's
	// total training time beats AD-PSGD's for the same epoch count.
	nm := Run(hetConfig(8, 12, 11), opts(nil))
	ad := baselines.RunADPSGD(hetConfig(8, 12, 11))
	if nm.TotalTime >= ad.TotalTime {
		t.Fatalf("NetMax %vs not faster than AD-PSGD %vs", nm.TotalTime, ad.TotalTime)
	}
}

func TestNetMaxCommCostBelowADPSGD(t *testing.T) {
	// Fig. 5: NetMax's per-epoch communication cost is below AD-PSGD's.
	nm := Run(hetConfig(8, 12, 13), opts(nil))
	ad := baselines.RunADPSGD(hetConfig(8, 12, 13))
	if nm.CommCostPerEpoch(8) >= ad.CommCostPerEpoch(8) {
		t.Fatalf("NetMax comm %v >= AD-PSGD %v", nm.CommCostPerEpoch(8), ad.CommCostPerEpoch(8))
	}
	// Computation cost should be essentially identical (same model).
	if math.Abs(nm.CompCostPerEpoch(8)-ad.CompCostPerEpoch(8)) > 0.3*ad.CompCostPerEpoch(8) {
		t.Fatalf("comp costs diverge: %v vs %v", nm.CompCostPerEpoch(8), ad.CompCostPerEpoch(8))
	}
}

func TestNetMaxHomogeneousMatchesADPSGD(t *testing.T) {
	// Fig. 9: on a homogeneous network NetMax behaves like AD-PSGD (its
	// policy approaches uniform), so epoch times should be close.
	mk := func() *engine.Config {
		cfg := hetConfig(8, 8, 1)
		cfg.Net = simnet.NewHomogeneous(simnet.SingleMachine(8))
		return cfg
	}
	nm := Run(mk(), opts(nil))
	ad := baselines.RunADPSGD(mk())
	ratio := nm.TotalTime / ad.TotalTime
	if ratio > 1.5 || ratio < 0.5 {
		t.Fatalf("homogeneous NetMax/AD-PSGD time ratio = %v, want ~1", ratio)
	}
}

func TestUniformPolicyOptionDisablesAdaptation(t *testing.T) {
	adaptive := Run(hetConfig(8, 10, 17), opts(nil))
	uniform := Run(hetConfig(8, 10, 17), opts(func(o *Options) { o.UniformPolicy = true }))
	// Fig. 7: adaptive probabilities are the main source of gain.
	if adaptive.TotalTime >= uniform.TotalTime {
		t.Fatalf("adaptive (%v) not faster than uniform (%v)", adaptive.TotalTime, uniform.TotalTime)
	}
}

func TestADPSGDMonitorBetweenADPSGDAndNetMax(t *testing.T) {
	// Fig. 15: AD-PSGD+Monitor is faster than plain AD-PSGD in time.
	ext := RunADPSGDMonitor(hetConfig(8, 10, 19), opts(nil))
	ad := baselines.RunADPSGD(hetConfig(8, 10, 19))
	if ext.TotalTime >= ad.TotalTime {
		t.Fatalf("AD-PSGD+Monitor (%v) not faster than AD-PSGD (%v)", ext.TotalTime, ad.TotalTime)
	}
	if ext.Algo != "AD-PSGD+Monitor" {
		t.Fatalf("algo label = %q", ext.Algo)
	}
}

func TestBlendCoefScalesInverselyWithProbability(t *testing.T) {
	cfg := hetConfig(4, 1, 3)
	b := newBehavior(cfg, opts(nil))
	b.peers[0].row = []float64{0, 0.8, 0.1, 0.1}
	cHigh := b.BlendCoef(0, 1) // frequently selected neighbor
	cLow := b.BlendCoef(0, 2)  // rarely selected neighbor
	if cLow <= cHigh {
		t.Fatalf("low-probability neighbor should get larger weight: %v vs %v", cLow, cHigh)
	}
	// Exact ratio: c ∝ 1/p, so cLow/cHigh = 8 (unless clamped at 1).
	if cLow < 1 && math.Abs(cLow/cHigh-8) > 1e-9 {
		t.Fatalf("blend ratio = %v, want 8", cLow/cHigh)
	}
}

func TestBlendCoefClamped(t *testing.T) {
	cfg := hetConfig(4, 1, 3)
	b := newBehavior(cfg, opts(nil))
	b.peers[0].rho = 1e6 // absurd rho must not produce a divergent blend
	if c := b.BlendCoef(0, 1); c > 1 {
		t.Fatalf("blend coefficient %v > 1", c)
	}
}

func TestSelectPeerRespectsPolicySupport(t *testing.T) {
	cfg := hetConfig(4, 1, 3)
	b := newBehavior(cfg, opts(nil))
	b.peers[0].row = []float64{0, 1, 0, 0}
	ws := cfg.Workers()
	for k := 0; k < 100; k++ {
		if j := b.SelectPeer(0, 0, ws[0].Rng); j != 1 {
			t.Fatalf("selected %d with deterministic policy", j)
		}
	}
}

func TestFixedBlendOption(t *testing.T) {
	cfg := hetConfig(4, 1, 3)
	b := newBehavior(cfg, opts(func(o *Options) { o.FixedBlend = true }))
	if c := b.BlendCoef(0, 1); c != 0.5 {
		t.Fatalf("fixed blend = %v, want 0.5", c)
	}
}

// TestOptionsDefaults pins the defaults core still owns: β is the paper's
// 0.5, and a zero PolicyRounds selects policy.DefaultRounds, so leaving it
// unset and setting the default give the same run.
func TestOptionsDefaults(t *testing.T) {
	if DefaultBeta != 0.5 || policy.DefaultRounds != 10 {
		t.Fatalf("DefaultBeta = %v, policy.DefaultRounds = %d; want 0.5 and 10", DefaultBeta, policy.DefaultRounds)
	}
	a := Run(hetConfig(4, 2, 3), opts(func(o *Options) { o.PolicyRounds = 0 }))
	b := Run(hetConfig(4, 2, 3), opts(nil))
	if a.TotalTime != b.TotalTime || a.FinalLoss != b.FinalLoss {
		t.Fatalf("zero PolicyRounds differs from the default: %v/%v vs %v/%v",
			a.TotalTime, a.FinalLoss, b.TotalTime, b.FinalLoss)
	}
}

func TestEMAUpdateRule(t *testing.T) {
	cfg := hetConfig(4, 1, 3)
	b := newBehavior(cfg, opts(nil))
	b.OnIterationEnd(0, 1, 2.0, 0)
	if b.peers[0].ema[1] != 2.0 {
		t.Fatalf("first observation should seed EMA, got %v", b.peers[0].ema[1])
	}
	b.OnIterationEnd(0, 1, 4.0, 1)
	if math.Abs(b.peers[0].ema[1]-3.0) > 1e-12 {
		t.Fatalf("EMA = %v, want 0.5*2 + 0.5*4 = 3", b.peers[0].ema[1])
	}
	b.OnIterationEnd(2, 2, 9.0, 2)
	if b.peers[2].ema[2] != 0 {
		t.Fatal("self iteration should not touch EMA")
	}
}

// TestNetMaxSurvivesCrashRejoin runs NetMax end to end through a crash +
// rejoin with monitor liveness tracking enabled: the run must finish every
// epoch, keep the loss decreasing in trend, and leave no peer masked.
func TestNetMaxSurvivesCrashRejoin(t *testing.T) {
	clean := Run(hetConfig(4, 4, 3), opts(nil))
	cfg := hetConfig(4, 4, 3)
	cfg.Failures = simnet.NewFailureSchedule().
		Crash(1, clean.TotalTime*0.25, clean.TotalTime*0.55)
	r := Run(cfg, opts(func(o *Options) { o.StalePeriods = 2 }))
	if r.Epochs != 4 {
		t.Fatalf("churn run completed %d epochs, want 4", r.Epochs)
	}
	n := len(r.Curve)
	if !(r.Curve[n-1].Value < r.Curve[0].Value) {
		t.Fatalf("loss trend not decreasing through churn: %v -> %v",
			r.Curve[0].Value, r.Curve[n-1].Value)
	}
	if math.IsNaN(r.FinalLoss) || math.IsInf(r.FinalLoss, 0) {
		t.Fatalf("final loss not finite: %v", r.FinalLoss)
	}
}

// TestNetMaxFailureFreeScheduleIdentical pins the bitwise gate one level
// up: a NetMax run with an inert schedule attached matches the bare run.
func TestNetMaxFailureFreeScheduleIdentical(t *testing.T) {
	a := Run(hetConfig(4, 2, 3), opts(nil))
	cfg := hetConfig(4, 2, 3)
	cfg.Failures = simnet.NewFailureSchedule() // empty
	b := Run(cfg, opts(nil))
	if a.TotalTime != b.TotalTime || a.FinalLoss != b.FinalLoss || a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("inert schedule changed the trajectory: %v/%v vs %v/%v",
			a.TotalTime, a.FinalLoss, b.TotalTime, b.FinalLoss)
	}
}

// TestNetMaxReadmitsEvictedWorker is the regression test for the exile
// loop: a worker down long enough to be evicted used to adopt the policy
// row pinned to self, never pull, never report, and never be re-admitted —
// while the coverage gate froze policy regeneration for the whole cluster.
// After the rejoin, the worker must end the run live and receiving pulls.
func TestNetMaxReadmitsEvictedWorker(t *testing.T) {
	clean := Run(hetConfig(4, 2, 3), opts(nil))
	cfg := hetConfig(4, 8, 3)
	// Down for many staleness windows (Ts=2, k=1): guaranteed eviction.
	crashAt := clean.TotalTime * 0.5
	rejoinAt := crashAt + 10*2
	cfg.Failures = simnet.NewFailureSchedule().Crash(1, crashAt, rejoinAt)
	b := watch(newBehavior(cfg, opts(func(o *Options) { o.StalePeriods = 1 })))
	r := engine.RunAsync(cfg, b, "NetMax")
	if r.Epochs != 8 {
		t.Fatalf("run completed %d epochs, want 8", r.Epochs)
	}
	if !b.excluded {
		t.Fatal("worker was never evicted; the scenario did not exercise re-admission")
	}
	if b.peers[0].Row()[1] == 0 {
		t.Fatal("rejoined worker still receives no pulls at run end (exile loop)")
	}
	// A self-pinned row is adopted as the uniform fallback, so ending on
	// that fallback means the last policy still pinned worker 1 to self.
	if row := b.peers[1].Row(); &row[0] == &b.peers[1].uniform[0] {
		t.Fatalf("final policy still pins the rejoined worker to self: %v", row)
	}
}

// TestPeerAdoptsUniformForSelfPinnedRow checks the Peer's worker-side
// rule: the initial uniform blend coefficient is αρ·deg = 1/8, a policy
// row that pins the worker to itself falls back to the uniform row without
// writing into the shared policy, the fallback blends with a positive
// coefficient, and UpdateTime seeds then smooths the EMA.
func TestPeerAdoptsUniformForSelfPinnedRow(t *testing.T) {
	adj := simnet.FullyConnected(4)
	peers := NewPeers(adj, 0.1, 0.5)
	if c := peers[2].Coef(0); math.Abs(c-1.0/8) > 1e-12 {
		t.Fatalf("initial uniform blend coefficient = %v, want 1/8", c)
	}
	P := [][]float64{
		{0, 0.5, 0.25, 0.25},
		{0, 1, 0, 0}, // worker 1 presumed dead
		{0.5, 0, 0, 0.5},
		{0.5, 0, 0.5, 0},
	}
	peers[1].Adopt(P, 2)
	if want := policy.Uniform(adj)[1]; !reflect.DeepEqual(peers[1].Row(), want) {
		t.Fatalf("self-pinned row adopted as %v, want uniform %v", peers[1].Row(), want)
	}
	if !reflect.DeepEqual(P[1], []float64{0, 1, 0, 0}) {
		t.Fatalf("Adopt wrote into the shared policy: row 1 = %v", P[1])
	}
	if c := peers[1].Coef(0); !(c > 0) {
		t.Fatalf("fallback row blends with coefficient %v, want > 0", c)
	}
	peers[0].Adopt(P, 2)
	if !reflect.DeepEqual(peers[0].Row(), P[0]) {
		t.Fatalf("peer row = %v, want the policy's %v", peers[0].Row(), P[0])
	}
	if got := peers[0].UpdateTime(1, 2); got != 2 {
		t.Fatalf("first observation should seed the EMA, got %v", got)
	}
	if got := peers[0].UpdateTime(1, 4); got != 3 {
		t.Fatalf("EMA = %v, want 0.5*2 + 0.5*4 = 3", got)
	}
}
