package engine

import (
	"math"
	"math/rand"
	"testing"

	"netmax/internal/data"
	"netmax/internal/nn"
	"netmax/internal/simnet"
)

func testConfig(workers, epochs int) *Config {
	train, test := data.SynthMNIST.Generate(1)
	idx := make([]int, 200)
	for i := range idx {
		idx[i] = i
	}
	return &Config{
		Spec:    nn.SimMobileNet,
		Part:    data.Uniform(train, workers, 1),
		Eval:    train.Slice(idx),
		Test:    test,
		Net:     simnet.NewHomogeneous(simnet.SingleMachine(workers)),
		LR:      0.1,
		Batch:   16,
		Epochs:  epochs,
		Seed:    7,
		Overlap: true,
	}
}

func TestWorkersIdenticalInit(t *testing.T) {
	cfg := testConfig(4, 1)
	ws := cfg.Workers()
	v0 := ws[0].Model.Vector()
	for _, w := range ws[1:] {
		v := w.Model.Vector()
		for i := range v {
			if v[i] != v0[i] {
				t.Fatal("workers start from different models")
			}
		}
	}
}

func TestWorkerBatchScalesWithSegments(t *testing.T) {
	train, test := data.SynthCIFAR100.Generate(2)
	cfg := testConfig(8, 1)
	cfg.Part = data.Segments(train, data.PaperSegments8(), 1)
	cfg.Test = test
	cfg.Batch = 64
	ws := cfg.Workers()
	if ws[0].Batch != 64 {
		t.Fatalf("worker 0 batch = %d, want 64", ws[0].Batch)
	}
	if ws[4].Batch != 128 {
		t.Fatalf("worker 4 (2 segments) batch = %d, want 128", ws[4].Batch)
	}
}

func TestGradStepReducesLocalLoss(t *testing.T) {
	cfg := testConfig(2, 1)
	ws := cfg.Workers()
	w := ws[0]
	first, _ := w.GradStep()
	var last float64
	for i := 0; i < 50; i++ {
		last, _ = w.GradStep()
	}
	if last > first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestGradOnlyDoesNotChangeModel(t *testing.T) {
	cfg := testConfig(2, 1)
	w := cfg.Workers()[0]
	before := w.Model.Vector()
	w.GradOnly()
	after := w.Model.Vector()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("GradOnly modified parameters")
		}
	}
}

func TestApplyGradMovesAgainstGradient(t *testing.T) {
	cfg := testConfig(2, 1)
	w := cfg.Workers()[0]
	w.GradOnly()
	g := w.Model.GradVector(make([]float64, w.Model.VectorLen()))
	before := w.Model.Vector()
	w.ApplyGrad(g)
	after := w.Model.Vector()
	// First step with momentum: delta = -lr * (g + wd*x).
	moved := false
	for i := range before {
		if before[i] != after[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("ApplyGrad did not move parameters")
	}
}

func TestQueueOrdering(t *testing.T) {
	var q Queue
	q.Push(3, 0)
	q.Push(1, 1)
	q.Push(2, 2)
	times := []float64{}
	for q.Len() > 0 {
		tm, _ := q.Pop()
		times = append(times, tm)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("queue not ordered: %v", times)
		}
	}
}

func TestQueueFIFOTieBreak(t *testing.T) {
	var q Queue
	q.Push(1, 10)
	q.Push(1, 20)
	q.Push(1, 30)
	_, a := q.Pop()
	_, b := q.Pop()
	_, c := q.Pop()
	if a != 10 || b != 20 || c != 30 {
		t.Fatalf("tie-break not FIFO: %d %d %d", a, b, c)
	}
}

func TestTrackerEpochDetection(t *testing.T) {
	cfg := testConfig(4, 3)
	ws := cfg.Workers()
	tr := NewTracker(cfg, ws, "test")
	total := 0
	for _, s := range cfg.Part.Shards {
		total += s.Len()
	}
	tr.OnIteration(1.0, total-1, 0.1, 0.2)
	if tr.epochsDone != 0 {
		t.Fatal("epoch counted early")
	}
	tr.OnIteration(2.0, 1, 0.1, 0.2)
	if tr.epochsDone != 1 {
		t.Fatalf("epochs = %d, want 1", tr.epochsDone)
	}
	if len(tr.res.Curve) != 1 {
		t.Fatalf("curve points = %d, want 1", len(tr.res.Curve))
	}
	tr.OnIteration(3.0, 2*total, 0.1, 0.2)
	if tr.epochsDone != 3 {
		t.Fatalf("epochs = %d, want 3 after bulk samples", tr.epochsDone)
	}
	if !tr.Done() {
		t.Fatal("tracker should be done after 3 epochs")
	}
}

func TestTrackerCostAccumulation(t *testing.T) {
	cfg := testConfig(2, 10)
	ws := cfg.Workers()
	tr := NewTracker(cfg, ws, "test")
	tr.OnIteration(1.0, 1, 0.5, 1.5)
	tr.OnIteration(2.0, 1, 0.5, 0.5)
	r := tr.Finish()
	if math.Abs(r.CompSecs-1.0) > 1e-12 || math.Abs(r.CommSecs-2.0) > 1e-12 {
		t.Fatalf("costs = %v/%v, want 1/2", r.CompSecs, r.CommSecs)
	}
	if r.GlobalSteps != 2 {
		t.Fatalf("steps = %d", r.GlobalSteps)
	}
	if r.TotalTime != 2.0 {
		t.Fatalf("total time = %v", r.TotalTime)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		Curve:     []Point{{Time: 10, Epoch: 1, Value: 0.9}, {Time: 20, Epoch: 2, Value: 0.4}, {Time: 30, Epoch: 3, Value: 0.2}},
		Epochs:    3,
		TotalTime: 30,
		CompSecs:  6,
		CommSecs:  12,
	}
	if got := r.TimeToLoss(0.5); got != 20 {
		t.Fatalf("TimeToLoss = %v", got)
	}
	if got := r.TimeToLoss(0.1); got != -1 {
		t.Fatalf("TimeToLoss unreachable = %v", got)
	}
	if got := r.EpochToLoss(0.4); got != 2 {
		t.Fatalf("EpochToLoss = %v", got)
	}
	if got := r.AvgEpochTime(); got != 10 {
		t.Fatalf("AvgEpochTime = %v", got)
	}
	if got := r.CompCostPerEpoch(2); got != 1 {
		t.Fatalf("CompCostPerEpoch = %v", got)
	}
	if got := r.CommCostPerEpoch(2); got != 2 {
		t.Fatalf("CommCostPerEpoch = %v", got)
	}
}

func TestAverageModelIsMean(t *testing.T) {
	cfg := testConfig(2, 1)
	ws := cfg.Workers()
	// Perturb worker 1.
	v := ws[1].Model.Vector()
	for i := range v {
		v[i] += 2
	}
	ws[1].Model.SetVector(v)
	avg := AverageModel(cfg, ws)
	av := avg.Vector()
	v0 := ws[0].Model.Vector()
	for i := range av {
		want := v0[i] + 1
		if math.Abs(av[i]-want) > 1e-12 {
			t.Fatalf("avg[%d] = %v, want %v", i, av[i], want)
		}
	}
}

// simpleBehavior is a uniform-random async behavior for engine-level tests.
type simpleBehavior struct{ m int }

func (s *simpleBehavior) SelectPeer(i int, now float64, rng *rand.Rand) int {
	j := rng.Intn(s.m - 1)
	if j >= i {
		j++
	}
	return j
}
func (s *simpleBehavior) BlendCoef(i, j int) float64              { return 0.5 }
func (s *simpleBehavior) OnIterationEnd(i, j int, t, now float64) {}
func (s *simpleBehavior) Tick(now float64)                        {}

func TestRunAsyncConvergesAndTerminates(t *testing.T) {
	cfg := testConfig(4, 8)
	r := RunAsync(cfg, &simpleBehavior{m: 4}, "uniform")
	if r.Epochs != 8 {
		t.Fatalf("epochs = %d, want 8", r.Epochs)
	}
	if len(r.Curve) != 8 {
		t.Fatalf("curve points = %d, want 8", len(r.Curve))
	}
	if r.FinalLoss >= r.Curve[0].Value {
		t.Fatalf("loss did not decrease: %v -> %v", r.Curve[0].Value, r.FinalLoss)
	}
	if r.FinalAccuracy < 0.8 {
		t.Fatalf("accuracy = %v, want >= 0.8 on easy MNIST", r.FinalAccuracy)
	}
	if r.TotalTime <= 0 || r.GlobalSteps == 0 {
		t.Fatalf("timing missing: %+v", r)
	}
}

func TestRunAsyncDeterministic(t *testing.T) {
	a := RunAsync(testConfig(4, 3), &simpleBehavior{m: 4}, "u")
	b := RunAsync(testConfig(4, 3), &simpleBehavior{m: 4}, "u")
	if a.TotalTime != b.TotalTime || a.FinalLoss != b.FinalLoss || a.GlobalSteps != b.GlobalSteps {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", a.TotalTime, a.FinalLoss, b.TotalTime, b.FinalLoss)
	}
}

func TestRunAsyncMonotonicCurveTimes(t *testing.T) {
	r := RunAsync(testConfig(4, 5), &simpleBehavior{m: 4}, "u")
	for i := 1; i < len(r.Curve); i++ {
		if r.Curve[i].Time < r.Curve[i-1].Time {
			t.Fatalf("curve times not monotonic: %v", r.Curve)
		}
		if r.Curve[i].Epoch <= r.Curve[i-1].Epoch {
			t.Fatalf("curve epochs not increasing: %v", r.Curve)
		}
	}
}

func TestLRDecayApplied(t *testing.T) {
	cfg := testConfig(2, 4)
	cfg.LRDecayEpoch = 2
	ws := cfg.Workers()
	tr := NewTracker(cfg, ws, "t")
	total := 0
	for _, s := range cfg.Part.Shards {
		total += s.Len()
	}
	tr.OnIteration(1, total, 0, 0) // epoch 1
	if ws[0].Opt.LR != cfg.LR {
		t.Fatal("LR decayed too early")
	}
	tr.OnIteration(2, total, 0, 0) // epoch 2
	if math.Abs(ws[0].Opt.LR-cfg.LR*0.1) > 1e-12 {
		t.Fatalf("LR = %v after decay epoch, want %v", ws[0].Opt.LR, cfg.LR*0.1)
	}
}

func TestSerialSlowerThanOverlap(t *testing.T) {
	mk := func(overlap bool) *Config {
		cfg := testConfig(4, 3)
		cfg.Net = simnet.NewStatic(simnet.PaperCluster(4))
		cfg.Spec = nn.SimResNet18
		cfg.Overlap = overlap
		return cfg
	}
	over := RunAsync(mk(true), &simpleBehavior{m: 4}, "o")
	serial := RunAsync(mk(false), &simpleBehavior{m: 4}, "s")
	if serial.TotalTime <= over.TotalTime {
		t.Fatalf("serial (%v) should be slower than overlapped (%v)", serial.TotalTime, over.TotalTime)
	}
}
