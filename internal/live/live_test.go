package live

import (
	"context"
	"testing"
	"time"

	"netmax/internal/codec"
	"netmax/internal/data"
	"netmax/internal/nn"
	"netmax/internal/transport"
)

// TestLiveGroupSurvivesCrashRejoin injects a crash + rejoin through the
// churn schedule: the run must finish, record peer-down pulls (the failed
// neighbor was masked, not fatal), and still produce a finite consensus
// model with everyone else iterating.
func TestLiveGroupSurvivesCrashRejoin(t *testing.T) {
	hub := transport.NewLocalNet()
	// Slow iterations down to ~1ms so the wall-clock churn window overlaps
	// a substantial stretch of the run.
	hub.Latency = func(i, j int, _ time.Time) time.Duration { return time.Millisecond }
	cfg := liveConfig(4, 200)
	cfg.Ts = 40 * time.Millisecond
	cfg.StalePeriods = 2
	cfg.PullTimeout = 200 * time.Millisecond
	cfg.Churn = []ChurnEvent{{Worker: 2, At: 30 * time.Millisecond, Rejoin: 150 * time.Millisecond}}
	stats := Run(context.Background(), cfg, hub)
	if stats.PeerDownErrors == 0 {
		t.Fatal("crash produced no ErrPeerDown pulls")
	}
	for i, c := range stats.IterationsPerWorker {
		if i != 2 && c != 200 {
			t.Fatalf("surviving worker %d did %d iterations, want 200", i, c)
		}
	}
	if stats.IterationsPerWorker[2] == 0 {
		t.Fatal("rejoining worker never iterated")
	}
	if !(stats.FinalLoss > 0) || stats.FinalAccuracy <= 0 {
		t.Fatalf("consensus model degenerate after churn: loss=%v acc=%v", stats.FinalLoss, stats.FinalAccuracy)
	}
}

// TestLiveGroupPermanentLeave verifies a worker that leaves for good: the
// survivors finish their iterations and the run terminates.
func TestLiveGroupPermanentLeave(t *testing.T) {
	hub := transport.NewLocalNet()
	hub.Latency = func(i, j int, _ time.Time) time.Duration { return time.Millisecond }
	cfg := liveConfig(3, 120)
	cfg.PullTimeout = 200 * time.Millisecond
	cfg.Churn = []ChurnEvent{{Worker: 1, At: 20 * time.Millisecond, Rejoin: 0}} // Rejoin <= At: leave
	done := make(chan *Stats, 1)
	go func() { done <- Run(context.Background(), cfg, hub) }()
	select {
	case stats := <-done:
		if stats.IterationsPerWorker[0] != 120 || stats.IterationsPerWorker[2] != 120 {
			t.Fatalf("survivors did not finish: %v", stats.IterationsPerWorker)
		}
		if stats.IterationsPerWorker[1] == 120 {
			t.Fatal("leaver completed every iteration; churn never fired")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run with a permanent leaver did not terminate")
	}
}

// TestLiveGroupCrashOverTCP drives the crash path over real sockets: the
// down endpoint drops connections, peers classify ErrPeerDown and finish.
func TestLiveGroupCrashOverTCP(t *testing.T) {
	hub, err := transport.NewTCPHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	// Bound the run by wall clock, not iterations, so it outlasts the
	// crash window on any host: an iteration bound lets fast survivors
	// finish before the crash fires and never pull from the downed peer.
	cfg := liveConfig(3, 0)
	cfg.Duration = 400 * time.Millisecond
	cfg.PullTimeout = 300 * time.Millisecond
	cfg.Churn = []ChurnEvent{{Worker: 0, At: 20 * time.Millisecond, Rejoin: 200 * time.Millisecond}}
	stats := Run(context.Background(), cfg, hub)
	if stats.IterationsPerWorker[1] == 0 || stats.IterationsPerWorker[2] == 0 {
		t.Fatalf("survivors made no progress over TCP: %v", stats.IterationsPerWorker)
	}
	if stats.PeerDownErrors == 0 {
		t.Fatal("TCP crash produced no ErrPeerDown pulls")
	}
}

func liveConfig(workers, iters int) Config {
	train, test := data.SynthMNIST.Generate(1)
	return Config{
		Spec:       nn.SimMobileNet,
		Part:       data.Uniform(train, workers, 1),
		Test:       test,
		LR:         0.1,
		Batch:      16,
		Seed:       7,
		Ts:         50 * time.Millisecond,
		Iterations: iters,
	}
}

func TestLiveGroupTrains(t *testing.T) {
	hub := transport.NewLocalNet()
	stats := Run(context.Background(), liveConfig(4, 150), hub)
	if stats.FinalAccuracy < 0.85 {
		t.Fatalf("live accuracy = %v, want >= 0.85", stats.FinalAccuracy)
	}
	for i, c := range stats.IterationsPerWorker {
		if c != 150 {
			t.Fatalf("worker %d did %d iterations, want 150", i, c)
		}
	}
}

func TestLiveGroupRegeneratesPolicy(t *testing.T) {
	hub := transport.NewLocalNet()
	// Inject strong latency asymmetry so the policy matters and iterations
	// are slow enough for several monitor periods to pass.
	hub.Latency = func(i, j int, _ time.Time) time.Duration {
		if (i < 2) == (j < 2) {
			return time.Millisecond
		}
		return 8 * time.Millisecond
	}
	cfg := liveConfig(4, 250)
	cfg.Ts = 60 * time.Millisecond
	stats := Run(context.Background(), cfg, hub)
	if stats.PolicyVersions == 0 {
		t.Fatal("monitor never published a policy")
	}
}

func TestLiveGroupDurationBound(t *testing.T) {
	hub := transport.NewLocalNet()
	cfg := liveConfig(2, 0)
	cfg.Duration = 300 * time.Millisecond
	start := time.Now()
	stats := Run(context.Background(), cfg, hub)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run overshot duration bound: %v", elapsed)
	}
	// Iteration progress within the bound depends on machine load (this
	// test shares the CPU with the rest of the suite), so only report it.
	t.Logf("iterations within %v: %v", cfg.Duration, stats.IterationsPerWorker)
}

func TestLiveGroupContextCancel(t *testing.T) {
	hub := transport.NewLocalNet()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	cfg := liveConfig(2, 0) // unbounded iterations; relies on cancel
	done := make(chan struct{})
	go func() {
		Run(ctx, cfg, hub)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on context cancellation")
	}
}

func TestLiveGroupOverTCP(t *testing.T) {
	hub, err := transport.NewTCPHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	cfg := liveConfig(3, 80)
	stats := Run(context.Background(), cfg, hub)
	if stats.FinalAccuracy < 0.8 {
		t.Fatalf("TCP live accuracy = %v", stats.FinalAccuracy)
	}
	for i, c := range stats.IterationsPerWorker {
		if c != 80 {
			t.Fatalf("worker %d did %d iterations over TCP, want 80", i, c)
		}
	}
}

func TestLiveUniformMode(t *testing.T) {
	hub := transport.NewLocalNet()
	cfg := liveConfig(3, 60)
	cfg.Uniform = true
	stats := Run(context.Background(), cfg, hub)
	if stats.PolicyVersions != 0 {
		t.Fatalf("uniform mode published %d policies", stats.PolicyVersions)
	}
}

// TestCompressionCodecsReduceBytes is the acceptance gate for the
// communication-efficient transport: on SimMobileNet, the float32 and top-k
// codecs must cut bytes-on-wire by at least 2x versus raw while the trained
// consensus model stays within tolerance of the raw-codec accuracy.
func TestCompressionCodecsReduceBytes(t *testing.T) {
	run := func(c codec.Codec) *Stats {
		hub := transport.NewLocalNet()
		cfg := liveConfig(4, 120)
		cfg.Codec = c
		return Run(context.Background(), cfg, hub)
	}
	raw := run(codec.Raw{})
	f32 := run(codec.Float32{})
	topk := run(codec.NewTopK(0.25))

	if raw.Pulls == 0 || raw.BytesOnWire == 0 {
		t.Fatalf("raw run recorded no traffic: %+v", raw)
	}
	// Bytes-per-pull comparison: iteration counts are identical, but pull
	// counts can differ by the few self-pull draws, so normalize.
	perPull := func(s *Stats) float64 { return float64(s.BytesOnWire) / float64(s.Pulls) }
	if r := perPull(raw) / perPull(f32); r < 2 {
		t.Fatalf("float32 reduced bytes/pull by only %.2fx (raw %.0f, float32 %.0f)", r, perPull(raw), perPull(f32))
	}
	if r := perPull(raw) / perPull(topk); r < 2 {
		t.Fatalf("topk reduced bytes/pull by only %.2fx (raw %.0f, topk %.0f)", r, perPull(raw), perPull(topk))
	}
	// Accuracy within tolerance of the raw run.
	const tol = 0.05
	if f32.FinalAccuracy < raw.FinalAccuracy-tol {
		t.Fatalf("float32 accuracy %.3f fell more than %.2f below raw %.3f", f32.FinalAccuracy, tol, raw.FinalAccuracy)
	}
	if topk.FinalAccuracy < raw.FinalAccuracy-tol {
		t.Fatalf("topk accuracy %.3f fell more than %.2f below raw %.3f", topk.FinalAccuracy, tol, raw.FinalAccuracy)
	}
}

// TestLiveCodecOverTCP runs a short compressed group over real sockets so
// the codec id negotiation is exercised end to end in the live runtime.
func TestLiveCodecOverTCP(t *testing.T) {
	hub, err := transport.NewTCPHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	cfg := liveConfig(3, 60)
	cfg.Codec = codec.NewTopK(0.25)
	stats := Run(context.Background(), cfg, hub)
	if stats.FinalAccuracy < 0.7 {
		t.Fatalf("compressed TCP live accuracy = %v", stats.FinalAccuracy)
	}
	if stats.BytesOnWire == 0 || stats.Pulls == 0 {
		t.Fatalf("no traffic recorded: %+v", stats)
	}
}
