package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"netmax/internal/baselines"
	"netmax/internal/codec"
	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/live"
	"netmax/internal/nn"
	"netmax/internal/simnet"
	"netmax/internal/transport"
)

// BuildEngine translates an engine-runtime manifest into a ready-to-run
// engine.Config plus the algorithm runner that executes it. It is the one
// place outside tests that assembles an engine.Config: the paper figures,
// the examples and the public API all describe their runs as manifests and
// reach it through Run or RunSuite. The manifest is resolved first, so
// callers may pass either raw or resolved manifests. The construction
// matches the hand-assembled reference in determinism_test.go call for call
// (same constructors, same argument order, same RNG consumption), which the
// manifest == flags gate enforces bitwise.
func (m *Manifest) BuildEngine() (*engine.Config, func(*engine.Config) *engine.Result, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	r := m.Resolved()
	if r.Runtime != "engine" {
		return nil, nil, fmt.Errorf("scenario %q: BuildEngine on runtime %q", r.Name, r.Runtime)
	}
	spec, err := nn.SpecByName(r.Model)
	if err != nil {
		return nil, nil, err
	}
	ds, err := data.SpecByName(r.Dataset)
	if err != nil {
		return nil, nil, err
	}
	train, test := ds.Generate(r.Seed)
	part, err := r.buildPartition(train)
	if err != nil {
		return nil, nil, err
	}
	net, err := r.buildNetwork()
	if err != nil {
		return nil, nil, err
	}
	cdc, err := r.buildCodec()
	if err != nil {
		return nil, nil, err
	}
	failures, err := r.buildFailures()
	if err != nil {
		return nil, nil, err
	}
	cfg := &engine.Config{
		Spec:         spec,
		Part:         part,
		Eval:         train.EvalSubset(),
		Test:         test,
		Net:          net,
		LR:           r.LR,
		Batch:        r.Batch,
		Epochs:       r.Epochs,
		Seed:         r.Seed,
		Overlap:      *r.Overlap,
		LRDecayEpoch: r.LRDecayEpoch,
		ComputeScale: r.buildComputeScale(),
		Parallelism:  r.Parallelism,
		Codec:        cdc,
		Failures:     failures,
	}
	run, err := r.engineRunner()
	if err != nil {
		return nil, nil, err
	}
	return cfg, run, nil
}

// engineRunner maps the manifest's algorithm name onto its runner.
func (r *Manifest) engineRunner() (func(*engine.Config) *engine.Result, error) {
	switch r.Algorithm {
	case "netmax":
		opts := r.coreOptions()
		return func(cfg *engine.Config) *engine.Result { return core.Run(cfg, opts) }, nil
	case "adpsgd-monitor":
		opts := r.coreOptions()
		return func(cfg *engine.Config) *engine.Result { return core.RunADPSGDMonitor(cfg, opts) }, nil
	case "adpsgd":
		return baselines.RunADPSGD, nil
	case "gossip":
		return baselines.RunGossip, nil
	case "saps":
		return baselines.RunSAPS, nil
	case "dlion":
		return baselines.RunDLion, nil
	case "hop":
		st := r.HopStaleness
		return func(cfg *engine.Config) *engine.Result { return baselines.RunHop(cfg, st) }, nil
	case "allreduce":
		return baselines.RunAllreduce, nil
	case "dpsgd":
		return baselines.RunSyncDPSGD, nil
	case "prague":
		return baselines.RunPrague, nil
	case "ps-sync":
		return baselines.RunPSSync, nil
	case "ps-async":
		return baselines.RunPSAsync, nil
	}
	return nil, fmt.Errorf("scenario %q: unknown algorithm %q", r.Name, r.Algorithm)
}

// coreOptions converts the resolved NetMax block into core.Options.
func (r *Manifest) coreOptions() core.Options {
	nm := r.NetMax
	if nm == nil {
		nm = &NetMaxSpec{TsSecs: DefaultMonitorTs}
	}
	return core.Options{
		Ts:            nm.TsSecs,
		Beta:          nm.Beta,
		PolicyRounds:  nm.PolicyRounds,
		Epsilon:       nm.Epsilon,
		UniformPolicy: nm.UniformPolicy,
		FixedBlend:    nm.FixedBlend,
		StalePeriods:  nm.StalePeriods,
	}
}

// buildTopology materializes the topology spec.
func (r *Manifest) buildTopology() (*simnet.Topology, error) {
	t := r.Topology
	switch t.Kind {
	case "paper-cluster":
		return simnet.PaperCluster(r.Workers), nil
	case "single-machine":
		return simnet.SingleMachine(r.Workers), nil
	case "ring":
		topo := simnet.SingleMachine(r.Workers)
		topo.Adj = simnet.Ring(r.Workers)
		return topo, nil
	case "cluster":
		return simnet.Cluster(t.NodesPerMachine), nil
	case "cross-region":
		// The cross-region network carries its own six-region topology.
		return nil, nil
	}
	return nil, fmt.Errorf("scenario %q: unknown topology kind %q", r.Name, t.Kind)
}

// buildNetwork materializes the network spec.
func (r *Manifest) buildNetwork() (*simnet.Network, error) {
	n := r.Network
	if n.Kind == "cross-region" {
		return simnet.NewCrossRegion(), nil
	}
	topo, err := r.buildTopology()
	if err != nil {
		return nil, err
	}
	seed := r.Seed
	if n.Seed != nil {
		seed = *n.Seed
	}
	switch n.Kind {
	case "heterogeneous":
		return simnet.NewHeterogeneousPeriod(topo, seed, n.HorizonSecs, n.PeriodSecs), nil
	case "homogeneous":
		return simnet.NewHomogeneous(topo), nil
	case "static":
		return simnet.NewStatic(topo), nil
	case "shuffled":
		return simnet.NewShuffledRates(topo, seed, n.HorizonSecs, n.PeriodSecs), nil
	}
	return nil, fmt.Errorf("scenario %q: unknown network kind %q", r.Name, n.Kind)
}

// buildPartition materializes the partition spec over the training set.
func (r *Manifest) buildPartition(train *data.Dataset) (*data.Partition, error) {
	p := r.Partition
	switch p.Kind {
	case "uniform":
		return data.Uniform(train, r.Workers, r.Seed), nil
	case "segments":
		return data.Segments(train, p.Segments, r.Seed), nil
	case "label-skew":
		return data.LabelSkew(train, p.LostLabels, r.Seed), nil
	}
	return nil, fmt.Errorf("scenario %q: unknown partition kind %q", r.Name, p.Kind)
}

// buildCodec materializes the codec spec; nil means no codec (the engine's
// uncompressed float32-on-the-wire bandwidth model).
func (r *Manifest) buildCodec() (codec.Codec, error) {
	c := r.Codec
	if c == nil {
		return nil, nil
	}
	if c.Name == "topk" {
		return codec.NewTopK(c.TopKFrac), nil
	}
	return codec.ByName(c.Name)
}

// buildComputeScale materializes the compute-heterogeneity distribution.
func (r *Manifest) buildComputeScale() []float64 {
	c := r.Compute
	if c == nil {
		return nil
	}
	switch c.Kind {
	case "explicit":
		return append([]float64(nil), c.Scale...)
	case "straggler":
		scale := make([]float64, r.Workers)
		for i := range scale {
			scale[i] = 1
		}
		scale[c.Worker] = c.Factor
		return scale
	case "linear":
		scale := make([]float64, r.Workers)
		for i := range scale {
			frac := 0.0
			if r.Workers > 1 {
				frac = float64(i) / float64(r.Workers-1)
			}
			scale[i] = c.Min + frac*(c.Max-c.Min)
		}
		return scale
	case "lognormal":
		seed := r.Seed
		if c.Seed != nil {
			seed = *c.Seed
		}
		rng := rand.New(rand.NewSource(seed))
		scale := make([]float64, r.Workers)
		for i := range scale {
			// Median 1: half the workers are faster than nominal, half
			// slower, with Sigma controlling the spread.
			scale[i] = math.Exp(rng.NormFloat64() * c.Sigma)
		}
		return scale
	}
	return nil
}

// buildFailures materializes the failure spec into a simnet schedule; a nil
// spec yields a nil schedule (the bitwise failure-free path).
func (r *Manifest) buildFailures() (*simnet.FailureSchedule, error) {
	f := r.Failures
	if f == nil {
		return nil, nil
	}
	s := simnet.NewFailureSchedule()
	s.DetectSecs = f.DetectSecs
	if rc := f.RandomChurn; rc != nil {
		seed := r.Seed
		if rc.Seed != nil {
			seed = *rc.Seed
		}
		churn := simnet.NewRandomChurn(r.Workers, seed, rc.HorizonSecs, rc.CrashesPerWorker, rc.MeanDownSecs)
		for _, ev := range churn.Events() {
			s.Crash(ev.Worker, ev.Start, ev.End)
		}
	}
	for _, ev := range f.Events {
		switch ev.Kind {
		case "crash":
			s.Crash(ev.Worker, ev.At, ev.Rejoin)
		case "hang":
			s.Hang(ev.Worker, ev.At, ev.Until)
		case "leave":
			s.Leave(ev.Worker, ev.At)
		case "blackout":
			s.Blackout(ev.A, ev.B, ev.At, ev.Until)
		default:
			return nil, fmt.Errorf("scenario %q: unknown failure kind %q", r.Name, ev.Kind)
		}
	}
	return s, nil
}

// BuildLive translates a live-runtime manifest into a live.Config plus a
// transport hub. The returned closer releases the hub's resources (a no-op
// for the in-process transport) and must be called after the run.
func (m *Manifest) BuildLive() (live.Config, live.Hub, func() error, error) {
	noop := func() error { return nil }
	if err := m.Validate(); err != nil {
		return live.Config{}, nil, noop, err
	}
	r := m.Resolved()
	if r.Runtime != "live" {
		return live.Config{}, nil, noop, fmt.Errorf("scenario %q: BuildLive on runtime %q", r.Name, r.Runtime)
	}
	spec, err := nn.SpecByName(r.Model)
	if err != nil {
		return live.Config{}, nil, noop, err
	}
	ds, err := data.SpecByName(r.Dataset)
	if err != nil {
		return live.Config{}, nil, noop, err
	}
	train, test := ds.Generate(r.Seed)
	part, err := r.buildPartition(train)
	if err != nil {
		return live.Config{}, nil, noop, err
	}
	cdc, err := r.buildCodec()
	if err != nil {
		return live.Config{}, nil, noop, err
	}
	l := r.Live
	cfg := live.Config{
		Spec:         spec,
		Part:         part,
		Test:         test,
		LR:           r.LR,
		Batch:        r.Batch,
		Seed:         r.Seed,
		Ts:           time.Duration(l.TsMillis) * time.Millisecond,
		Beta:         l.Beta,
		Duration:     time.Duration(l.DurationSecs * float64(time.Second)),
		Iterations:   l.Iterations,
		Uniform:      l.Uniform,
		Codec:        cdc,
		StalePeriods: l.StalePeriods,
	}
	switch {
	case l.PullTimeoutSecs < 0:
		cfg.PullTimeout = -1
	default:
		cfg.PullTimeout = time.Duration(l.PullTimeoutSecs * float64(time.Second))
	}
	for _, ev := range l.Churn {
		cfg.Churn = append(cfg.Churn, live.ChurnEvent{
			Worker: ev.Worker,
			At:     time.Duration(ev.AtSecs * float64(time.Second)),
			Rejoin: time.Duration(ev.RejoinSecs * float64(time.Second)),
		})
	}
	if l.Transport == "tcp" {
		hub, err := transport.NewTCPHub()
		if err != nil {
			return live.Config{}, nil, noop, fmt.Errorf("scenario %q: tcp hub: %w", r.Name, err)
		}
		return cfg, hub, hub.Close, nil
	}
	ln := transport.NewLocalNet()
	if lat := l.Latency; lat != nil {
		colocated, intra, inter := lat.Colocated, lat.IntraMillis, lat.InterMillis
		ln.Latency = func(i, j int, _ time.Time) time.Duration {
			if (i < colocated) == (j < colocated) {
				return time.Duration(intra * float64(time.Millisecond))
			}
			return time.Duration(inter * float64(time.Millisecond))
		}
	}
	return cfg, ln, noop, nil
}
