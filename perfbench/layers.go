package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"netmax/internal/codec"
	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/monitor"
	"netmax/internal/nn"
	"netmax/internal/policy"
	"netmax/internal/scenario"
	"netmax/internal/simnet"
)

// The per-layer metrics, in the order BENCHMARK.json lists them. A traced
// run reports every one of them; a layer the workload does not pass through
// reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"scenario.build_ms", "ms"},
	{"data.generate_ms", "ms"},
	{"simnet.build_ms", "ms"},
	{"simnet.build_alloc_mb", "MB"},
	{"simnet.schedule_entries", "count"},
	{"simnet.lookup_ns", "ns"},
	{"nn.grad_step_us", "us"},
	{"nn.grad_step_allocs", "count"},
	{"nn.compute_share", "ratio"},
	{"engine.steps", "count"},
	{"engine.residual_share", "ratio"},
	{"engine.virtual_time_s", "s"},
	{"engine.speedup_vs_adpsgd", "ratio"},
	{"train.final_loss", "loss"},
	{"policy.generate_ms", "ms"},
	{"policy.generate_ms.n8", "ms"},
	{"policy.generate_ms.n16", "ms"},
	{"policy.generate_ms.n32", "ms"},
	{"policy.regenerations", "count"},
	{"policy.control_share", "ratio"},
	{"monitor.observe_ns", "ns"},
	{"codec.encode_us", "us"},
	{"codec.decode_us", "us"},
	{"codec.bytes_per_pull", "bytes"},
	{"transport.pull_us_p50", "us"},
	{"transport.pull_us_p99", "us"},
	{"transport.pull_samples", "count"},
	{"transport.report_us_p50", "us"},
	{"transport.fetch_policy_us_p50", "us"},
	{"transport.pull_errors", "count"},
	{"live.pulls_per_s", "1/s"},
	{"live.pull_fail_ratio", "ratio"},
	{"live.pull_wait_share", "ratio"},
	{"live.pulls_per_iteration", "ratio"},
	{"live.policy_versions", "count"},
	{"run.cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_s", "s"},
}

// timeBatch calls f n times in one timed loop, records the loop as one span
// covering n calls, and returns the mean duration of a call. It suits calls
// too cheap to time one by one.
func timeBatch(tr *tracer, name, run string, parent, n int, f func(k int)) time.Duration {
	t0 := time.Now()
	for k := 0; k < n; k++ {
		f(k)
	}
	t1 := time.Now()
	tr.record(name, run, parent, t0, t1, n)
	return t1.Sub(t0) / time.Duration(n)
}

// probe times f reps times, recording each call as a span, and returns the
// median duration of a call.
func probe(tr *tracer, name, run string, parent, reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for k := range ds {
		t0 := time.Now()
		f()
		t1 := time.Now()
		tr.record(name, run, parent, t0, t1, 1)
		ds[k] = float64(t1.Sub(t0))
	}
	return time.Duration(median(ds))
}

// buildNetwork calls the simnet constructor a resolved engine manifest
// names, with the manifest's arguments.
func buildNetwork(m *scenario.Manifest) (*simnet.Network, error) {
	n := m.Network
	switch n.Kind {
	case "heterogeneous":
		return simnet.NewHeterogeneousPeriod(simnet.PaperCluster(m.Workers), *n.Seed, n.HorizonSecs, n.PeriodSecs), nil
	case "homogeneous":
		return simnet.NewHomogeneous(simnet.SingleMachine(m.Workers)), nil
	}
	return nil, fmt.Errorf("perfbench: no network probe for kind %q", n.Kind)
}

// timesMatrix is the iteration-time matrix a monitor would collect on net:
// each link's IterationTime at virtual time now.
func timesMatrix(net *simnet.Network, bytes int64, compute, now float64, overlap bool) [][]float64 {
	m := net.Topo.M
	t := make([][]float64, m)
	for i := range t {
		t[i] = make([]float64, m)
		for j := range t[i] {
			if i != j {
				t[i][j] = net.IterationTime(i, j, bytes, compute, now, overlap)
			}
		}
	}
	return t
}

// generatePolicy times policy.Generate on a times matrix, as the monitor
// calls it with the default grid.
func generatePolicy(tr *tracer, run string, parent, reps int, times [][]float64, adj [][]bool, alpha float64) (time.Duration, error) {
	in := policy.Input{Times: times, Adj: adj, Alpha: alpha}
	if _, err := policy.Generate(in); err != nil {
		return 0, fmt.Errorf("policy.Generate on N=%d: %w", len(times), err)
	}
	// The call above returned no error; the timed repetitions are identical.
	return probe(tr, "policy.generate", run, parent, reps, func() { _, _ = policy.Generate(in) }), nil
}

// gradStep times engine.Worker.GradStep on the member's model, shard and
// batch size, and counts its heap allocations.
func gradStep(tr *tracer, run string, parent int, cfg *engine.Config) (time.Duration, float64) {
	w := cfg.Workers()[0]
	for k := 0; k < 20; k++ { // let the tensor pools fill
		w.GradStep()
	}
	const n = 300
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := probe(tr, "nn.grad_step", run, parent, n, func() { w.GradStep() })
	runtime.ReadMemStats(&after)
	return d, float64(after.Mallocs-before.Mallocs) / n
}

// observe times monitor.ObserveAt over random links of an N-worker graph.
func observe(tr *tracer, run string, parent int, adj [][]bool) time.Duration {
	mo := monitor.New(monitor.Config{Adj: adj, Alpha: 0.1, Period: 1})
	m := len(adj)
	rng := rand.New(rand.NewSource(1))
	const n = 200_000
	links := make([][2]int, 1024)
	for k := range links {
		i := rng.Intn(m)
		j := (i + 1 + rng.Intn(m-1)) % m
		links[k] = [2]int{i, j}
	}
	return timeBatch(tr, "monitor.observe", run, parent, n, func(k int) {
		l := links[k%len(links)]
		mo.ObserveAt(l[0], l[1], 0.1+float64(k%7)*0.01, float64(k)*1e-3)
	})
}

// policyScaling times policy.Generate at N = 8, 16 and 32 on the paper
// cluster's network at virtual time 0, ResNet18-sized pulls.
func policyScaling(tr *tracer, parent int, seed int64, out map[string]float64) error {
	for _, c := range []struct {
		n, reps int
	}{{8, 9}, {16, 5}, {32, 3}} {
		topo := simnet.PaperCluster(c.n)
		net := simnet.NewHeterogeneousPeriod(topo, seed, 60, scenario.DefaultSlowPeriod)
		spec := nn.SimResNet18
		times := timesMatrix(net, spec.ModelBytes(), spec.ComputeSecs, 0, true)
		d, err := generatePolicy(tr, fmt.Sprintf("scaling-n%d", c.n), parent, c.reps, times, topo.Adj, scenario.DefaultLR)
		if err != nil {
			return err
		}
		out[fmt.Sprintf("policy.generate_ms.n%d", c.n)] = ms(d)
	}
	return nil
}

// codecTimes times AppendEncode and DecodeInto on the member's model vector.
func codecTimes(tr *tracer, run string, parent int, c codec.Codec, vec []float64) (enc, dec time.Duration, err error) {
	const n = 2000
	payload := c.AppendEncode(nil, vec)
	dst := make([]float64, len(vec))
	prior := make([]float64, len(vec))
	if err := c.DecodeInto(payload, dst, prior); err != nil {
		return 0, 0, fmt.Errorf("codec %s: %w", c.Name(), err)
	}
	buf := make([]byte, 0, len(payload))
	// The decode above succeeded; the timed repetitions decode the same payload.
	enc = timeBatch(tr, "codec.encode", run, parent, n, func(int) { buf = c.AppendEncode(buf[:0], vec) })
	dec = timeBatch(tr, "codec.decode", run, parent, n, func(int) { _ = c.DecodeInto(payload, dst, prior) })
	return enc, dec, nil
}

// dataGenerate times data.Spec.Generate with the member's dataset and seed.
func dataGenerate(tr *tracer, m *scenario.Manifest, parent int) (time.Duration, error) {
	ds, err := data.SpecByName(m.Dataset)
	if err != nil {
		return 0, err
	}
	return probe(tr, "data.generate", m.Name, parent, 5, func() { ds.Generate(m.Seed) }), nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
