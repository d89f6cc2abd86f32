package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"netmax/internal/engine"
	"netmax/internal/nn"
	"netmax/internal/scenario"
	"netmax/internal/simnet"
)

// traceDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/traces"

// traced alternates untraced and traced passes until the budget is spent,
// then times each layer's public functions directly on the workload's
// inputs, and reports the per-layer metrics (medians over the traced
// passes for the pass-level ones).
func traced(w *workload, members []*scenario.Manifest, seed int64, par int, budget time.Duration, stdout io.Writer) (*result, error) {
	var o outcome
	tr := newTracer()
	series := make(map[string][]float64)
	var last []span
	var lastPass *pass
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < budget; n++ {
		u, err := runPass(members, par, nil)
		if err != nil {
			return nil, err
		}
		o.add(check(u))
		from := tr.count()
		t, err := runPass(members, par, tr)
		if err != nil {
			return nil, err
		}
		o.add(check(t))
		o.add(compareRuns(u, t))
		last, lastPass = tr.since(from), t
		for k, v := range passLayers(t, last) {
			series[k] = append(series[k], v)
		}
		series["trace.overhead_s"] = append(series["trace.overhead_s"], t.wall.Seconds()-u.wall.Seconds())
		fmt.Fprintf(stdout, "pair %d: untraced %.3fs, traced %.3fs\n", n+1, u.wall.Seconds(), t.wall.Seconds())
	}
	vals := make(map[string]float64)
	for k, xs := range series {
		vals[k] = median(xs)
	}

	from := tr.count()
	root := tr.open("probes", "", 0)
	if err := probeLayers(tr, root, members, lastPass, seed, vals); err != nil {
		return nil, err
	}
	tr.close(root)
	probeSpans := tr.since(from)

	cpu := vals["run.cpu_s"]
	vals["nn.compute_share"] = share(vals["nn.grad_step_us"]*1e-6*vals["steps"], cpu)
	vals["policy.control_share"] = share(vals["policy.generate_ms"]*1e-3*vals["policy.regenerations"], cpu)
	if members[0].Runtime != "live" {
		vals["engine.residual_share"] = 1 - vals["nn.compute_share"] - vals["policy.control_share"]
	} else {
		vals["live.pull_wait_share"] = pullWaitShare(last, lastPass, vals["nn.grad_step_us"]*1e-6)
	}
	vals["runtime.peak_rss_mb"] = peakRSSMB()

	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, "time by span, last traced pass and probes:")
	printSelfTimes(stdout, append(last, probeSpans...))
	fmt.Fprintf(stdout, "spans written to %s\n", path)

	metrics := make(map[string]metric, len(layerMetrics))
	fmt.Fprintf(stdout, "%-30s %14s  %s\n", "per-layer metric", "value", "unit")
	for _, l := range layerMetrics {
		v := vals[l.name]
		metrics[l.name] = metric{Value: v, Unit: l.unit}
		fmt.Fprintf(stdout, "%-30s %14.6g  %s\n", l.name, v, l.unit)
	}
	fmt.Fprintf(stdout, "shares are of run.cpu_s = %.4g CPU seconds (process CPU over a traced pass minus its setup)\n", cpu)
	if n := vals["transport.pull_samples"]; n > 0 {
		p, ok := tailPercentile(int(n))
		fmt.Fprintf(stdout, "transport.pull_us_p99 over %d samples; highest percentile with >= 10 samples beyond it: p%g (ok=%v)\n", int(n), p, ok)
	}
	return o.result(metrics, stdout), nil
}

// compareRuns checks that a traced pass reproduced the untraced pass's
// engine results bitwise: final loss, virtual time, steps and bytes.
func compareRuns(u, t *pass) (attempted, failed int, bad []string) {
	for k, ru := range u.runs {
		a, b := ru.engine, t.runs[k].engine
		if a == nil {
			continue
		}
		attempted++
		if math.Float64bits(a.FinalLoss) != math.Float64bits(b.FinalLoss) ||
			math.Float64bits(a.TotalTime) != math.Float64bits(b.TotalTime) ||
			a.GlobalSteps != b.GlobalSteps || a.BytesSent != b.BytesSent {
			failed++
			bad = append(bad, fmt.Sprintf("%s: traced run differs from untraced (loss %v/%v, time %v/%v, steps %d/%d, bytes %d/%d)",
				ru.m.Name, a.FinalLoss, b.FinalLoss, a.TotalTime, b.TotalTime, a.GlobalSteps, b.GlobalSteps, a.BytesSent, b.BytesSent))
		}
	}
	return attempted, failed, bad
}

// passLayers derives the per-layer metrics one traced pass measures by
// itself (the rest come from probeLayers).
func passLayers(p *pass, spans []span) map[string]float64 {
	out := make(map[string]float64)
	var setup time.Duration
	steps := 0
	for _, r := range p.runs {
		setup += r.setup
		steps += r.steps()
	}
	builds := durations(spansNamed(spans, "scenario.build"))
	out["scenario.build_ms"] = 1e3 * sum(builds) / float64(len(builds))
	out["run.cpu_s"] = p.cpu.Seconds() - setup.Seconds()
	out["runtime.gc_cycles"] = float64(p.gcCycles)
	out["runtime.gc_cpu_s"] = p.gcCPU
	out["steps"] = float64(steps)
	e := passMetrics(p)
	out["train.final_loss"] = e["final_loss"]
	if r := p.runs[0]; r.live != nil {
		s := r.live
		pulls := durations(spansNamed(spans, "transport.pull"))
		out["transport.pull_us_p50"] = 1e6 * percentile(pulls, 50)
		out["transport.pull_us_p99"] = 1e6 * percentile(pulls, 99)
		out["transport.pull_samples"] = float64(len(pulls))
		out["transport.report_us_p50"] = 1e6 * percentile(durations(spansNamed(spans, "transport.report")), 50)
		out["transport.fetch_policy_us_p50"] = 1e6 * percentile(durations(spansNamed(spans, "transport.fetch_policy")), 50)
		out["transport.pull_errors"] = float64(r.hub.pullErrors)
		out["live.pulls_per_s"] = e["pulls_per_s"]
		out["live.pull_fail_ratio"] = e["pull_fail_ratio"]
		out["live.pulls_per_iteration"] = share(float64(s.Pulls), float64(steps))
		out["live.policy_versions"] = float64(s.PolicyVersions)
		out["policy.regenerations"] = float64(s.PolicyVersions)
		out["codec.bytes_per_pull"] = share(float64(s.BytesOnWire), float64(s.Pulls))
		return out
	}
	out["engine.steps"] = float64(steps)
	out["engine.virtual_time_s"] = e["virtual_time_s"]
	out["engine.speedup_vs_adpsgd"] = e["speedup_vs_adpsgd"]
	// The engine's monitor regenerates once per period of virtual time.
	regen := 0.0
	for _, r := range p.runs {
		if r.m.NetMax != nil {
			regen += math.Floor(r.engine.TotalTime / r.m.NetMax.TsSecs)
		}
	}
	out["policy.regenerations"] = regen
	return out
}

// probeLayers times each layer's public functions directly, on the first
// member's inputs, and stores the per-layer metrics they give in vals.
func probeLayers(tr *tracer, root int, members []*scenario.Manifest, last *pass, seed int64, vals map[string]float64) error {
	m := members[0]
	d, err := dataGenerate(tr, m, root)
	if err != nil {
		return err
	}
	vals["data.generate_ms"] = ms(d)
	if err := policyScaling(tr, root, manifestSeed(seed), vals); err != nil {
		return err
	}
	if m.Runtime == "live" {
		cfg, _, closeHub, err := m.BuildLive()
		if err != nil {
			return err
		}
		if err := closeHub(); err != nil {
			return err
		}
		g, allocs := gradStep(tr, m.Name, root, &engine.Config{Spec: cfg.Spec, Part: cfg.Part, LR: cfg.LR, Batch: cfg.Batch, Seed: cfg.Seed})
		vals["nn.grad_step_us"], vals["nn.grad_step_allocs"] = us(g), allocs
		adj := fullGraph(m.Workers)
		gen, err := generatePolicy(tr, m.Name, root, 9, last.runs[0].hub.linkTimes(m.Workers), adj, cfg.LR)
		if err != nil {
			return err
		}
		vals["policy.generate_ms"] = ms(gen)
		vals["monitor.observe_ns"] = float64(observe(tr, m.Name, root, adj).Nanoseconds())
		shard := cfg.Part.Shards[0]
		vec := cfg.Spec.Build(cfg.Seed, shard.Dim(), shard.Classes).Vector()
		enc, dec, err := codecTimes(tr, m.Name, root, cfg.Codec, vec)
		if err != nil {
			return err
		}
		vals["codec.encode_us"], vals["codec.decode_us"] = us(enc), us(dec)
		return nil
	}

	cfg, _, err := m.BuildEngine()
	if err != nil {
		return err
	}
	g, allocs := gradStep(tr, m.Name, root, cfg)
	vals["nn.grad_step_us"], vals["nn.grad_step_allocs"] = us(g), allocs

	const builds = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var net *simnet.Network
	var probeErr error
	d = probe(tr, "simnet.build", m.Name, root, builds, func() {
		net, probeErr = buildNetwork(m)
	})
	runtime.ReadMemStats(&after)
	if probeErr != nil {
		return probeErr
	}
	vals["simnet.build_ms"] = ms(d)
	vals["simnet.build_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / builds / 1e6
	vals["simnet.schedule_entries"] = float64(net.SlowdownCount())

	spec, err := nn.SpecByName(m.Model)
	if err != nil {
		return err
	}
	bytes, compute, overlap := spec.ModelBytes(), spec.ComputeSecs, *m.Overlap
	horizon := last.runs[0].engine.TotalTime
	rng := rand.New(rand.NewSource(1))
	const lookups = 200_000
	pairs := make([][2]int, 1024)
	for k := range pairs {
		i := rng.Intn(m.Workers)
		pairs[k] = [2]int{i, (i + 1 + rng.Intn(m.Workers-1)) % m.Workers}
	}
	sink := 0.0
	lookup := timeBatch(tr, "simnet.lookup", m.Name, root, lookups, func(k int) {
		p := pairs[k%len(pairs)]
		sink += net.IterationTime(p[0], p[1], bytes, compute, horizon*float64(k)/lookups, overlap)
	})
	vals["simnet.lookup_ns"] = float64(lookup.Nanoseconds())
	if sink <= 0 {
		return fmt.Errorf("simnet lookups returned no time")
	}

	if m.NetMax != nil {
		gen, err := generatePolicy(tr, m.Name, root, 9, timesMatrix(net, bytes, compute, 0, overlap), net.Topo.Adj, m.LR)
		if err != nil {
			return err
		}
		vals["policy.generate_ms"] = ms(gen)
	}
	vals["monitor.observe_ns"] = float64(observe(tr, m.Name, root, net.Topo.Adj).Nanoseconds())
	return nil
}

// pullWaitShare estimates the share of worker time spent waiting for pulls:
// a worker overlaps each pull with one gradient step, so a pull waits for
// whatever it takes beyond that step. The base is every worker's share of
// the run's wall time.
func pullWaitShare(spans []span, p *pass, gradSecs float64) float64 {
	wait := 0.0
	for _, d := range durations(spansNamed(spans, "transport.pull")) {
		wait += max(0, d-gradSecs)
	}
	r := p.runs[0]
	return share(wait, float64(len(r.live.IterationsPerWorker))*r.run.Seconds())
}

// printSelfTimes prints, per span name, the calls, total time and self time
// (time not covered by child spans) of the given spans.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	total := make(map[string]time.Duration)
	calls := make(map[string]int)
	for _, s := range spans {
		total[s.Name] += s.End - s.Start
		calls[s.Name] += s.Count
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %10s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "%-24s %10d %12.4f %12.4f\n", n, calls[n], total[n].Seconds(), self[n].Seconds())
	}
}

func fullGraph(m int) [][]bool {
	adj := make([][]bool, m)
	for i := range adj {
		adj[i] = make([]bool, m)
		for j := range adj[i] {
			adj[i][j] = i != j
		}
	}
	return adj
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
