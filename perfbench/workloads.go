package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/live"
	"netmax/internal/scenario"
)

// liveAccuracyFloor is the final test accuracy every live-tcp-topk run must
// reach (the synthetic CIFAR100 stand-in has 100 classes, so chance is
// 0.01); BENCHMARK.json states the same floor in the workload's "why".
const liveAccuracyFloor = 0.30

// workload is one named input set. members generates, from the benchmark
// seed, the resolved manifests one pass runs.
type workload struct {
	name    string
	members func(seed int64) ([]*scenario.Manifest, error)
}

// The workload names are fixed: later changes compare their numbers by name.
// README.md gives the reason for each and the layers it loads or skips.
var workloads = []workload{
	{"cluster-comparison", clusterComparison},
	{"homogeneous-netmax16", homogeneousNetMax16},
	{"live-tcp-topk", liveTCPTopK},
}

// manifestSeed maps the benchmark seed onto a manifest seed; manifests
// treat seed 0 as "default", so the mapping starts at 1.
func manifestSeed(seed int64) int64 { return seed + 1 }

// clusterComparison is scenarios/suite-cluster-comparison.json at full
// scale with its seeds drawn from the benchmark seed: NetMax, AD-PSGD and
// ring-allreduce, 3 replicas each, 8 workers on the paper cluster with the
// moving 2-100x slow link, ResNet18 on CIFAR10 for 30 epochs.
func clusterComparison(seed int64) ([]*scenario.Manifest, error) {
	s := &scenario.Suite{
		Name: "suite-cluster-comparison",
		Base: &scenario.SuiteMember{Manifest: &scenario.Manifest{
			Name:         "cluster-resnet18-cifar10",
			Model:        "ResNet18",
			Dataset:      "CIFAR10",
			Workers:      8,
			Epochs:       30,
			LRDecayEpoch: 21,
			Seed:         manifestSeed(seed),
		}},
		Grid: &scenario.GridSpec{
			Algorithms: []string{"netmax", "adpsgd", "allreduce"},
			Replicate:  &scenario.ReplicateSpec{N: 3},
		},
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r, err := s.Resolve(false)
	if err != nil {
		return nil, err
	}
	out := make([]*scenario.Manifest, len(r.Runs))
	for k, mem := range r.Runs {
		out[k] = mem.Manifest
	}
	return out, nil
}

// homogeneousNetMax16 is NetMax with 16 workers on the single-machine
// homogeneous network, ResNet18 on CIFAR10 for 200 epochs (25,000 steps).
func homogeneousNetMax16(seed int64) ([]*scenario.Manifest, error) {
	return single(&scenario.Manifest{
		Name:      "homogeneous-netmax16",
		Algorithm: "netmax",
		Model:     "ResNet18",
		Dataset:   "CIFAR10",
		Workers:   16,
		Epochs:    200,
		Seed:      manifestSeed(seed),
		Topology:  &scenario.TopologySpec{Kind: "single-machine"},
		Network:   &scenario.NetworkSpec{Kind: "homogeneous"},
	})
}

// liveTCPTopK is the live runtime over loopback TCP: 4 workers, the VGG19
// stand-in on CIFAR100, top-k 25% pulls, 3,000 iterations per worker and a
// 200 ms monitor period.
func liveTCPTopK(seed int64) ([]*scenario.Manifest, error) {
	return single(&scenario.Manifest{
		Name:    "live-tcp-topk",
		Runtime: "live",
		Model:   "VGG19",
		Dataset: "CIFAR100",
		Workers: 4,
		Seed:    manifestSeed(seed),
		Codec:   &scenario.CodecSpec{Name: "topk", TopKFrac: 0.25},
		Live:    &scenario.LiveSpec{Transport: "tcp", Iterations: 3000, TsMillis: 200},
	})
}

func single(m *scenario.Manifest) ([]*scenario.Manifest, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return []*scenario.Manifest{m.Resolved()}, nil
}

// memberRun is one member manifest built and run once.
type memberRun struct {
	m          *scenario.Manifest
	setup, run time.Duration // BuildEngine/BuildLive; runner/live.Run
	engine     *engine.Result
	live       *live.Stats
	hub        *tracedHub // traced live runs only
}

// steps is the worker iterations the run completed.
func (r *memberRun) steps() int {
	if r.engine != nil {
		return r.engine.GlobalSteps
	}
	n := 0
	for _, it := range r.live.IterationsPerWorker {
		n += it
	}
	return n
}

func (r *memberRun) finalLoss() float64 {
	if r.engine != nil {
		return r.engine.FinalLoss
	}
	return r.live.FinalLoss
}

// pass is one execution of every member of a workload.
type pass struct {
	runs       []*memberRun
	wall       time.Duration
	allocBytes uint64
	cpu        time.Duration // process CPU time over the pass
	gcCycles   uint64
	gcCPU      float64 // seconds
}

// runPass runs every member the way the suite runner does: par members at a
// time under engine.Concurrently. A nil tracer runs untraced.
func runPass(members []*scenario.Manifest, par int, tr *tracer) (*pass, error) {
	debug.FreeOSMemory() // every pass starts from the same heap: empty, returned to the OS
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, gcCPU0 := gcCounters()
	cpu0 := cpuTime()
	start := time.Now()
	root := tr.open("workload", "", 0)
	p := &pass{runs: make([]*memberRun, len(members))}
	errs := make([]error, len(members))
	engine.Concurrently(len(members), par, func(k int) {
		p.runs[k], errs[k] = runMember(members[k], tr, root)
	})
	tr.close(root)
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	gc1, gcCPU1 := gcCounters()
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles, p.gcCPU = gc1-gc0, gcCPU1-gcCPU0
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("run %q: %w", members[k].Name, err)
		}
	}
	return p, nil
}

// runMember builds and runs one member, timing the scenario build and the
// run separately.
func runMember(m *scenario.Manifest, tr *tracer, parent int) (*memberRun, error) {
	id := tr.open("member", m.Name, parent)
	defer tr.close(id)
	r := &memberRun{m: m}
	t0 := time.Now()
	if m.Runtime == "live" {
		cfg, hub, closeHub, err := m.BuildLive()
		r.setup = time.Since(t0)
		tr.record("scenario.build", m.Name, id, t0, t0.Add(r.setup), 1)
		if err != nil {
			return nil, err
		}
		runID := tr.open("live.run", m.Name, id)
		var h live.Hub = hub
		if tr != nil {
			r.hub = &tracedHub{Hub: hub, tr: tr, run: m.Name, parent: runID}
			h = r.hub
		}
		t1 := time.Now()
		r.live = live.Run(context.Background(), cfg, h)
		r.run = time.Since(t1)
		tr.close(runID)
		if err := closeHub(); err != nil {
			return nil, fmt.Errorf("closing hub: %w", err)
		}
		return r, nil
	}
	cfg, runner, err := m.BuildEngine()
	r.setup = time.Since(t0)
	tr.record("scenario.build", m.Name, id, t0, t0.Add(r.setup), 1)
	if err != nil {
		return nil, err
	}
	runID := tr.open("engine.run", m.Name, id)
	t1 := time.Now()
	r.engine = runner(cfg)
	r.run = time.Since(t1)
	tr.close(runID)
	return r, nil
}

// expectedSteps is the worker-iteration count a uniform-partition engine
// manifest implies: its epochs over the partitioned training set, one batch
// per iteration, and whole rounds of every worker for the synchronous
// allreduce.
func expectedSteps(m *scenario.Manifest) (int, error) {
	ds, err := data.SpecByName(m.Dataset)
	if err != nil {
		return 0, err
	}
	per := ds.TrainSize / m.Workers
	batch := min(m.Batch, per)
	group := 1
	if m.Algorithm == "allreduce" {
		group = m.Workers
	}
	need := m.Epochs * per * m.Workers
	rounds := (need + batch*group - 1) / (batch * group)
	return rounds * group, nil
}

// checkRun returns the output checks one member run fails.
func checkRun(r *memberRun) []string {
	var bad []string
	failf := func(format string, args ...interface{}) {
		bad = append(bad, fmt.Sprintf("%s: ", r.m.Name)+fmt.Sprintf(format, args...))
	}
	if loss := r.finalLoss(); math.IsNaN(loss) || math.IsInf(loss, 0) {
		failf("final loss %v is not finite", loss)
	}
	if res := r.engine; res != nil {
		if len(res.Curve) == 0 {
			failf("empty loss curve")
		} else if !(res.FinalLoss < res.Curve[0].Value) {
			failf("final loss %.6g not below first curve point %.6g", res.FinalLoss, res.Curve[0].Value)
		}
		if res.Epochs != r.m.Epochs {
			failf("finished %d of %d epochs", res.Epochs, r.m.Epochs)
		}
		want, err := expectedSteps(r.m)
		if err != nil {
			failf("%v", err)
		} else if res.GlobalSteps != want {
			failf("%d steps, manifest implies %d", res.GlobalSteps, want)
		}
		return bad
	}
	s := r.live
	for i, it := range s.IterationsPerWorker {
		if it != r.m.Live.Iterations {
			failf("worker %d completed %d of %d iterations", i, it, r.m.Live.Iterations)
		}
	}
	if s.PeerDownErrors != 0 {
		failf("%d failed pulls (pull_fail_ratio must be 0)", s.PeerDownErrors)
	}
	if s.FinalAccuracy < liveAccuracyFloor {
		failf("final accuracy %.4f below the floor %.2f", s.FinalAccuracy, liveAccuracyFloor)
	}
	return bad
}

// armMeans returns the mean virtual time per algorithm over a pass's engine
// runs.
func armMeans(p *pass) map[string]float64 {
	sum := make(map[string]float64)
	n := make(map[string]int)
	for _, r := range p.runs {
		if r.engine != nil {
			sum[r.m.Algorithm] += r.engine.TotalTime
			n[r.m.Algorithm]++
		}
	}
	for a := range sum {
		sum[a] /= float64(n[a])
	}
	return sum
}

// checkOrdering is the paper's ordering on the cluster comparison: mean
// virtual time NetMax < AD-PSGD < allreduce. It applies only to passes that
// run all three algorithms.
func checkOrdering(p *pass) (applies bool, bad string) {
	t := armMeans(p)
	nm, okN := t["netmax"]
	ad, okA := t["adpsgd"]
	ar, okR := t["allreduce"]
	if !okN || !okA || !okR {
		return false, ""
	}
	if !(nm < ad && ad < ar) {
		return true, fmt.Sprintf("mean virtual time netmax %.2fs, adpsgd %.2fs, allreduce %.2fs: not in the paper's order", nm, ad, ar)
	}
	return true, ""
}

// check runs every output check on a pass. Each member run is one
// operation, and so is the ordering comparison where it applies; an
// operation fails when any of its checks does.
func check(p *pass) (attempted, failed int, bad []string) {
	for _, r := range p.runs {
		attempted++
		if msgs := checkRun(r); len(msgs) > 0 {
			failed++
			bad = append(bad, msgs...)
		}
	}
	if applies, msg := checkOrdering(p); applies {
		attempted++
		if msg != "" {
			failed++
			bad = append(bad, msg)
		}
	}
	return attempted, failed, bad
}
