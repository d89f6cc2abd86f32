// Command perfbench is the repository's benchmark. It runs one named
// workload (or, with --workload all, every workload in turn) for a fixed
// wall-clock budget, checks the outputs, and prints every metric by name and
// unit; its last line of output is one JSON object with the fields correct,
// attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it repeats untraced passes of the workload until the
// budget is spent and reports the end-to-end metrics as medians over the
// passes. With --trace 1 it alternates an untraced and a traced pass, checks
// that both give bitwise-identical engine results, times each layer's
// public functions directly on the workload's inputs, and reports the
// per-layer metrics. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"netmax/internal/engine"
	"netmax/internal/scenario"
	"netmax/internal/tensor"
)

// The end-to-end metrics, in the order BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"steps_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"final_accuracy", "ratio"},
}

// maxPar caps host parallelism: the benchmark pins it so that its numbers
// do not depend on the size of the machine beyond two CPUs.
const maxPar = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name ("+workloadNames()+"), or all to run every workload in turn")
	seed := fs.Int64("seed", 0, "non-negative seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "wall-clock seconds to measure each workload for")
	traceFlag := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []*workload
	for k := range workloads {
		if *name == "all" || workloads[k].name == *name {
			ws = append(ws, &workloads[k])
		}
	}
	switch {
	case len(ws) == 0:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want all or one of %s)\n", *name, workloadNames())
		return 2
	case *seed < 0:
		fmt.Fprintln(stderr, "perfbench: --seed must be non-negative")
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}

	par := min(maxPar, runtime.NumCPU())
	runtime.GOMAXPROCS(par)
	engine.DefaultParallelism = par
	tensor.SetParallelism(par)

	budget := time.Duration(*seconds) * time.Second
	var results []*result
	for _, w := range ws {
		res, err := runWorkload(w, *seed, par, budget, *traceFlag == 1, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, res)
	}
	res := results[0]
	if len(results) > 1 {
		// One line for every workload: metric names gain a "<workload>/" prefix.
		res = &result{Correct: true, Metrics: make(map[string]metric)}
		for k, r := range results {
			res.Correct = res.Correct && r.Correct
			res.Attempted += r.Attempted
			res.Failed += r.Failed
			for name, m := range r.Metrics {
				res.Metrics[ws[k].name+"/"+name] = m
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload generates a workload's members from the seed and runs it
// traced or untraced for the budget.
func runWorkload(w *workload, seed int64, par int, budget time.Duration, trace bool, stdout io.Writer) (*result, error) {
	members, err := w.members(seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "perfbench %s seed %d: %d run(s) per pass, host parallelism %d, budget %v\n",
		w.name, seed, len(members), par, budget)
	if trace {
		return traced(w, members, seed, par, budget, stdout)
	}
	return untraced(members, par, budget, stdout)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for k, w := range workloads {
		names[k] = w.name
	}
	return strings.Join(names, ", ")
}

// outcome accumulates the checks of every pass a run makes.
type outcome struct {
	attempted, failed int
	bad               []string
}

func (o *outcome) add(attempted, failed int, bad []string) {
	o.attempted += attempted
	o.failed += failed
	o.bad = append(o.bad, bad...)
}

func (o *outcome) result(metrics map[string]metric, stdout io.Writer) *result {
	for _, msg := range o.bad {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", msg)
	}
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
}

// passMetrics derives the end-to-end metrics of one pass, plus the
// workload-specific ones the table prints beside them.
func passMetrics(p *pass) map[string]float64 {
	var setup, runT time.Duration
	steps, loss := 0, 0.0
	var pulls, pullFails int64
	virtual, nEngine, acc := 0.0, 0, 0.0
	for _, r := range p.runs {
		setup += r.setup
		runT += r.run
		steps += r.steps()
		loss += r.finalLoss()
		if r.engine != nil {
			virtual += r.engine.TotalTime
			acc += r.engine.FinalAccuracy
			nEngine++
		} else {
			acc += r.live.FinalAccuracy
			pulls += r.live.Pulls
			pullFails += r.live.PeerDownErrors
		}
	}
	out := map[string]float64{
		"setup_s":        setup.Seconds(),
		"wall_s":         p.wall.Seconds(),
		"steps_per_s":    share(float64(steps), runT.Seconds()),
		"alloc_mb":       float64(p.allocBytes) / 1e6,
		"final_loss":     loss / float64(len(p.runs)),
		"final_accuracy": acc / float64(len(p.runs)),
	}
	if nEngine > 0 {
		out["virtual_time_s"] = virtual / float64(nEngine)
		t := armMeans(p)
		if nm, ok := t["netmax"]; ok {
			if ad, ok := t["adpsgd"]; ok {
				out["speedup_vs_adpsgd"] = share(ad, nm)
			}
		}
	}
	if nEngine < len(p.runs) {
		out["pulls_per_s"] = share(float64(pulls), runT.Seconds())
		out["pull_fail_ratio"] = share(float64(pullFails), float64(pulls+pullFails))
	}
	return out
}

// extraUnits names the units of the end-to-end metrics that are printed
// but carried in the JSON only by the traced run's per-layer metrics: the
// workload-specific ones, and the final loss, whose spread across seeds is
// wider than any bound the benchmark may set.
var extraUnits = []struct{ name, unit string }{
	{"final_loss", "loss"},
	{"virtual_time_s", "s"},
	{"speedup_vs_adpsgd", "ratio"},
	{"pulls_per_s", "1/s"},
	{"pull_fail_ratio", "ratio"},
}

// untraced repeats untraced passes until the budget is spent and reports
// each end-to-end metric's median over the passes.
func untraced(members []*scenario.Manifest, par int, budget time.Duration, stdout io.Writer) (*result, error) {
	var o outcome
	series := make(map[string][]float64)
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < budget; n++ {
		p, err := runPass(members, par, nil)
		if err != nil {
			return nil, err
		}
		o.add(check(p))
		for k, v := range passMetrics(p) {
			series[k] = append(series[k], v)
		}
		fmt.Fprintf(stdout, "pass %d: wall %.3fs setup %.3fs steps/s %.1f cpu %.3fs\n",
			n+1, p.wall.Seconds(), series["setup_s"][n], series["steps_per_s"][n], p.cpu.Seconds())
	}
	fmt.Fprintf(stdout, "%-20s %14s %14s %14s  %s\n", "metric", "median", "q1", "q3", "unit (samples)")
	metrics := make(map[string]metric)
	printRow := func(name, unit string) {
		xs, ok := series[name]
		if !ok {
			return
		}
		q1, q2, q3 := quartiles(xs)
		fmt.Fprintf(stdout, "%-20s %14.6g %14.6g %14.6g  %s (n=%d)\n", name, q2, q1, q3, unit, len(xs))
	}
	setups, err := moreSetups(members, series["setup_s"], budget)
	if err != nil {
		return nil, err
	}
	series["setup_s"] = setups
	for _, e := range endToEnd {
		printRow(e.name, e.unit)
		metrics[e.name] = metric{Value: median(series[e.name]), Unit: e.unit}
	}
	for _, e := range extraUnits {
		printRow(e.name, e.unit)
	}
	return o.result(metrics, stdout), nil
}

// minSetupSamples is how many set-ups setup_s is the median of, where the
// workload's set-up is cheap enough (see moreSetups).
const minSetupSamples = 25

// moreSetups tops up the per-pass set-up samples with set-up-only
// repetitions to minSetupSamples, when all of them together fit in a
// twentieth of the budget. Cheap set-ups (a few milliseconds) are noisy,
// and a median over many of them is steady; an expensive one is left to
// its per-pass samples, taken under the same concurrency as the runs.
func moreSetups(members []*scenario.Manifest, samples []float64, budget time.Duration) ([]float64, error) {
	need := minSetupSamples - len(samples)
	if need <= 0 || median(samples)*float64(need) > budget.Seconds()/20 {
		return samples, nil
	}
	for k := 0; k < need; k++ {
		debug.FreeOSMemory()
		s, err := setupOnly(members)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// setupOnly builds every member without running it and returns the summed
// build seconds.
func setupOnly(members []*scenario.Manifest) (float64, error) {
	total := 0.0
	for _, m := range members {
		t0 := time.Now()
		if m.Runtime == "live" {
			_, _, closeHub, err := m.BuildLive()
			total += time.Since(t0).Seconds()
			if err != nil {
				return 0, err
			}
			if err := closeHub(); err != nil {
				return 0, err
			}
			continue
		}
		_, _, err := m.BuildEngine()
		total += time.Since(t0).Seconds()
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
