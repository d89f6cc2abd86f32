// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V and Appendices F-G) on the simulated substrate.
//
// Each experiment id (fig3, fig5, ..., tab2, ..., fig19, plus the abl-*
// ablations) maps to a function that builds the paper's workload, runs the
// compared algorithms on the discrete-event engine, and returns the same
// rows/series the paper reports. Absolute numbers differ — the substrate is
// a simulator, not the authors' GPU cluster — but the shapes (who wins, by
// roughly what factor, where crossovers fall) are the reproduction target;
// each Result carries expected-vs-measured notes inline.
package experiments

import (
	"fmt"
	"sort"

	"netmax/internal/baselines"
	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/nn"
	"netmax/internal/scenario"
	"netmax/internal/simnet"
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives dataset generation, model init and all stochastic
	// decisions; each experiment is deterministic given (id, Options).
	Seed int64
	// Quick shrinks epochs/node counts ~4x for smoke runs and benchmarks.
	Quick bool
}

// Result is a regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Curves holds the per-series points for figure experiments
	// (loss/accuracy versus time and/or epochs), keyed by series label.
	Curves map[string][]engine.Point
	// Notes records shape checks and derived quantities (speedups etc.).
	Notes []string
}

// Runner regenerates one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

var registry []Runner

func register(id, title string, run func(Options) (*Result, error)) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// All returns the registered experiments sorted by id.
func All() []Runner {
	out := append([]Runner(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run regenerates the experiment with the given id.
func Run(id string, opt Options) (*Result, error) {
	for _, r := range registry {
		if r.ID == id {
			return r.Run(opt)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (use one of %v)", id, ids())
}

func ids() []string {
	var out []string
	for _, r := range All() {
		out = append(out, r.ID)
	}
	return out
}

// ---- shared workload builders ----

// algo pairs a display name with a runner over a fresh config.
type algo struct {
	name string
	run  func(cfg *engine.Config) *engine.Result
}

func netmaxAlgo() algo {
	return algo{"NetMax", func(cfg *engine.Config) *engine.Result {
		return core.Run(cfg, core.Options{Ts: scenario.DefaultMonitorTs})
	}}
}

// clusterAlgos is the comparison set of Sections V-B..V-F, in the paper's
// reporting order.
func clusterAlgos() []algo {
	return []algo{
		{"Prague", baselines.RunPrague},
		{"Allreduce", baselines.RunAllreduce},
		{"AD-PSGD", baselines.RunADPSGD},
		netmaxAlgo(),
	}
}

// psAlgos adds the parameter-server baselines of Section V-G.
func psAlgos() []algo {
	return append(clusterAlgos()[:3:3], []algo{
		{"PS-syn", baselines.RunPSSync},
		{"PS-asyn", baselines.RunPSAsync},
		netmaxAlgo(),
	}...)
}

// workload bundles the shared data of one experiment so every algorithm
// sees identical shards, eval subset and test set.
type workload struct {
	part *data.Partition
	eval *data.Dataset
	test *data.Dataset
}

func buildWorkload(ds data.Spec, workers int, seed int64) *workload {
	train, test := ds.Generate(seed)
	return &workload{
		part: data.Uniform(train, workers, seed),
		eval: train.EvalSubset(),
		test: test,
	}
}

func (w *workload) withSegments(ds data.Spec, segments []int, seed int64) *workload {
	train, _ := ds.Generate(seed)
	w.part = data.Segments(train, segments, seed)
	return w
}

func (w *workload) withLabelSkew(ds data.Spec, skew [][]int, seed int64) *workload {
	train, _ := ds.Generate(seed)
	w.part = data.LabelSkew(train, skew, seed)
	return w
}

// cfgParams collects the knobs that vary across experiments.
type cfgParams struct {
	spec    nn.ModelSpec
	wl      *workload
	net     func(seed int64) *simnet.Network
	epochs  int
	batch   int
	lr      float64
	decayAt int
	overlap bool
	seed    int64
}

func (p cfgParams) config(netSeed int64) *engine.Config {
	lr := p.lr
	if lr == 0 {
		lr = 0.1
	}
	batch := p.batch
	if batch == 0 {
		batch = 16
	}
	return &engine.Config{
		Spec:         p.spec,
		Part:         p.wl.part,
		Eval:         p.wl.eval,
		Test:         p.wl.test,
		Net:          p.net(netSeed),
		LR:           lr,
		Batch:        batch,
		Epochs:       p.epochs,
		Seed:         p.seed,
		Overlap:      p.overlap,
		LRDecayEpoch: p.decayAt,
	}
}

// hetNet builds the Section V-A heterogeneous cluster network.
func hetNet(workers int) func(seed int64) *simnet.Network {
	topo := simnet.PaperCluster(workers)
	return func(seed int64) *simnet.Network {
		return simnet.NewHeterogeneousPeriod(topo, seed, 1e7, scenario.DefaultSlowPeriod)
	}
}

// homNet builds the Section V-A homogeneous single-server network.
func homNet(workers int) func(seed int64) *simnet.Network {
	topo := simnet.SingleMachine(workers)
	return func(seed int64) *simnet.Network { return simnet.NewHomogeneous(topo) }
}

// runAll executes every algorithm on an identical fresh workload/config.
// Algorithms run concurrently under the bounded-parallelism driver — each
// builds its own config (fresh network, fresh workers) over the shared
// read-only workload, and every run is internally deterministic, so results
// land in reporting order regardless of scheduling.
func runAll(algos []algo, p cfgParams) []*engine.Result {
	out := make([]*engine.Result, len(algos))
	engine.Concurrently(len(algos), engine.ResolveParallelism(0), func(k int) {
		out[k] = algos[k].run(p.config(p.seed))
	})
	return out
}

func scaleEpochs(full int, opt Options) int {
	if opt.Quick {
		q := full / 4
		if q < 3 {
			q = 3
		}
		return q
	}
	return full
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// lossTarget picks a loss threshold reachable by all runs: 10% above the
// worst final loss.
func lossTarget(rs []*engine.Result) float64 {
	worst := 0.0
	for _, r := range rs {
		if r.FinalLoss > worst {
			worst = r.FinalLoss
		}
	}
	return worst * 1.1
}
