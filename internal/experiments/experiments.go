// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V and Appendices F-G) on the simulated substrate.
//
// The package is a report layer over scenario manifests. Each experiment id
// (fig3, fig5, ..., tab2, ..., fig19, plus the abl-* ablations) maps to a
// function that describes every training run of the figure as a
// scenario.Manifest, runs them as one suite through scenario.RunSuite, and
// turns the results into the rows/series the paper reports. Absolute
// numbers differ — the substrate is a simulator, not the authors' GPU
// cluster — but the shapes (who wins, by roughly what factor, where
// crossovers fall) are the reproduction target; each Result carries
// expected-vs-measured notes inline.
package experiments

import (
	"fmt"
	"sort"

	"netmax/internal/engine"
	"netmax/internal/scenario"
)

// Options tunes an experiment run.
type Options struct {
	// Seed is every run's manifest seed: it drives dataset generation,
	// model init and all stochastic decisions (0 selects the manifest
	// default, 1). Each experiment is deterministic given (id, Options).
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

// ---- runs as manifests ----

// clusterAlgorithms is the comparison set of Sections V-B..V-F as manifest
// algorithm names, in the paper's reporting order.
var clusterAlgorithms = []string{"prague", "allreduce", "adpsgd", "netmax"}

// manifest describes one training run of a figure: the model and dataset
// (by zoo name) on workers nodes of the Section V-A heterogeneous cluster,
// which is the manifest default network. opt.Seed is the run's one seed:
// it drives data generation, partitioning, model init and the network's
// slowdown schedule alike.
func manifest(algorithm, model, dataset string, workers, epochs int, opt Options) *scenario.Manifest {
	return &scenario.Manifest{
		Algorithm: algorithm,
		Model:     model,
		Dataset:   dataset,
		Workers:   workers,
		Epochs:    epochs,
		Seed:      opt.Seed,
	}
}

// homogeneous moves a run onto the Section V-A single-server 10 Gbps
// network and returns it.
func homogeneous(m *scenario.Manifest) *scenario.Manifest {
	m.Topology = &scenario.TopologySpec{Kind: "single-machine"}
	m.Network = &scenario.NetworkSpec{Kind: "homogeneous"}
	return m
}

// Suite parallelism for run. A figure's compared arms run concurrently
// (the process default); figures that sweep several configurations run
// one member at a time, because every dynamic network materialises its
// whole slowdown schedule up front and concurrent sweeps multiply peak
// memory (abl-saps' shuffled networks most of all).
const (
	concurrent = 0
	serial     = 1
)

// run executes an experiment's manifests as one suite named after the
// experiment, at most par members at a time. Every run is internally
// deterministic, so the results come back in manifest order and are
// identical at any par.
func run(id string, par int, ms []*scenario.Manifest) ([]*engine.Result, error) {
	s := &scenario.Suite{Name: id}
	for k, m := range ms {
		m.Name = fmt.Sprintf("%s-%d", id, k)
		s.Runs = append(s.Runs, scenario.SuiteMember{Manifest: m})
	}
	rep, err := scenario.RunSuite(s, scenario.SuiteRunOptions{Par: par})
	if err != nil {
		return nil, err
	}
	out := make([]*engine.Result, len(rep.Reports))
	for k, r := range rep.Reports {
		out[k] = r.Engine
	}
	return out, nil
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
