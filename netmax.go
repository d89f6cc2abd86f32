// Package netmax is a from-scratch Go reproduction of "Communication-
// efficient Decentralized Machine Learning over Heterogeneous Networks"
// (Zhou et al., ICDE 2021): the NetMax consensus-SGD algorithm, its Network
// Monitor and communication-policy generator, the decentralized and
// centralized baselines it is evaluated against, and a discrete-event
// heterogeneous-network simulator that regenerates every table and figure
// of the paper's evaluation.
//
// Every training run is a declarative scenario manifest. Quick start:
//
//	sc, err := netmax.ParseScenario([]byte(`{
//	  "name": "quickstart",
//	  "model": "ResNet18",
//	  "dataset": "CIFAR10",
//	  "workers": 8,
//	  "epochs": 40,
//	  "lr_decay_epoch": 28
//	}`))
//	rep, err := netmax.RunScenario(sc, netmax.ScenarioRunOptions{})
//	fmt.Println(rep.Engine.FinalAccuracy, rep.Engine.TotalTime)
//
// The manifest defaults place the workers on the paper's heterogeneous
// cluster (Section V-A) and run NetMax; "algorithm" selects a baseline
// instead. See the scenarios directory for checked-in manifests and suites,
// the examples directory for runnable scenarios, and cmd/netmax-bench for
// the experiment harness.
//
// # Performance
//
// The compute core scales with the host: large tensor products shard across
// a persistent worker pool, the autograd tape reuses buffers from a
// size-keyed arena instead of allocating per op, and the discrete-event
// engine steps workers whose events are independent at the same virtual
// timestamp concurrently. All of it is bitwise deterministic — results are
// identical at any parallelism, only wall-clock changes. A manifest's
// "parallelism" field bounds the concurrency: 0 means one worker per CPU,
// 1 reproduces the serial loop. cmd/netmax-bench -par pins it process-wide
// and -bench-out records the perf trajectory (see BENCH_baseline.json /
// BENCH_pr1.json and README.md for the buffer-pool lifecycle rules).
package netmax

import (
	"netmax/internal/engine"
	"netmax/internal/experiments"
	"netmax/internal/policy"
	"netmax/internal/scenario"
)

// Result aggregates the metrics of a run: loss curve, accuracy, virtual
// wall-clock, and the computation/communication cost decomposition.
type Result = engine.Result

// Point is one sample of a training curve.
type Point = engine.Point

// Policy is a generated communication policy (P, rho, lambda2, predicted
// convergence time).
type Policy = policy.Policy

// GeneratePolicy runs Algorithm 3 directly on an iteration-time matrix:
// times[i][m] is worker i's measured iteration time against neighbor m, adj
// is the communication graph, alpha the SGD learning rate.
func GeneratePolicy(times [][]float64, adj [][]bool, alpha float64) (*Policy, error) {
	return policy.Generate(policy.Input{Times: times, Adj: adj, Alpha: alpha})
}

// Experiment regenerates a paper table/figure by id (fig3..fig19, tab2,
// tab3, tab5, abl-*); see cmd/netmax-bench -list.
func Experiment(id string, seed int64, quick bool) (*experiments.Result, error) {
	return experiments.Run(id, experiments.Options{Seed: seed, Quick: quick})
}

// Scenario is a declarative manifest fully describing a run — runtime,
// algorithm, topology, network dynamics, partitioning, heterogeneity,
// failure schedule, codec, seeds. See internal/scenario and the checked-in
// library under scenarios/.
type Scenario = scenario.Manifest

// ScenarioReport is the outcome of one scenario run: the resolved manifest
// that actually ran plus the engine result or live stats.
type ScenarioReport = scenario.Report

// ScenarioRunOptions tunes RunScenario (quick overrides, output directory).
type ScenarioRunOptions = scenario.RunOptions

// LoadScenario reads, parses and validates a scenario manifest file;
// ParseScenario does the same from bytes. Both reject unknown fields.
var (
	LoadScenario  = scenario.Load
	ParseScenario = scenario.Parse
)

// RunScenario executes a manifest end to end and, when an output directory
// is configured, writes the fully-resolved manifest next to the results so
// the run is reproducible from one file.
func RunScenario(m *Scenario, opt ScenarioRunOptions) (*ScenarioReport, error) {
	return scenario.Run(m, opt)
}

// Suite is a declarative comparison: one JSON document describing N runs,
// either an explicit member list or a base manifest expanded over a grid of
// algorithm arms, codec arms and replication seeds. See internal/scenario
// and the suite-*.json files under scenarios/.
type Suite = scenario.Suite

// SuiteReport is the outcome of a suite run: the resolved explicit run
// list, the per-member reports, and the joint per-arm mean +/- stddev
// table.
type SuiteReport = scenario.SuiteReport

// SuiteRunOptions tunes RunSuite (quick overrides, output directory, and
// the bounded parallelism of the member-run driver).
type SuiteRunOptions = scenario.SuiteRunOptions

// SuiteTable is the joint comparison table of a suite run (the suite.json
// schema): one row per arm, metrics summarized as mean +/- sample stddev.
type SuiteTable = scenario.SuiteTable

// LoadSuite reads, parses and validates a suite file (member paths resolve
// relative to it); ParseSuite does the same from bytes. Both reject
// unknown fields and validate every run the suite expands to.
var (
	LoadSuite  = scenario.LoadSuite
	ParseSuite = scenario.ParseSuite
)

// RunSuite executes a suite end to end under the bounded-parallel driver
// and, when an output directory is configured, writes the explicit
// resolved run list (resolved-suite.json) and the joint table (suite.json)
// next to the per-run outputs, so a multi-arm multi-seed comparison is
// reproducible — bitwise, on the engine runtime — from one file.
func RunSuite(s *Suite, opt SuiteRunOptions) (*SuiteReport, error) {
	return scenario.RunSuite(s, opt)
}
