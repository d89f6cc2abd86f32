package netmax_test

import (
	"fmt"

	"netmax"
	"netmax/internal/simnet"
)

// ExampleRunScenario_cluster trains NetMax on a small heterogeneous cluster
// from a manifest built in code: the manifest defaults supply the paper's
// cluster network and the NetMax algorithm. Virtual time depends only on
// the seed, so the output is deterministic.
func ExampleRunScenario_cluster() {
	rep, err := netmax.RunScenario(&netmax.Scenario{
		Name:         "cluster",
		Model:        "MobileNet",
		Dataset:      "MNIST",
		Workers:      4,
		Epochs:       4,
		LRDecayEpoch: 2,
	}, netmax.ScenarioRunOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("epochs:", rep.Engine.Epochs)
	fmt.Println("learned:", rep.Engine.FinalAccuracy > 0.9)
	// Output:
	// epochs: 4
	// learned: true
}

// ExampleGeneratePolicy shows Algorithm 3 preferring a fast link.
func ExampleGeneratePolicy() {
	// Worker 0 reaches worker 1 in 1s but worker 2 only in 10s.
	times := [][]float64{
		{0, 1, 10},
		{1, 0, 1},
		{10, 1, 0},
	}
	pol, err := netmax.GeneratePolicy(times, simnet.FullyConnected(3), 0.1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("fast neighbor preferred:", pol.P[0][1] > pol.P[0][2])
	fmt.Println("policy converges:", pol.Lambda2 < 1)
	// Output:
	// fast neighbor preferred: true
	// policy converges: true
}

// ExampleRunScenario_churn injects a declarative failure schedule into a
// simulated run: worker 1 crashes and rejoins, worker 2 hangs
// (undetectable), and the monitor's liveness tracking routes around both.
func ExampleRunScenario_churn() {
	sc, err := netmax.ParseScenario([]byte(`{
	  "name": "churn",
	  "model": "MobileNet",
	  "dataset": "MNIST",
	  "workers": 4,
	  "epochs": 3,
	  "lr_decay_epoch": 2,
	  "netmax": {"stale_periods": 2},
	  "failures": {"events": [
	    {"kind": "crash", "worker": 1, "at": 2, "rejoin": 4},
	    {"kind": "hang", "worker": 2, "at": 1, "until": 3}
	  ]}
	}`))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rep, err := netmax.RunScenario(sc, netmax.ScenarioRunOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("epochs:", rep.Engine.Epochs)
	fmt.Println("survived and learned:", rep.Engine.FinalAccuracy > 0.9)
	// Output:
	// epochs: 3
	// survived and learned: true
}

// ExampleRunScenario drives a run from a declarative manifest instead of
// code: the JSON fully describes the workload, and the report carries the
// resolved (fully-defaulted) manifest that reproduces it.
func ExampleRunScenario() {
	manifest := []byte(`{
	  "name": "quickstart",
	  "model": "MobileNet",
	  "dataset": "MNIST",
	  "workers": 4,
	  "epochs": 4
	}`)
	sc, err := netmax.ParseScenario(manifest)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rep, err := netmax.RunScenario(sc, netmax.ScenarioRunOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("algorithm:", rep.Manifest.Algorithm)
	fmt.Println("epochs:", rep.Engine.Epochs)
	fmt.Println("learned:", rep.Engine.FinalAccuracy > 0.9)
	// Output:
	// algorithm: netmax
	// epochs: 4
	// learned: true
}

// ExampleParseScenario_invalid shows the manifest validator rejecting a
// cross-field inconsistency: a crash scheduled after its own rejoin.
func ExampleParseScenario_invalid() {
	_, err := netmax.ParseScenario([]byte(`{
	  "name": "bad",
	  "failures": {"events": [{"kind": "crash", "worker": 1, "at": 9, "rejoin": 5}]}
	}`))
	fmt.Println(err)
	// Output:
	// scenario "bad": failure event 0: crash rejoin (5) must come after the crash (9); use kind "leave" for a permanent crash
}

// ExampleRunSuite runs a multi-arm, multi-seed comparison from one suite
// document: a base manifest expanded over two algorithm arms and two
// replication seeds, summarized per arm in a joint table.
func ExampleRunSuite() {
	suite := []byte(`{
	  "name": "quickcompare",
	  "base": {"manifest": {
	    "name": "base",
	    "model": "MobileNet",
	    "dataset": "MNIST",
	    "workers": 4,
	    "epochs": 2,
	    "network": {"kind": "static"}
	  }},
	  "grid": {
	    "algorithms": ["netmax", "adpsgd"],
	    "replicate": {"n": 2}
	  }
	}`)
	s, err := netmax.ParseSuite(suite)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rep, err := netmax.RunSuite(s, netmax.SuiteRunOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("runs:", len(rep.Reports))
	for _, arm := range rep.Table.Arms {
		fmt.Printf("%s: n=%d, learned=%v\n", arm.Arm, arm.N, arm.FinalLoss.Mean < 0.5)
	}
	// Output:
	// runs: 4
	// netmax: n=2, learned=true
	// adpsgd: n=2, learned=true
}

// ExampleExperiment regenerates a paper figure programmatically.
func ExampleExperiment() {
	res, err := netmax.Experiment("fig3", 1, true)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("id:", res.ID)
	fmt.Println("rows:", len(res.Rows))
	// Output:
	// id: fig3
	// rows: 2
}
