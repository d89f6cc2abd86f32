package netmax

import (
	"testing"

	"netmax/internal/simnet"
)

// runEngine runs an engine-runtime manifest through the public entry point.
func runEngine(t *testing.T, sc *Scenario) *Result {
	t.Helper()
	rep, err := RunScenario(sc, ScenarioRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Engine
}

func TestPublicQuickstartPath(t *testing.T) {
	r := runEngine(t, &Scenario{Name: "quickstart", Model: "MobileNet", Dataset: "MNIST", Workers: 4, Epochs: 4, LRDecayEpoch: 2})
	if r.Epochs != 4 {
		t.Fatalf("epochs = %d", r.Epochs)
	}
	if r.FinalAccuracy < 0.8 {
		t.Fatalf("accuracy = %v", r.FinalAccuracy)
	}
}

func TestPublicBaselinesShareConfigShape(t *testing.T) {
	sc, err := ParseScenario([]byte(`{
	  "name": "homogeneous",
	  "model": "MobileNet",
	  "dataset": "MNIST",
	  "workers": 4,
	  "epochs": 3,
	  "lr_decay_epoch": 2,
	  "topology": {"kind": "single-machine"},
	  "network": {"kind": "homogeneous"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"adpsgd", "allreduce", "gossip"} {
		run := *sc
		run.Algorithm = algo
		r := runEngine(t, &run)
		if r.Epochs != 3 || r.TotalTime <= 0 {
			t.Fatalf("%s run incomplete: %+v", algo, r)
		}
	}
}

func TestPublicGeneratePolicy(t *testing.T) {
	times := [][]float64{
		{0, 1, 5},
		{1, 0, 5},
		{5, 5, 0},
	}
	adj := simnet.FullyConnected(3)
	pol, err := GeneratePolicy(times, adj, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Lambda2 <= 0 || pol.Lambda2 >= 1 {
		t.Fatalf("lambda2 = %v", pol.Lambda2)
	}
	if pol.P[0][1] <= pol.P[0][2] {
		t.Fatalf("fast neighbor not preferred: %v", pol.P[0])
	}
}

func TestPublicExperiment(t *testing.T) {
	res, err := Experiment("fig3", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("fig3 rows = %d", len(res.Rows))
	}
}

func TestPublicADPSGDMonitor(t *testing.T) {
	r := runEngine(t, &Scenario{Name: "monitor", Algorithm: "adpsgd-monitor", Model: "MobileNet", Dataset: "MNIST", Workers: 4, Epochs: 3, LRDecayEpoch: 2})
	if r.Algo != "AD-PSGD+Monitor" {
		t.Fatalf("algo = %q", r.Algo)
	}
}
