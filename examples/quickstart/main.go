// Quickstart: train a ResNet18-scale model with NetMax on a synthetic
// CIFAR10 across an 8-worker heterogeneous cluster, and compare against
// AD-PSGD on the identical workload. Each run is a scenario manifest; the
// two differ only in their algorithm.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -quick
package main

import (
	"flag"
	"fmt"
	"os"

	"netmax"
)

func main() {
	quick := flag.Bool("quick", false, "tiny run for smoke tests")
	flag.Parse()
	workers, epochs := 8, 30
	if *quick {
		workers, epochs = 4, 3
	}
	run := func(algorithm string) *netmax.Result {
		rep, err := netmax.RunScenario(&netmax.Scenario{
			Name:         "quickstart-" + algorithm,
			Algorithm:    algorithm,
			Model:        "ResNet18",
			Dataset:      "CIFAR10",
			Workers:      workers,
			Epochs:       epochs,
			LRDecayEpoch: epochs * 7 / 10,
		}, netmax.ScenarioRunOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return rep.Engine
	}

	fmt.Printf("Training NetMax (%d workers, heterogeneous network)...\n", workers)
	nm := run("netmax")
	fmt.Println("Training AD-PSGD on the identical workload...")
	ad := run("adpsgd")

	fmt.Println("\nloss curve (virtual seconds -> loss):")
	for i := 0; i < len(nm.Curve); i += 5 {
		p := nm.Curve[i]
		fmt.Printf("  epoch %4.0f  t=%7.1fs  loss=%.4f\n", p.Epoch, p.Time, p.Value)
	}

	fmt.Printf("\n%-8s total=%7.1fs  acc=%5.2f%%  comm/epoch=%5.2fs\n",
		"NetMax", nm.TotalTime, 100*nm.FinalAccuracy, nm.CommCostPerEpoch(workers))
	fmt.Printf("%-8s total=%7.1fs  acc=%5.2f%%  comm/epoch=%5.2fs\n",
		"AD-PSGD", ad.TotalTime, 100*ad.FinalAccuracy, ad.CommCostPerEpoch(workers))
	fmt.Printf("\nNetMax epoch-time speedup over AD-PSGD: %.2fx\n", ad.TotalTime/nm.TotalTime)
}
