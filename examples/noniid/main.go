// Non-IID scenario (the paper's Section V-F / Fig. 18): eight workers train
// MobileNet on MNIST where each worker is missing three digit classes
// entirely (Table IV). Shows that NetMax's 1/p-weighted consensus keeps
// information flowing from rarely-contacted peers, preserving accuracy.
//
//	go run ./examples/noniid
//	go run ./examples/noniid -quick
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
	epochs := 25
	if *quick {
		epochs = 3 // the Table IV skew needs all 8 workers; only time shrinks
	}
	// Table IV: workers on server 1 never see digits {0,1,x}; workers on
	// server 2 never see {5,6,y}. The preset expands to that table.
	base, err := netmax.ParseScenario([]byte(`{
	  "name": "noniid",
	  "model": "MobileNet",
	  "dataset": "MNIST",
	  "workers": 8,
	  "batch": 8,
	  "lr": 0.05,
	  "partition": {"preset": "table-4"}
	}`))
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	base.Epochs = epochs
	run := func(algorithm string) *netmax.Result {
		sc := *base
		sc.Name, sc.Algorithm = "noniid-"+algorithm, algorithm
		rep, err := netmax.RunScenario(&sc, netmax.ScenarioRunOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return rep.Engine
	}

	fmt.Println("Label skew (Table IV): lost labels per worker")
	for w, lost := range base.Resolved().Partition.LostLabels {
		fmt.Printf("  w%d: %v\n", w, lost)
	}

	fmt.Println("\nTraining on the non-IID partition, heterogeneous network...")
	nm := run("netmax")
	ad := run("adpsgd")
	ar := run("allreduce")

	fmt.Printf("\n%-10s total=%8.1fs  acc=%5.2f%%\n", "NetMax", nm.TotalTime, 100*nm.FinalAccuracy)
	fmt.Printf("%-10s total=%8.1fs  acc=%5.2f%%\n", "AD-PSGD", ad.TotalTime, 100*ad.FinalAccuracy)
	fmt.Printf("%-10s total=%8.1fs  acc=%5.2f%%\n", "Allreduce", ar.TotalTime, 100*ar.FinalAccuracy)
	fmt.Println("\n(The paper reports ~93% MNIST accuracy under this skew — well below")
	fmt.Println(" the ~99% IID baseline — with NetMax fastest to converge.)")
}
