// Cross-region WAN training (the paper's Appendix G / Fig. 19): six workers
// in six cloud regions with up-to-12x link-speed spread and region-specific
// label skew (Table VII) train MobileNet; NetMax is compared with AD-PSGD
// and both parameter-server variants.
//
//	go run ./examples/crossregion
//	go run ./examples/crossregion -quick
package main

import (
	"flag"
	"fmt"
	"os"

	"netmax"
	"netmax/internal/simnet"
)

func main() {
	quick := flag.Bool("quick", false, "tiny run for smoke tests")
	flag.Parse()
	epochs := 25
	if *quick {
		epochs = 3 // six regions are fixed by the WAN matrix; only time shrinks
	}
	base, err := netmax.ParseScenario([]byte(`{
	  "name": "crossregion",
	  "model": "MobileNet",
	  "dataset": "MNIST",
	  "workers": 6,
	  "batch": 8,
	  "lr": 0.05,
	  "network": {"kind": "cross-region"},
	  "partition": {"preset": "table-7"}
	}`))
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	base.Epochs = epochs
	run := func(algorithm string) *netmax.Result {
		sc := *base
		sc.Name, sc.Algorithm = "crossregion-"+algorithm, algorithm
		rep, err := netmax.RunScenario(&sc, netmax.ScenarioRunOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return rep.Engine
	}

	fmt.Println("Regions:", simnet.Regions)
	fmt.Println("Label skew (Table VII): lost labels per region")
	for w, lost := range base.Resolved().Partition.LostLabels {
		fmt.Printf("  %-10s %v\n", simnet.Regions[w], lost)
	}

	fmt.Println("\nTraining across regions...")
	results := []struct {
		name string
		res  *netmax.Result
	}{
		{"NetMax", run("netmax")},
		{"AD-PSGD", run("adpsgd")},
		{"PS-asyn", run("ps-async")},
		{"PS-syn", run("ps-sync")},
	}
	fmt.Printf("\n%-8s  %12s  %9s\n", "approach", "total time", "accuracy")
	for _, r := range results {
		fmt.Printf("%-8s  %10.1fs  %8.2f%%\n", r.name, r.res.TotalTime, 100*r.res.FinalAccuracy)
	}
	nm := results[0].res
	fmt.Println()
	for _, r := range results[1:] {
		fmt.Printf("NetMax %.2fx faster than %s (same epochs)\n", r.res.TotalTime/nm.TotalTime, r.name)
	}
}
