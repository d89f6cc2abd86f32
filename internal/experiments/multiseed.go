package experiments

import (
	"fmt"

	"netmax/internal/engine"
	"netmax/internal/scenario"
	"netmax/internal/stats"
)

func init() {
	register("stats-speedup", "Multi-seed speedup statistics for the headline claim", runStatsSpeedup)
}

// runStatsSpeedup replicates the Fig. 8 ResNet18 comparison over several
// seeds and reports epoch-time speedups as mean +/- stderr: the paper
// reports point estimates (3.7x/3.4x/1.9x); this experiment quantifies the
// run-to-run variance of the reproduction.
func runStatsSpeedup(opt Options) (*Result, error) {
	seeds := 5
	if opt.Quick {
		seeds = 2
	}
	base := manifest("netmax", "ResNet18", "CIFAR10", 8, scaleEpochs(20, opt), opt)
	base.Name = "stats-speedup"
	// The grid expands algorithm-major: each arm's replicas are adjacent,
	// replica i seeded stats.ReplicaSeed(opt.Seed, i) in every arm.
	rep, err := scenario.RunSuite(&scenario.Suite{
		Name: "stats-speedup",
		Base: &scenario.SuiteMember{Manifest: base},
		Grid: &scenario.GridSpec{
			Algorithms: []string{"netmax", "prague", "allreduce", "adpsgd"},
			Replicate:  &scenario.ReplicateSpec{N: seeds},
		},
	}, scenario.SuiteRunOptions{})
	if err != nil {
		return nil, err
	}
	arm := func(k int) []*engine.Result {
		out := make([]*engine.Result, seeds)
		for i := range out {
			out[i] = rep.Reports[k*seeds+i].Engine
		}
		return out
	}
	netmax := arm(0)
	res := &Result{
		ID:     "stats-speedup",
		Title:  fmt.Sprintf("Epoch-time speedup of NetMax over baselines (n=%d seeds)", seeds),
		Header: []string{"baseline", "speedup mean", "stderr", "min", "max"},
	}
	for i, name := range []string{"Prague", "Allreduce-SGD", "AD-PSGD"} {
		s, err := stats.SpeedupSummary(arm(i+1), netmax)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{name, f2(s.Mean), f2(s.StdErr), f2(s.Min), f2(s.Max)})
	}
	res.Notes = append(res.Notes, "paper point estimates (ResNet18): 3.7x Prague, 3.4x Allreduce, 1.9x AD-PSGD")
	return res, nil
}
