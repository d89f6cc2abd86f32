package experiments

import (
	"fmt"

	"netmax/internal/baselines"
	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/nn"
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
	const workers = 8
	epochs := scaleEpochs(20, opt)
	seeds := 5
	if opt.Quick {
		seeds = 2
	}
	wl := buildWorkload(data.SynthCIFAR10, workers, opt.Seed+1)
	run := func(f func(cfg *engine.Config) *engine.Result) []*engine.Result {
		return stats.Replicate(seeds, opt.Seed+5, func(seed int64) *engine.Result {
			p := cfgParams{spec: nn.SimResNet18, wl: wl, net: hetNet(workers), epochs: epochs, overlap: true, seed: opt.Seed + 3}
			return f(p.config(seed))
		})
	}
	netmax := run(func(cfg *engine.Config) *engine.Result {
		return core.Run(cfg, core.Options{Ts: scenario.DefaultMonitorTs})
	})
	res := &Result{
		ID:     "stats-speedup",
		Title:  fmt.Sprintf("Epoch-time speedup of NetMax over baselines (n=%d seeds)", seeds),
		Header: []string{"baseline", "speedup mean", "stderr", "min", "max"},
	}
	for _, b := range []struct {
		name string
		run  func(cfg *engine.Config) *engine.Result
	}{
		{"Prague", baselines.RunPrague},
		{"Allreduce-SGD", baselines.RunAllreduce},
		{"AD-PSGD", baselines.RunADPSGD},
	} {
		base := run(b.run)
		s, err := stats.SpeedupSummary(base, netmax)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{b.name, f2(s.Mean), f2(s.StdErr), f2(s.Min), f2(s.Max)})
	}
	res.Notes = append(res.Notes, "paper point estimates (ResNet18): 3.7x Prague, 3.4x Allreduce, 1.9x AD-PSGD")
	return res, nil
}
