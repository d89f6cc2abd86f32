package experiments

import (
	"fmt"

	"netmax/internal/baselines"
	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/nn"
	"netmax/internal/scenario"
	"netmax/internal/simnet"
)

func init() {
	register("abl-hop", "Ablation: Hop bounded staleness under a continuous slow link", runAblHop)
}

// runAblHop quantifies the paper's related-work critique of bounded
// staleness (Hop [25], Gaia [3]): "when network links experience a
// continuous slowdown, the whole system would be dragged down by these
// low-speed links". One worker pair keeps a permanently slow link; Hop's
// staleness gate transmits that worker's delay to everyone, while NetMax
// routes around the link.
func runAblHop(opt Options) (*Result, error) {
	const workers = 8
	epochs := scaleEpochs(16, opt)
	wl := buildWorkload(data.SynthCIFAR10, workers, opt.Seed+1)
	topo := simnet.PaperCluster(workers)
	// A static network with one continuously slow link: the heterogeneous
	// generator with a single never-moving slowdown period.
	net := func(seed int64) *simnet.Network {
		return simnet.NewHeterogeneousPeriod(topo, seed, 1e7, 1e7)
	}
	p := cfgParams{spec: nn.SimResNet18, wl: wl, net: net, epochs: epochs, overlap: true, seed: opt.Seed + 3}
	res := &Result{
		ID:     "abl-hop",
		Title:  "Bounded staleness vs adaptive routing, one continuously slow link",
		Header: []string{"approach", "total time (s)", "comm cost/epoch (s)"},
	}
	for _, a := range []struct {
		name string
		run  func() *engine.Result
	}{
		{"Hop (s=2)", func() *engine.Result { return baselines.RunHop(p.config(opt.Seed+5), 2) }},
		{"Hop (s=8)", func() *engine.Result { return baselines.RunHop(p.config(opt.Seed+5), 8) }},
		{"AD-PSGD", func() *engine.Result { return baselines.RunADPSGD(p.config(opt.Seed + 5)) }},
		{"NetMax", func() *engine.Result {
			return core.Run(p.config(opt.Seed+5), core.Options{Ts: scenario.DefaultMonitorTs})
		}},
	} {
		r := a.run()
		res.Rows = append(res.Rows, []string{a.name, f1(r.TotalTime), f2(r.CommCostPerEpoch(workers))})
	}
	res.Notes = append(res.Notes,
		"expected: tight staleness bounds drag the whole system toward the slow worker's pace; NetMax avoids the slow link entirely",
		fmt.Sprintf("slow link is static for the whole run (%d epochs)", epochs))
	return res, nil
}
