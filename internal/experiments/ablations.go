package experiments

import (
	"fmt"

	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/nn"
	"netmax/internal/scenario"
)

func init() {
	register("abl-blend", "Ablation: 1/p-scaled consensus weight vs fixed averaging", runAblBlend)
	register("abl-ts", "Ablation: Network Monitor period Ts", runAblTs)
	register("abl-beta", "Ablation: EMA smoothing factor beta", runAblBeta)
	register("abl-rounds", "Ablation: Algorithm 3 search grid size K=R", runAblRounds)
}

func ablConfig(opt Options, epochs int) cfgParams {
	wl := buildWorkload(data.SynthCIFAR10, 8, opt.Seed+1)
	return cfgParams{spec: nn.SimResNet18, wl: wl, net: hetNet(8), epochs: epochs,
		decayAt: epochs * 7 / 10, overlap: true, seed: opt.Seed + 3}
}

// runAblBlend compares Algorithm 2's 1/p_im-scaled blend weight against
// plain averaging under the same adaptive policy (this is the algorithmic
// delta between NetMax and AD-PSGD+Monitor).
func runAblBlend(opt Options) (*Result, error) {
	epochs := scaleEpochs(30, opt)
	p := ablConfig(opt, epochs)
	scaled := core.Run(p.config(opt.Seed+5), core.Options{Ts: scenario.DefaultMonitorTs})
	fixed := core.Run(p.config(opt.Seed+5), core.Options{Ts: scenario.DefaultMonitorTs, FixedBlend: true})
	res := &Result{
		ID:     "abl-blend",
		Title:  "Consensus blend weight ablation",
		Header: []string{"blend", "total time (s)", "final loss", "accuracy"},
		Rows: [][]string{
			{"1/p-scaled (NetMax)", f1(scaled.TotalTime), fmt.Sprintf("%.3f", scaled.FinalLoss), pct(scaled.FinalAccuracy)},
			{"fixed 1/2", f1(fixed.TotalTime), fmt.Sprintf("%.3f", fixed.FinalLoss), pct(fixed.FinalAccuracy)},
		},
		Notes: []string{"paper (Sec V-H): the scaled weight preserves information from rarely-pulled neighbors, improving per-epoch convergence"},
	}
	return res, nil
}

// runAblTs sweeps the monitor period: too long reacts slowly to the moving
// slow link; too short wastes little here (policy generation is cheap) but
// in a real deployment adds control traffic.
func runAblTs(opt Options) (*Result, error) {
	epochs := scaleEpochs(20, opt)
	res := &Result{
		ID:     "abl-ts",
		Title:  "Monitor period Ts sweep (seconds, simulator scale)",
		Header: []string{"Ts", "total time (s)", "comm cost/epoch (s)"},
	}
	const ts0 = scenario.DefaultMonitorTs
	for _, ts := range []float64{ts0 / 4, ts0, ts0 * 4, ts0 * 16} {
		p := ablConfig(opt, epochs)
		r := core.Run(p.config(opt.Seed+5), core.Options{Ts: ts})
		res.Rows = append(res.Rows, []string{f2(ts), f1(r.TotalTime), f2(r.CommCostPerEpoch(8))})
	}
	res.Notes = append(res.Notes, "expected: total time grows once Ts far exceeds the slow-link period (stale policies)")
	return res, nil
}

// runAblBeta sweeps the EMA smoothing factor β of Algorithm 2: small β
// tracks link changes quickly, large β smooths noise but reacts slowly.
func runAblBeta(opt Options) (*Result, error) {
	epochs := scaleEpochs(20, opt)
	res := &Result{
		ID:     "abl-beta",
		Title:  "EMA smoothing factor beta sweep",
		Header: []string{"beta", "total time (s)", "comm cost/epoch (s)"},
	}
	for _, beta := range []float64{0.1, 0.5, 0.9} {
		p := ablConfig(opt, epochs)
		r := core.Run(p.config(opt.Seed+5), core.Options{Ts: scenario.DefaultMonitorTs, Beta: beta})
		res.Rows = append(res.Rows, []string{f2(beta), f1(r.TotalTime), f2(r.CommCostPerEpoch(8))})
	}
	return res, nil
}

// runAblRounds sweeps Algorithm 3's grid size: coarse grids may miss good
// (ρ, t̄) candidates; fine grids cost monitor CPU.
func runAblRounds(opt Options) (*Result, error) {
	epochs := scaleEpochs(20, opt)
	res := &Result{
		ID:     "abl-rounds",
		Title:  "Algorithm 3 grid size sweep (K = R)",
		Header: []string{"K=R", "total time (s)", "comm cost/epoch (s)"},
	}
	for _, k := range []int{3, 10, 20} {
		p := ablConfig(opt, epochs)
		r := core.Run(p.config(opt.Seed+5), core.Options{Ts: scenario.DefaultMonitorTs, PolicyRounds: k})
		res.Rows = append(res.Rows, []string{fmt.Sprint(k), f1(r.TotalTime), f2(r.CommCostPerEpoch(8))})
	}
	return res, nil
}
