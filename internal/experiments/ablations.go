package experiments

import (
	"fmt"

	"netmax/internal/scenario"
)

func init() {
	register("abl-blend", "Ablation: 1/p-scaled consensus weight vs fixed averaging", runAblBlend)
	register("abl-ts", "Ablation: Network Monitor period Ts", runAblTs)
	register("abl-beta", "Ablation: EMA smoothing factor beta", runAblBeta)
	register("abl-rounds", "Ablation: Algorithm 3 search grid size K=R", runAblRounds)
}

// ablation is the NetMax run every control-plane ablation varies:
// ResNet18 on 8 heterogeneous-cluster workers, LR decayed at 70% of the run.
func ablation(nm *scenario.NetMaxSpec, epochs int, opt Options) *scenario.Manifest {
	m := manifest("netmax", "ResNet18", "CIFAR10", 8, epochs, opt)
	m.LRDecayEpoch = epochs * 7 / 10
	m.NetMax = nm
	return m
}

// runAblBlend compares Algorithm 2's 1/p_im-scaled blend weight against
// plain averaging under the same adaptive policy (this is the algorithmic
// delta between NetMax and AD-PSGD+Monitor).
func runAblBlend(opt Options) (*Result, error) {
	epochs := scaleEpochs(30, opt)
	rs, err := run("abl-blend", []*scenario.Manifest{
		ablation(nil, epochs, opt),
		ablation(&scenario.NetMaxSpec{FixedBlend: true}, epochs, opt),
	})
	if err != nil {
		return nil, err
	}
	scaled, fixed := rs[0], rs[1]
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

// sweep runs the ablation once per NetMax spec and tabulates each run's
// total time and comm cost per epoch, one row per spec under its label.
func sweep(id, title, param string, labels []string, nms []*scenario.NetMaxSpec, opt Options) (*Result, error) {
	epochs := scaleEpochs(20, opt)
	ms := make([]*scenario.Manifest, len(nms))
	for k, nm := range nms {
		ms[k] = ablation(nm, epochs, opt)
	}
	rs, err := run(id, ms)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: id, Title: title, Header: []string{param, "total time (s)", "comm cost/epoch (s)"}}
	for k, r := range rs {
		res.Rows = append(res.Rows, []string{labels[k], f1(r.TotalTime), f2(r.CommCostPerEpoch(8))})
	}
	return res, nil
}

// runAblTs sweeps the monitor period: too long reacts slowly to the moving
// slow link; too short wastes little here (policy generation is cheap) but
// in a real deployment adds control traffic.
func runAblTs(opt Options) (*Result, error) {
	const ts0 = scenario.DefaultMonitorTs
	var labels []string
	var nms []*scenario.NetMaxSpec
	for _, ts := range []float64{ts0 / 4, ts0, ts0 * 4, ts0 * 16} {
		labels = append(labels, f2(ts))
		nms = append(nms, &scenario.NetMaxSpec{TsSecs: ts})
	}
	res, err := sweep("abl-ts", "Monitor period Ts sweep (seconds, simulator scale)", "Ts", labels, nms, opt)
	if err == nil {
		res.Notes = append(res.Notes, "expected: total time grows once Ts far exceeds the slow-link period (stale policies)")
	}
	return res, err
}

// runAblBeta sweeps the EMA smoothing factor β of Algorithm 2: small β
// tracks link changes quickly, large β smooths noise but reacts slowly.
func runAblBeta(opt Options) (*Result, error) {
	var labels []string
	var nms []*scenario.NetMaxSpec
	for _, beta := range []float64{0.1, 0.5, 0.9} {
		labels = append(labels, f2(beta))
		nms = append(nms, &scenario.NetMaxSpec{Beta: beta})
	}
	return sweep("abl-beta", "EMA smoothing factor beta sweep", "beta", labels, nms, opt)
}

// runAblRounds sweeps Algorithm 3's grid size: coarse grids may miss good
// (ρ, t̄) candidates; fine grids cost monitor CPU.
func runAblRounds(opt Options) (*Result, error) {
	var labels []string
	var nms []*scenario.NetMaxSpec
	for _, k := range []int{3, 10, 20} {
		labels = append(labels, fmt.Sprint(k))
		nms = append(nms, &scenario.NetMaxSpec{PolicyRounds: k})
	}
	return sweep("abl-rounds", "Algorithm 3 grid size sweep (K = R)", "K=R", labels, nms, opt)
}
