package experiments

import (
	"netmax/internal/engine"
	"netmax/internal/scenario"
)

func init() {
	register("abl-saps", "Ablation: static fast-subgraph (SAPS) vs adaptive policy under changing link speeds", runAblSAPS)
	register("abl-dpsgd", "Ablation: synchronous D-PSGD neighborhood averaging vs NetMax", runAblDPSGD)
}

// runAblSAPS reproduces the paper's Fig. 2 argument against SAPS-PSGD [15]:
// when WHICH links are fast changes over time (not merely one slowed link),
// a static initially-fast subgraph keeps routing traffic over links that
// have become slow, while NetMax's monitor re-measures and re-routes.
func runAblSAPS(opt Options) (*Result, error) {
	const workers = 8
	epochs := scaleEpochs(40, opt)
	res := &Result{
		ID:     "abl-saps",
		Title:  "SAPS static subgraph vs NetMax under shuffled link speeds",
		Header: []string{"network", "approach", "avg total time (s)", "avg comm cost/epoch (s)"},
	}
	netSeeds := []int64{opt.Seed, opt.Seed + 50, opt.Seed + 500}
	if opt.Quick {
		netSeeds = netSeeds[:1]
	}
	// Runs come in (SAPS, NetMax) pairs: one pair on the static rates,
	// which have no seed to vary, then one pair per shuffled network seed.
	var ms []*scenario.Manifest
	for _, a := range []string{"saps", "netmax"} {
		m := manifest(a, "ResNet18", "CIFAR10", workers, epochs, opt)
		m.Network = &scenario.NetworkSpec{Kind: "static"}
		ms = append(ms, m)
	}
	for _, ns := range netSeeds {
		for _, a := range []string{"saps", "netmax"} {
			m := manifest(a, "ResNet18", "CIFAR10", workers, epochs, opt)
			// The shuffle period is 2x the slow-link period: long enough
			// that the monitor's tracking lag (Ts plus EMA warm-up) is a
			// modest fraction of each regime, short enough that a 40-epoch
			// run spans many regimes for averaging.
			m.Network = &scenario.NetworkSpec{Kind: "shuffled", Seed: &ns, PeriodSecs: 2 * scenario.DefaultSlowPeriod}
			ms = append(ms, m)
		}
	}
	rs, err := run("abl-saps", ms)
	if err != nil {
		return nil, err
	}
	// average tabulates one network's rows, averaging each approach over
	// its (SAPS, NetMax) pairs.
	average := func(network string, rs []*engine.Result) {
		var sapsT, sapsC, nmT, nmC float64
		n := float64(len(rs) / 2)
		for k := 0; k < len(rs); k += 2 {
			saps, netmax := rs[k], rs[k+1]
			sapsT += saps.TotalTime / n
			sapsC += saps.CommCostPerEpoch(workers) / n
			nmT += netmax.TotalTime / n
			nmC += netmax.CommCostPerEpoch(workers) / n
		}
		res.Rows = append(res.Rows,
			[]string{network, "SAPS-PSGD", f1(sapsT), f2(sapsC)},
			[]string{network, "NetMax", f1(nmT), f2(nmC)})
	}
	average("static rates", rs[:2])
	average("shuffled rates", rs[2:])
	res.Notes = append(res.Notes,
		"expected: SAPS competitive under static rates, degraded under shuffled rates (its subgraph goes stale)",
		"measured finding: SAPS degrades ~1.5x as predicted, yet stays ahead of NetMax here: with a third of all links congested, Eq. 10's frequency equalization forces NetMax to keep floor probability on congested links on every row. NetMax's wins (Fig. 5/8) come from the paper's single-slow-link regime, where those floors are nearly free")
	return res, nil
}

// runAblDPSGD compares synchronous D-PSGD (neighborhood averaging with a
// barrier) against NetMax on the heterogeneous cluster.
func runAblDPSGD(opt Options) (*Result, error) {
	const workers = 8
	epochs := scaleEpochs(16, opt)
	rs, err := run("abl-dpsgd", []*scenario.Manifest{
		manifest("dpsgd", "ResNet18", "CIFAR10", workers, epochs, opt),
		manifest("netmax", "ResNet18", "CIFAR10", workers, epochs, opt),
	})
	if err != nil {
		return nil, err
	}
	dpsgd, netmax := rs[0], rs[1]
	res := &Result{
		ID:     "abl-dpsgd",
		Title:  "Synchronous D-PSGD vs NetMax, heterogeneous network",
		Header: []string{"approach", "total time (s)", "comm cost/epoch (s)", "accuracy"},
		Rows: [][]string{
			{"D-PSGD", f1(dpsgd.TotalTime), f2(dpsgd.CommCostPerEpoch(workers)), pct(dpsgd.FinalAccuracy)},
			{"NetMax", f1(netmax.TotalTime), f2(netmax.CommCostPerEpoch(workers)), pct(netmax.FinalAccuracy)},
		},
		Notes: []string{"expected: the sync barrier makes D-PSGD pay the slowest link every round; NetMax avoids it"},
	}
	return res, nil
}
