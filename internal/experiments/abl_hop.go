package experiments

import (
	"fmt"

	"netmax/internal/scenario"
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
	arms := []struct {
		label, algorithm string
		staleness        int
	}{
		{"Hop (s=2)", "hop", 2},
		{"Hop (s=8)", "hop", 8},
		{"AD-PSGD", "adpsgd", 0},
		{"NetMax", "netmax", 0},
	}
	var ms []*scenario.Manifest
	for _, a := range arms {
		m := manifest(a.algorithm, "ResNet18", "CIFAR10", workers, epochs, opt)
		m.HopStaleness = a.staleness
		// A static network with one continuously slow link: the
		// heterogeneous generator with a single slowdown period spanning
		// the whole 1e7 s schedule.
		m.Network = &scenario.NetworkSpec{Kind: "heterogeneous", PeriodSecs: 1e7}
		ms = append(ms, m)
	}
	rs, err := run("abl-hop", serial, ms)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "abl-hop",
		Title:  "Bounded staleness vs adaptive routing, one continuously slow link",
		Header: []string{"approach", "total time (s)", "comm cost/epoch (s)"},
	}
	for k, r := range rs {
		res.Rows = append(res.Rows, []string{arms[k].label, f1(r.TotalTime), f2(r.CommCostPerEpoch(workers))})
	}
	res.Notes = append(res.Notes,
		"expected: tight staleness bounds drag the whole system toward the slow worker's pace; NetMax avoids the slow link entirely",
		fmt.Sprintf("slow link is static for the whole run (%d epochs)", epochs))
	return res, nil
}
