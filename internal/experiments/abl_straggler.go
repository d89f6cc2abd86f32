package experiments

import "netmax/internal/scenario"

func init() {
	register("abl-straggler", "Ablation: compute stragglers (one worker 5x slower)", runAblStraggler)
}

// runAblStraggler studies the compute-heterogeneity dimension targeted by
// Prague [14] and Hop [25]: one worker's gradient computation runs 5x
// slower. Barrier-synchronized approaches pay the straggler every round;
// asynchronous approaches (and Prague's group scheme) degrade gracefully.
func runAblStraggler(opt Options) (*Result, error) {
	const workers = 8
	epochs := scaleEpochs(16, opt)
	arms := []struct{ label, algorithm string }{
		{"Allreduce", "allreduce"},
		{"D-PSGD", "dpsgd"},
		{"Prague", "prague"},
		{"AD-PSGD", "adpsgd"},
		{"NetMax", "netmax"},
	}
	var ms []*scenario.Manifest
	for _, a := range arms {
		uniform := homogeneous(manifest(a.algorithm, "ResNet18", "CIFAR10", workers, epochs, opt))
		straggler := homogeneous(manifest(a.algorithm, "ResNet18", "CIFAR10", workers, epochs, opt))
		straggler.Compute = &scenario.ComputeSpec{Kind: "straggler", Worker: 3, Factor: 5}
		ms = append(ms, uniform, straggler)
	}
	rs, err := run("abl-straggler", serial, ms)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "abl-straggler",
		Title:  "One worker computing 5x slower, homogeneous network",
		Header: []string{"approach", "uniform compute (s)", "with straggler (s)", "slowdown"},
	}
	for k, a := range arms {
		base, slow := rs[2*k], rs[2*k+1]
		res.Rows = append(res.Rows, []string{a.label, f1(base.TotalTime), f1(slow.TotalTime), f2(slow.TotalTime / base.TotalTime)})
	}
	res.Notes = append(res.Notes,
		"expected: sync approaches slow down toward 5x; async approaches stay near 1x (the straggler only throttles its own share of samples)")
	return res, nil
}
