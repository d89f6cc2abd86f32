package experiments

import (
	"fmt"

	"netmax/internal/engine"
	"netmax/internal/nn"
	"netmax/internal/scenario"
	"netmax/internal/simnet"
)

func init() {
	register("fig3", "Iteration time: intra- vs inter-machine communication", runFig3)
	register("fig5", "Average epoch time decomposition, 8 workers, heterogeneous", runFig5)
	register("fig6", "Average epoch time decomposition, 8 workers, homogeneous", runFig6)
	register("fig7", "Ablation: serial/parallel x uniform/adaptive", runFig7)
	register("fig8", "Training loss vs time, 8 workers, heterogeneous", runFig8)
	register("fig9", "Training loss vs time, 8 workers, homogeneous", runFig9)
	register("fig10", "Speedup vs worker count, heterogeneous", runFig10)
	register("fig11", "Speedup vs worker count, homogeneous", runFig11)
}

// runFig3 measures t_{i,m} = max(C_i, N_{i,m}) for an intra-machine and an
// inter-machine peer, for ResNet18 and VGG19 (paper Fig. 3).
func runFig3(opt Options) (*Result, error) {
	topo := simnet.PaperCluster(8)
	net := simnet.NewStatic(topo)
	res := &Result{
		ID:     "fig3",
		Title:  "Average iteration time (s): intra- vs inter-machine",
		Header: []string{"model", "intra-machine", "inter-machine", "ratio"},
	}
	for _, spec := range []nn.ModelSpec{nn.SimResNet18, nn.SimVGG19} {
		intra := net.IterationTime(0, 1, spec.ModelBytes(), spec.ComputeSecs, 0, true)
		inter := net.IterationTime(0, 7, spec.ModelBytes(), spec.ComputeSecs, 0, true)
		res.Rows = append(res.Rows, []string{spec.Name, f2(intra), f2(inter), f2(inter / intra)})
	}
	res.Notes = append(res.Notes, "paper shape: inter-machine 2-4x intra; VGG19 > ResNet18")
	return res, nil
}

func epochTimeDecomposition(id, title string, hom bool, opt Options) (*Result, error) {
	const workers = 8
	epochs := scaleEpochs(16, opt)
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"model", "approach", "comp cost (s)", "comm cost (s)", "epoch time (s)"},
		Curves: map[string][]engine.Point{},
	}
	var ms []*scenario.Manifest
	for _, model := range []string{"ResNet18", "VGG19"} {
		for _, a := range clusterAlgorithms {
			m := manifest(a, model, "CIFAR10", workers, epochs, opt)
			if hom {
				homogeneous(m)
			}
			ms = append(ms, m)
		}
	}
	rs, err := run(id, serial, ms)
	if err != nil {
		return nil, err
	}
	for k, r := range rs {
		res.Rows = append(res.Rows, []string{
			ms[k].Model, r.Algo,
			f2(r.CompCostPerEpoch(workers)), f2(r.CommCostPerEpoch(workers)),
			f2(r.AvgEpochTime()),
		})
	}
	return res, nil
}

// runFig5 reproduces the heterogeneous epoch-time bars (paper Fig. 5).
func runFig5(opt Options) (*Result, error) {
	res, err := epochTimeDecomposition("fig5", "Avg epoch time, heterogeneous network", false, opt)
	if err == nil {
		res.Notes = append(res.Notes,
			"paper shape: comp costs ~equal; NetMax lowest comm; Prague highest comm",
			"paper: NetMax cuts ResNet18 comm by 83.4%/81.7%/63.7% vs Prague/Allreduce/AD-PSGD")
	}
	return res, err
}

// runFig6 reproduces the homogeneous epoch-time bars (paper Fig. 6).
func runFig6(opt Options) (*Result, error) {
	res, err := epochTimeDecomposition("fig6", "Avg epoch time, homogeneous network", true, opt)
	if err == nil {
		res.Notes = append(res.Notes,
			"paper shape: comm costs much lower than Fig.5; NetMax ~ AD-PSGD < Allreduce < Prague")
	}
	return res, err
}

// runFig7 reproduces the source-of-improvement ablation (paper Fig. 7):
// serial vs parallel execution x uniform vs adaptive probabilities.
func runFig7(opt Options) (*Result, error) {
	const workers = 8
	epochs := scaleEpochs(16, opt)
	res := &Result{
		ID:     "fig7",
		Title:  "Avg epoch time (s) under the four NetMax settings",
		Header: []string{"model", "serial+uniform", "parallel+uniform", "serial+adaptive", "parallel+adaptive"},
	}
	// Epoch times under the dynamic slowdown schedule are noisy (one 2-100x
	// slow link moves around), so each setting is averaged over several
	// network seeds — the paper averages implicitly over much longer runs.
	netSeeds := []int64{opt.Seed, opt.Seed + 100, opt.Seed + 200}
	if opt.Quick {
		netSeeds = netSeeds[:1]
	}
	models := []string{"ResNet18", "VGG19"}
	settings := []struct {
		overlap bool
		uniform bool
	}{{false, true}, {true, true}, {false, false}, {true, false}}
	var ms []*scenario.Manifest
	for _, model := range models {
		for _, setting := range settings {
			for _, ns := range netSeeds {
				m := manifest("netmax", model, "CIFAR10", workers, epochs, opt)
				m.Overlap = &setting.overlap
				m.Network = &scenario.NetworkSpec{Kind: "heterogeneous", Seed: &ns}
				m.NetMax = &scenario.NetMaxSpec{UniformPolicy: setting.uniform}
				ms = append(ms, m)
			}
		}
	}
	rs, err := run("fig7", serial, ms)
	if err != nil {
		return nil, err
	}
	for _, model := range models {
		row := []string{model}
		for range settings {
			sum := 0.0
			for range netSeeds {
				sum += rs[0].AvgEpochTime()
				rs = rs[1:]
			}
			row = append(row, f1(sum/float64(len(netSeeds))))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper shape: adaptive probabilities contribute most of the gain; parallelism is marginal")
	return res, nil
}

func lossVsTime(id, title string, hom bool, opt Options) (*Result, error) {
	const workers = 8
	epochs := scaleEpochs(40, opt)
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"model", "approach", "total time (s)", "time to target loss (s)", "final loss"},
		Curves: map[string][]engine.Point{},
	}
	models := []string{"ResNet18", "VGG19"}
	var ms []*scenario.Manifest
	for _, model := range models {
		for _, a := range clusterAlgorithms {
			// LR 0.03 keeps per-epoch convergence comparable across
			// approaches (see the segmentsExperiment comment): at 0.1 the
			// exact-averaging baselines hit the plateau in 1-2 epochs on
			// this substrate, which the paper's DNN workloads do not
			// exhibit.
			m := manifest(a, model, "CIFAR10", workers, epochs, opt)
			m.LR = 0.03
			m.LRDecayEpoch = epochs * 7 / 10
			if hom {
				homogeneous(m)
			}
			ms = append(ms, m)
		}
	}
	all, err := run(id, concurrent, ms)
	if err != nil {
		return nil, err
	}
	for i, model := range models {
		rs := all[i*len(clusterAlgorithms) : (i+1)*len(clusterAlgorithms)]
		target := lossTarget(rs)
		var netmaxT float64
		for _, r := range rs {
			t := r.TimeToLoss(target)
			res.Rows = append(res.Rows, []string{model, r.Algo, f1(r.TotalTime), f1(t), fmt.Sprintf("%.3f", r.FinalLoss)})
			res.Curves[model+"/"+r.Algo] = r.Curve
			if r.Algo == "NetMax" {
				netmaxT = t
			}
		}
		for _, r := range rs {
			if r.Algo == "NetMax" || netmaxT <= 0 {
				continue
			}
			if t := r.TimeToLoss(target); t > 0 {
				res.Notes = append(res.Notes, fmt.Sprintf("%s: NetMax speedup over %s at loss %.3f: %.2fx", model, r.Algo, target, t/netmaxT))
			}
		}
	}
	return res, nil
}

// runFig8 reproduces the heterogeneous convergence race (paper Fig. 8:
// NetMax 3.7x/3.4x/1.9x over Prague/Allreduce/AD-PSGD for ResNet18).
func runFig8(opt Options) (*Result, error) {
	res, err := lossVsTime("fig8", "Training loss vs time, heterogeneous", false, opt)
	if err == nil {
		res.Notes = append(res.Notes, "paper: ResNet18 speedups 3.7x/3.4x/1.9x; VGG19 2.8x/2.2x/1.7x")
	}
	return res, err
}

// runFig9 reproduces the homogeneous convergence race (paper Fig. 9:
// NetMax ~ AD-PSGD, both ahead of Allreduce and Prague).
func runFig9(opt Options) (*Result, error) {
	res, err := lossVsTime("fig9", "Training loss vs time, homogeneous", true, opt)
	if err == nil {
		res.Notes = append(res.Notes, "paper shape: NetMax and AD-PSGD nearly coincide; both beat Allreduce/Prague")
	}
	return res, err
}

func scalability(id, title string, nodeCounts []int, hom bool, opt Options) (*Result, error) {
	epochs := scaleEpochs(12, opt)
	res := &Result{
		ID:    id,
		Title: title,
		Header: append([]string{"approach"}, func() []string {
			var h []string
			for _, n := range nodeCounts {
				h = append(h, fmt.Sprintf("%d nodes", n))
			}
			return h
		}()...),
	}
	var ms []*scenario.Manifest
	for _, a := range clusterAlgorithms {
		for _, n := range nodeCounts {
			m := manifest(a, "ResNet18", "CIFAR10", n, epochs, opt)
			if hom {
				homogeneous(m)
			}
			ms = append(ms, m)
		}
	}
	rs, err := run(id, serial, ms)
	if err != nil {
		return nil, err
	}
	// Baseline: Allreduce with the smallest node count (the paper's
	// reference run).
	var base float64
	for k, m := range ms {
		if m.Algorithm == "allreduce" && m.Workers == nodeCounts[0] {
			base = rs[k].TotalTime
		}
	}
	// Row labels of clusterAlgorithms, in order.
	for i, label := range []string{"Prague", "Allreduce", "AD-PSGD", "NetMax"} {
		row := []string{label}
		for _, r := range rs[i*len(nodeCounts) : (i+1)*len(nodeCounts)] {
			row = append(row, f2(base/r.TotalTime))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, "speedup = time of Allreduce@"+fmt.Sprint(nodeCounts[0])+" / time of run (same epochs)")
	return res, nil
}

// runFig10 reproduces heterogeneous scalability (paper Fig. 10).
func runFig10(opt Options) (*Result, error) {
	counts := []int{4, 8, 12, 16}
	if opt.Quick {
		counts = []int{4, 8}
	}
	res, err := scalability("fig10", "Speedup vs workers, heterogeneous (ResNet18)", counts, false, opt)
	if err == nil {
		res.Notes = append(res.Notes, "paper shape: NetMax scales best; gap widens with more nodes")
	}
	return res, err
}

// runFig11 reproduces homogeneous scalability (paper Fig. 11).
func runFig11(opt Options) (*Result, error) {
	counts := []int{4, 6, 8}
	if opt.Quick {
		counts = []int{4, 8}
	}
	res, err := scalability("fig11", "Speedup vs workers, homogeneous (ResNet18)", counts, true, opt)
	if err == nil {
		res.Notes = append(res.Notes, "paper shape: NetMax >= AD-PSGD > Allreduce > Prague")
	}
	return res, err
}
