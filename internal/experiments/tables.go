package experiments

import (
	"fmt"

	"netmax/internal/scenario"
)

func init() {
	register("tab2", "Test accuracy over a heterogeneous network (Table II)", runTab2)
	register("tab3", "Test accuracy over a homogeneous network (Table III)", runTab3)
}

func accuracyTable(id, title string, nodeCounts []int, hom bool, opt Options) (*Result, error) {
	epochs := scaleEpochs(30, opt)
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"model", "nodes", "Prague", "Allreduce", "AD-PSGD", "NetMax"},
	}
	models := []string{"ResNet18", "VGG19"}
	var ms []*scenario.Manifest
	for _, model := range models {
		for _, n := range nodeCounts {
			for _, a := range clusterAlgorithms {
				m := manifest(a, model, "CIFAR10", n, epochs, opt)
				m.LRDecayEpoch = epochs * 7 / 10
				if hom {
					homogeneous(m)
				}
				ms = append(ms, m)
			}
		}
	}
	rs, err := run(id, ms)
	if err != nil {
		return nil, err
	}
	for _, model := range models {
		for _, n := range nodeCounts {
			row := []string{model, fmt.Sprint(n)}
			for _, r := range rs[:len(clusterAlgorithms)] {
				row = append(row, pct(r.FinalAccuracy))
			}
			rs = rs[len(clusterAlgorithms):]
			res.Rows = append(res.Rows, row)
		}
	}
	res.Notes = append(res.Notes, "paper shape: all approaches within ~1 point; NetMax ties or slightly leads")
	return res, nil
}

// runTab2 reproduces Table II: accuracy at 4/8/16 workers, heterogeneous.
func runTab2(opt Options) (*Result, error) {
	counts := []int{4, 8, 16}
	if opt.Quick {
		counts = []int{4, 8}
	}
	return accuracyTable("tab2", "Accuracy, heterogeneous network", counts, false, opt)
}

// runTab3 reproduces Table III: accuracy at 4/6/8 workers, homogeneous.
func runTab3(opt Options) (*Result, error) {
	counts := []int{4, 6, 8}
	if opt.Quick {
		counts = []int{4, 8}
	}
	return accuracyTable("tab3", "Accuracy, homogeneous network", counts, true, opt)
}
