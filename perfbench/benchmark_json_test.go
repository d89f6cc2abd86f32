package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics and
// workloads this program reports in step: a run must print exactly the
// metrics the file lists, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
		Why  string `json:"why"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, file []named, code []struct{ name, unit string }) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d, the code reports %d", what, len(file), len(code))
			return
		}
		for k := range file {
			if file[k].Name != code[k].name || file[k].Unit != code[k].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]",
					what, k, file[k].Name, file[k].Unit, code[k].name, code[k].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, layerMetrics)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(b.Workloads), len(workloads))
	}
	for k, w := range b.Workloads {
		if w.Name != workloads[k].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", k, w.Name, workloads[k].name)
		}
	}
	floor := fmt.Sprintf(">= %.2f", liveAccuracyFloor)
	if why := b.Workloads[2].Why; !strings.Contains(why, floor) {
		t.Errorf("live-tcp-topk's why %q does not state the accuracy floor %q", why, floor)
	}
}
