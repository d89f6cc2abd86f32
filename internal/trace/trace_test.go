package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"netmax/internal/engine"
)

func sampleResult() *engine.Result {
	return &engine.Result{
		Algo: "NetMax",
		Curve: []engine.Point{
			{Epoch: 1, Time: 2.5, Value: 1.2},
			{Epoch: 2, Time: 5.0, Value: 0.8},
		},
		FinalLoss:     0.8,
		FinalAccuracy: 0.91,
		TotalTime:     5.0,
		GlobalSteps:   100,
		CompSecs:      1.5,
		CommSecs:      3.5,
		Epochs:        2,
	}
}

func TestWriteCurveCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCurveCSV(&buf, sampleResult().Curve); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "epoch,time_seconds,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1,2.5,1.2" {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWriteCurvesCSVSortedSeries(t *testing.T) {
	var buf bytes.Buffer
	curves := map[string][]engine.Point{
		"b": {{Epoch: 1, Time: 1, Value: 2}},
		"a": {{Epoch: 1, Time: 1, Value: 3}},
	}
	if err := WriteCurvesCSV(&buf, curves); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ia, ib := strings.Index(out, "\na,"), strings.Index(out, "\nb,")
	if ia == -1 || ib == -1 || ia > ib {
		t.Fatalf("series not sorted:\n%s", out)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	r := sampleResult()
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := readResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algo != r.Algo || got.FinalLoss != r.FinalLoss || got.TotalTime != r.TotalTime ||
		got.GlobalSteps != r.GlobalSteps || len(got.Curve) != len(r.Curve) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
	if got.Curve[1] != r.Curve[1] {
		t.Fatalf("curve point mismatch: %+v vs %+v", got.Curve[1], r.Curve[1])
	}
}

// readResultJSON parses a result written by WriteResultJSON back into an
// engine.Result: the round-trip test's reference decoder.
func readResultJSON(r io.Reader) (*engine.Result, error) {
	var rj ResultJSON
	if err := json.NewDecoder(r).Decode(&rj); err != nil {
		return nil, fmt.Errorf("trace: decode result: %w", err)
	}
	return &engine.Result{
		Algo:          rj.Algo,
		Curve:         rj.Curve,
		FinalLoss:     rj.FinalLoss,
		FinalAccuracy: rj.FinalAccuracy,
		TotalTime:     rj.TotalTime,
		GlobalSteps:   rj.GlobalSteps,
		CompSecs:      rj.CompSecs,
		CommSecs:      rj.CommSecs,
		BytesSent:     rj.BytesSent,
		Epochs:        rj.Epochs,
	}, nil
}
