// Package trace exports training results in machine-readable formats so the
// regenerated figures can be plotted externally: CSV for single curves and
// JSON for full multi-series experiment results. Only the standard library
// encoders are used.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"netmax/internal/engine"
)

// WriteCurveCSV writes one training curve as epoch,time,value rows.
func WriteCurveCSV(w io.Writer, curve []engine.Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"epoch", "time_seconds", "value"}); err != nil {
		return err
	}
	for _, p := range curve {
		rec := []string{
			strconv.FormatFloat(p.Epoch, 'g', -1, 64),
			strconv.FormatFloat(p.Time, 'g', -1, 64),
			strconv.FormatFloat(p.Value, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCurvesCSV writes multiple labeled curves as series,epoch,time,value
// rows, series sorted by label for deterministic output.
func WriteCurvesCSV(w io.Writer, curves map[string][]engine.Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "epoch", "time_seconds", "value"}); err != nil {
		return err
	}
	labels := make([]string, 0, len(curves))
	for k := range curves {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	for _, label := range labels {
		for _, p := range curves[label] {
			rec := []string{
				label,
				strconv.FormatFloat(p.Epoch, 'g', -1, 64),
				strconv.FormatFloat(p.Time, 'g', -1, 64),
				strconv.FormatFloat(p.Value, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ResultJSON is the JSON projection of an engine.Result.
type ResultJSON struct {
	Algo          string         `json:"algo"`
	Curve         []engine.Point `json:"curve"`
	FinalLoss     float64        `json:"final_loss"`
	FinalAccuracy float64        `json:"final_accuracy"`
	TotalTime     float64        `json:"total_time_seconds"`
	GlobalSteps   int            `json:"global_steps"`
	CompSecs      float64        `json:"comp_seconds"`
	CommSecs      float64        `json:"comm_seconds"`
	BytesSent     int64          `json:"bytes_sent"`
	Epochs        int            `json:"epochs"`
}

// WriteResultJSON writes one result as indented JSON.
func WriteResultJSON(w io.Writer, r *engine.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ResultJSON{
		Algo:          r.Algo,
		Curve:         r.Curve,
		FinalLoss:     r.FinalLoss,
		FinalAccuracy: r.FinalAccuracy,
		TotalTime:     r.TotalTime,
		GlobalSteps:   r.GlobalSteps,
		CompSecs:      r.CompSecs,
		CommSecs:      r.CommSecs,
		BytesSent:     r.BytesSent,
		Epochs:        r.Epochs,
	})
}
