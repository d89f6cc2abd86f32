package stats

import (
	"math"
	"testing"
	"testing/quick"

	"netmax/internal/engine"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 || s.N != 8 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample std of this classic set is ~2.138.
	if math.Abs(s.Std-2.138) > 0.01 {
		t.Fatalf("std = %v", s.Std)
	}
	if math.Abs(s.StdErr-s.Std/math.Sqrt(8)) > 1e-12 {
		t.Fatalf("stderr = %v", s.StdErr)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Std != 0 || s.StdErr != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestSummarizeBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			// Skip values whose squares overflow: the variance computation
			// legitimately produces +Inf there.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true
			}
		}
		s := Summarize(xs)
		return s.Min <= s.Mean && s.Mean <= s.Max && s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedupSummary(t *testing.T) {
	base := []*engine.Result{{TotalTime: 20}, {TotalTime: 40}}
	test := []*engine.Result{{TotalTime: 10}, {TotalTime: 10}}
	s, err := SpeedupSummary(base, test)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 3 { // (2 + 4) / 2
		t.Fatalf("mean speedup = %v", s.Mean)
	}
}

func TestSpeedupSummaryErrors(t *testing.T) {
	if _, err := SpeedupSummary(nil, nil); err == nil {
		t.Fatal("expected error for empty replicates")
	}
	if _, err := SpeedupSummary([]*engine.Result{{TotalTime: 1}}, []*engine.Result{{TotalTime: 0}}); err == nil {
		t.Fatal("expected error for zero time")
	}
}
