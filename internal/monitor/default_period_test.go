package monitor_test

import (
	"testing"

	"netmax/internal/monitor"
	"netmax/internal/scenario"
	"netmax/internal/simnet"
)

// TestDefaultPeriodIsPaperTs checks that a monitor built with the period a
// resolved manifest gets regenerates on the paper's Ts of 2 minutes over
// the evaluation's 50x time scale: at the first covered tick, then not
// again until a full period has passed.
func TestDefaultPeriodIsPaperTs(t *testing.T) {
	const paperTs, timeScale = 120.0, 50.0
	ts := (&scenario.Manifest{Name: "x"}).Resolved().NetMax.TsSecs
	if ts != paperTs/timeScale {
		t.Fatalf("default period = %v, want %v (the paper's 2 minutes at 50x)", ts, paperTs/timeScale)
	}
	mo := monitor.New(monitor.Config{Adj: simnet.FullyConnected(3), Alpha: 0.1, Period: ts})
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				mo.ObserveAt(i, j, 1, 0)
			}
		}
	}
	if _, ok := mo.MaybeRegenerate(0); !ok {
		t.Fatal("no policy at the first covered tick")
	}
	if _, ok := mo.MaybeRegenerate(0.99 * ts); ok {
		t.Fatal("regenerated before a full period passed")
	}
	if _, ok := mo.MaybeRegenerate(ts); !ok {
		t.Fatal("no regeneration once a full period passed")
	}
}
