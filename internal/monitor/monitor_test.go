package monitor

import (
	"math"
	"testing"

	"netmax/internal/policy"
	"netmax/internal/simnet"
)

func fullTimes(m int, v float64) func(mo *Monitor) {
	return func(mo *Monitor) {
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if i != j {
					mo.ObserveAt(i, j, v, 0)
				}
			}
		}
	}
}

func TestNoRegenerationWithoutCoverage(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(4), Alpha: 0.1, Period: 10})
	if _, ok := mo.MaybeRegenerate(0); ok {
		t.Fatal("regenerated with no observations")
	}
	// Partial coverage: only node 0 reported.
	mo.ObserveAt(0, 1, 2.0, 0)
	if _, ok := mo.MaybeRegenerate(1); ok {
		t.Fatal("regenerated before every worker reported")
	}
}

func TestRegeneratesOnceCovered(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(4), Alpha: 0.1, Period: 10})
	fullTimes(4, 2.0)(mo)
	pol, ok := mo.MaybeRegenerate(0)
	if !ok {
		t.Fatal("expected regeneration")
	}
	if len(pol.P) != 4 {
		t.Fatalf("policy size %d", len(pol.P))
	}
}

func TestPeriodGate(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(4), Alpha: 0.1, Period: 10})
	fullTimes(4, 2.0)(mo)
	if _, ok := mo.MaybeRegenerate(0); !ok {
		t.Fatal("first regeneration blocked")
	}
	if _, ok := mo.MaybeRegenerate(5); ok {
		t.Fatal("regenerated before period elapsed")
	}
	if _, ok := mo.MaybeRegenerate(10); !ok {
		t.Fatal("regeneration due at period boundary blocked")
	}
}

func TestTimesFillsGapsPessimistically(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(3), Alpha: 0.1, Period: 10})
	mo.ObserveAt(0, 1, 1.0, 0)
	mo.ObserveAt(1, 0, 1.0, 0)
	mo.ObserveAt(2, 0, 9.0, 0)
	times := mo.times()
	// Unobserved edges take the max observed time (9).
	if times[0][2] != 9 || times[1][2] != 9 {
		t.Fatalf("gap fill wrong: %v", times)
	}
	if times[0][1] != 1 {
		t.Fatalf("observed value overwritten: %v", times)
	}
	if times[0][0] != 0 {
		t.Fatal("diagonal should stay zero")
	}
}

func TestObserveSelfIgnored(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(2), Alpha: 0.1, Period: 10})
	mo.ObserveAt(1, 1, 5, 0)
	if mo.ema[1][1] != 0 {
		t.Fatal("self observation stored")
	}
}

func TestAdaptsToChangedTimes(t *testing.T) {
	// After link (0,1) degrades, the regenerated policy should shift mass
	// away from it.
	mo := New(Config{Adj: simnet.FullyConnected(4), Alpha: 0.1, Period: 1})
	fullTimes(4, 1.0)(mo)
	pol1, ok := mo.MaybeRegenerate(0)
	if !ok {
		t.Fatal("first regeneration failed")
	}
	mo.ObserveAt(0, 1, 50, 0)
	mo.ObserveAt(1, 0, 50, 0)
	pol2, ok := mo.MaybeRegenerate(2)
	if !ok {
		t.Fatal("second regeneration failed")
	}
	if pol2.P[0][1] >= pol1.P[0][1] {
		t.Fatalf("policy did not shift away from degraded link: %v -> %v", pol1.P[0][1], pol2.P[0][1])
	}
}

func TestObserveRejectsOutOfRangeIndices(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(3), Alpha: 0.1, Period: 10})
	// Wire-supplied indices must never panic or corrupt state.
	mo.ObserveAt(7, 1, 2.0, 0)
	mo.ObserveAt(0, -1, 2.0, 0)
	for i, ok := range mo.everReported {
		if ok {
			t.Fatalf("out-of-range report credited worker %d", i)
		}
	}
}

// fullTimesAt reports every link at a given timestamp so liveness tracking
// sees fresh rows.
func fullTimesAt(mo *Monitor, m int, v, now float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				mo.ObserveAt(i, j, v, now)
			}
		}
	}
}

// requireDead checks that pol treats exactly the workers marked in dead as
// evicted: a dead worker's row is pinned to itself and no worker pulls
// from it, while a live worker keeps peer mass and receives pulls.
func requireDead(t *testing.T, pol *policy.Policy, dead []bool) {
	t.Helper()
	for i, d := range dead {
		pinned := pol.P[i][i] == 1
		pulled := false
		for k := range dead {
			if k != i && pol.P[k][i] > 0 {
				pulled = true
			}
		}
		if d && (!pinned || pulled) {
			t.Fatalf("dead worker %d still in the policy: %v", i, pol.P)
		}
		if !d && (pinned || !pulled) {
			t.Fatalf("live worker %d evicted from the policy: %v", i, pol.P)
		}
	}
}

// TestStaleRowEviction is the regression test for the corpse-routing bug: a
// worker that stops reporting kept its last (attractive) EMA row forever
// and the policy kept routing pulls at it. With StalePeriods set, the row
// is evicted and regenerated policies stop selecting the dead worker.
func TestStaleRowEviction(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(4), Alpha: 0.1, Period: 10, StalePeriods: 2})
	fullTimesAt(mo, 4, 1.0, 0)
	// Worker 3 has the fastest links of all — the attractive corpse.
	mo.ObserveAt(3, 0, 0.1, 0)
	pol1, ok := mo.MaybeRegenerate(0)
	if !ok {
		t.Fatal("first regeneration failed")
	}
	if pol1.P[0][3] == 0 {
		t.Fatal("live worker 3 should receive pulls before failing")
	}
	// Everyone but worker 3 keeps reporting for three periods; the period
	// gate lets each of them regenerate.
	var pol2 *policy.Policy
	for _, now := range []float64{10, 20, 30} {
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				if i != j {
					mo.ObserveAt(i, j, 1.0, now)
				}
			}
		}
		if pol2, ok = mo.MaybeRegenerate(now); !ok {
			t.Fatalf("no regeneration at t=%v", now)
		}
	}
	// Silent for 3 periods (k=2): the t=30 policy has evicted worker 3 —
	// its row pinned to self, its column zero — and only worker 3.
	requireDead(t, pol2, []bool{false, false, false, true})
	// Worker 3 resumes reporting: re-admitted on the next regeneration.
	for j := 0; j < 4; j++ {
		if j != 3 {
			mo.ObserveAt(3, j, 1.0, 41)
		}
	}
	pol3, ok := mo.MaybeRegenerate(41)
	if !ok {
		t.Fatal("membership change (re-admission) did not force regeneration")
	}
	if pol3.P[0][3] == 0 {
		t.Fatalf("re-admitted worker receives no pulls: %v", pol3.P[0])
	}
}

// TestStaleEvictionDisabledByDefault pins the historical behavior: with
// StalePeriods zero, silent workers are never evicted.
func TestStaleEvictionDisabledByDefault(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(3), Alpha: 0.1, Period: 10})
	fullTimesAt(mo, 3, 1.0, 0)
	if _, ok := mo.MaybeRegenerate(0); !ok {
		t.Fatal("first regeneration failed")
	}
	pol, ok := mo.MaybeRegenerate(1e9)
	if !ok {
		t.Fatal("regeneration after the period blocked")
	}
	requireDead(t, pol, []bool{false, false, false})
}

// TestSetLivenessForcesRegeneration verifies the fast membership path: a
// SetLiveness change re-solves the row LPs immediately, bypassing the
// period gate, and re-admission restores routing.
func TestSetLivenessForcesRegeneration(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(4), Alpha: 0.1, Period: 100})
	fullTimesAt(mo, 4, 1.0, 0)
	if _, ok := mo.MaybeRegenerate(0); !ok {
		t.Fatal("first regeneration failed")
	}
	// Within the period: no regeneration without membership change.
	if _, ok := mo.MaybeRegenerate(5); ok {
		t.Fatal("regenerated inside the period without membership change")
	}
	mo.SetLiveness([]bool{true, false, true, true}, 6)
	pol, ok := mo.MaybeRegenerate(6)
	if !ok {
		t.Fatal("membership change did not bypass the period gate")
	}
	requireDead(t, pol, []bool{false, true, false, false})
	// Re-admit: forced again, routing restored. No fresh report is needed
	// first — coverage keys on ever-reported, and the evicted row is
	// gap-filled pessimistically until new measurements arrive; requiring
	// a report here would deadlock (the pinned-to-self policy row gives
	// the rejoined worker nothing to report about).
	mo.SetLiveness([]bool{true, true, true, true}, 7)
	pol2, ok := mo.MaybeRegenerate(7)
	if !ok {
		t.Fatal("re-admission did not force regeneration")
	}
	if pol2.P[0][1] == 0 {
		t.Fatalf("re-admitted worker receives no pulls: %v", pol2.P[0])
	}
}

func TestObserveRejectsNonFiniteTimes(t *testing.T) {
	mo := New(Config{Adj: simnet.FullyConnected(2), Alpha: 0.1, Period: 10})
	mo.ObserveAt(0, 1, math.NaN(), 0)
	mo.ObserveAt(0, 1, math.Inf(1), 0)
	mo.ObserveAt(0, 1, -3, 0)
	mo.ObserveAt(0, 1, 0, 0)
	if mo.ema[0][1] != 0 {
		t.Fatalf("poisonous observation stored: %v", mo.ema[0][1])
	}
	mo.ObserveAt(0, 1, 2.5, 0)
	if mo.ema[0][1] != 2.5 {
		t.Fatal("valid observation rejected")
	}
}

// FuzzObserveAt feeds one arbitrary report — indices, time and timestamp
// as they might arrive over the wire — into a covered 4-worker monitor with
// liveness tracking, then regenerates. Nothing may panic, every adjacent
// link of the policy input must stay finite and non-negative, and a
// returned policy must be a valid one.
func FuzzObserveAt(f *testing.F) {
	f.Fuzz(func(t *testing.T, i, j int, secs, now float64) {
		adj := simnet.FullyConnected(4)
		mo := New(Config{Adj: adj, Alpha: 0.1, Period: 1, StalePeriods: 1})
		fullTimesAt(mo, 4, 1.0, 0)
		mo.ObserveAt(i, j, secs, now)
		pol, ok := mo.MaybeRegenerate(now)
		for a, row := range mo.times() {
			for b, v := range row {
				if a != b && adj[a][b] && (!(v >= 0) || math.IsInf(v, 1)) {
					t.Fatalf("times[%d][%d] = %v after report (%d, %d, %v, %v)", a, b, v, i, j, secs, now)
				}
			}
		}
		if ok {
			if err := policy.Validate(pol.P, adj); err != nil {
				t.Fatalf("report (%d, %d, %v, %v): %v", i, j, secs, now, err)
			}
		}
	})
}
