package simnet

import (
	"math"
	"testing"
)

func TestFailureScheduleQueries(t *testing.T) {
	s := NewFailureSchedule().
		Crash(1, 10, 20).
		Hang(2, 5, 8).
		Leave(3, 30).
		Blackout(0, 2, 12, 18)

	// Crash: down on [10, 20), membership-changing.
	if s.Down(1, 9.99) || !s.Down(1, 10) || !s.Down(1, 19.99) || s.Down(1, 20) {
		t.Fatal("crash interval wrong")
	}
	// Hang: not Down, but Unresponsive.
	if s.Down(2, 6) {
		t.Fatal("hang must not change membership")
	}
	if !s.Hung(2, 6) || !s.Unresponsive(2, 6) || s.Unresponsive(2, 8) {
		t.Fatal("hang interval wrong")
	}
	// Leave: down forever.
	if !s.Down(3, 30) || !s.Down(3, 1e12) {
		t.Fatal("leave must be permanent")
	}
	// Blackout: link-level, both directions, no membership change.
	if !s.LinkDown(0, 2, 12) || !s.LinkDown(2, 0, 17.99) || s.LinkDown(0, 2, 18) {
		t.Fatal("blackout interval wrong")
	}
	if s.Down(0, 13) || s.Down(2, 13) {
		t.Fatal("blackout must not take workers down")
	}
	// PullFails composes target liveness and link state.
	if !s.PullFails(0, 1, 15) { // target crashed
		t.Fatal("pull from crashed worker must fail")
	}
	if !s.PullFails(0, 2, 13) || !s.PullFails(2, 0, 13) { // link blacked out
		t.Fatal("pull over blacked-out link must fail")
	}
	if s.PullFails(0, 1, 25) {
		t.Fatal("pull after rejoin must succeed")
	}
}

func TestFailureScheduleNextUp(t *testing.T) {
	s := NewFailureSchedule().Crash(0, 10, 20).Hang(0, 18, 25)
	// Overlapping crash+hang chain: first responsive time is 25.
	if up, ok := s.NextUp(0, 12); !ok || up != 25 {
		t.Fatalf("NextUp = %v, %v; want 25, true", up, ok)
	}
	if up, ok := s.NextUp(0, 3); !ok || up != 3 {
		t.Fatalf("NextUp before failures = %v, %v; want 3, true", up, ok)
	}
	s.Leave(1, 5)
	if _, ok := s.NextUp(1, 7); ok {
		t.Fatal("NextUp after a leave must report never")
	}
}

func TestCrashWithoutRejoinIsLeave(t *testing.T) {
	// Crash(w, at, rejoin <= at) follows the live ChurnEvent convention:
	// the worker leaves permanently instead of a silent zero-length no-op.
	s := NewFailureSchedule().Crash(0, 10, 0)
	if !s.Down(0, 10) || !s.Down(0, 1e12) {
		t.Fatal("rejoin <= at must mean a permanent leave")
	}
	if _, ok := s.NextUp(0, 11); ok {
		t.Fatal("degraded crash must never rejoin")
	}
}

func TestFailureScheduleInterrupted(t *testing.T) {
	s := NewFailureSchedule().Crash(0, 10, 11)
	if !s.Interrupted(0, 9, 12) {
		t.Fatal("flight spanning the crash must be interrupted")
	}
	if s.Interrupted(0, 11.5, 12) || s.Interrupted(0, 2, 9) {
		t.Fatal("flight outside the crash must survive")
	}
	if s.Interrupted(1, 9, 12) {
		t.Fatal("other workers unaffected")
	}
	s.Blackout(0, 1, 9, 12)
	if s.Interrupted(0, 9.5, 10) {
		t.Fatal("blackouts must not interrupt local compute")
	}
}

func TestFailureScheduleTransitions(t *testing.T) {
	s := NewFailureSchedule().Crash(0, 10, 20).Hang(1, 5, 50).Blackout(0, 1, 7, 9)
	if !s.TransitionIn(9, 10) || !s.TransitionIn(19, 20) {
		t.Fatal("crash start/rejoin are membership transitions")
	}
	if s.TransitionIn(4, 6) || s.TransitionIn(6, 8) {
		t.Fatal("hangs and blackouts are not membership transitions")
	}
	if s.TransitionIn(10, 19) {
		t.Fatal("no transition strictly inside the down interval")
	}
	alive := make([]bool, 2)
	s.AliveInto(alive, 15)
	if alive[0] || !alive[1] {
		t.Fatalf("AliveInto = %v; hang must not evict from membership", alive)
	}
	// NextTransition walks the crash/rejoin boundaries and ignores
	// hangs/blackouts, mirroring TransitionIn.
	if tr, ok := s.NextTransition(math.Inf(-1)); !ok || tr != 10 {
		t.Fatalf("NextTransition(-Inf) = %v, %v; want 10, true", tr, ok)
	}
	if tr, ok := s.NextTransition(10); !ok || tr != 20 {
		t.Fatalf("NextTransition(10) = %v, %v; want 20, true", tr, ok)
	}
	if _, ok := s.NextTransition(20); ok {
		t.Fatal("no boundaries remain after the rejoin")
	}
}

func TestRandomChurnDeterministicAndBounded(t *testing.T) {
	a := NewRandomChurn(8, 42, 1000, 2, 50)
	b := NewRandomChurn(8, 42, 1000, 2, 50)
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different event counts: %d vs %d", a.Len(), b.Len())
	}
	ea, eb := a.Events(), b.Events()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("same seed, different event %d: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	if a.Len() == 0 {
		t.Fatal("rate 2 over 8 workers produced no crashes")
	}
	for _, e := range ea {
		if e.Kind != FailCrash {
			t.Fatalf("random churn produced non-crash event %+v", e)
		}
		if e.Start < 0 || e.Start >= 1000 || e.End <= e.Start || math.IsInf(e.End, 1) {
			t.Fatalf("event outside horizon or malformed: %+v", e)
		}
	}
	if c := NewRandomChurn(4, 1, 1000, 0, 50); !c.Empty() {
		t.Fatal("zero rate must give an empty schedule")
	}
	if c := NewRandomChurn(4, 1, 1000, 2, 0); !c.Empty() {
		t.Fatal("zero mean downtime must give an empty schedule, not permanent leaves")
	}
}

func TestEmptyScheduleIsInert(t *testing.T) {
	s := NewFailureSchedule()
	if !s.Empty() {
		t.Fatal("fresh schedule not empty")
	}
	if s.Down(0, 5) || s.Hung(0, 5) || s.LinkDown(0, 1, 5) || s.PullFails(0, 1, 5) || s.TransitionIn(0, 100) {
		t.Fatal("empty schedule must report no failures")
	}
	if up, ok := s.NextUp(0, 7); !ok || up != 7 {
		t.Fatal("NextUp on empty schedule must be identity")
	}
	if s.Detect() != DefaultDetectSecs {
		t.Fatalf("default Detect = %v", s.Detect())
	}
}

// TransitionIn reports whether any membership boundary — a crash, a leave,
// or a crash's rejoin — occurs at a virtual time t with a < t <= b. Hangs
// and blackouts are not membership events: peers cannot detect them except
// by timeout. The tests use it as a reference query built on
// NextTransition.
func (s *FailureSchedule) TransitionIn(a, b float64) bool {
	t, ok := s.NextTransition(a)
	return ok && t <= b
}
