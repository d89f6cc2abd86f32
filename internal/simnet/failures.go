package simnet

import (
	"math"
	"math/rand"
)

// FailureKind enumerates the churn events a FailureSchedule can inject.
type FailureKind uint8

const (
	// FailCrash takes a worker down at Start and rejoins it (with the
	// parameters it held when it crashed) at End. The process is gone:
	// connection attempts fail fast, so peers learn about a crash through
	// membership events rather than timeouts.
	FailCrash FailureKind = iota
	// FailHang freezes a worker for [Start, End): it stops iterating and
	// stops answering pulls, but the process is still there — peers cannot
	// distinguish it from a slow link except by timeout, so no membership
	// event is emitted. This is the failure mode only adaptive routing
	// (or a deadline) can mitigate.
	FailHang
	// FailLeave is a permanent crash: the worker never rejoins.
	FailLeave
	// FailBlackout takes one link (A, B) down for [Start, End): pulls in
	// either direction fail after the detection timeout while both
	// endpoints keep training.
	FailBlackout
)

// Failure is one scheduled churn event. Crash/Hang/Leave events name a
// Worker; Blackout events name the link endpoints A and B. The event is in
// force for virtual times in the half-open interval [Start, End); Leave
// events have End = +Inf.
type Failure struct {
	Kind   FailureKind
	Worker int
	A, B   int
	Start  float64
	End    float64
}

// FailureSchedule is a deterministic schedule of churn events on the
// virtual clock, the failure counterpart of the Network's slowdown
// schedule. An empty schedule injects nothing: the engine treats it exactly
// like a nil one, which the bitwise-determinism gate relies on.
type FailureSchedule struct {
	events []Failure

	// DetectSecs is the simulated failure-detection deadline: the virtual
	// time a worker loses when a pull targets an unresponsive peer or a
	// blacked-out link before giving up and continuing locally. It models
	// the live transport's per-call pull deadline.
	DetectSecs float64
}

// DefaultDetectSecs is the default simulated pull deadline: long enough to
// hurt relative to typical sub-second cluster iterations, matching the
// live transport's conservative default.
const DefaultDetectSecs = 2.0

// NewFailureSchedule returns an empty schedule with the default detection
// deadline. Builder methods (Crash, Hang, Leave, Blackout) append events
// and return the schedule for chaining.
func NewFailureSchedule() *FailureSchedule {
	return &FailureSchedule{DetectSecs: DefaultDetectSecs}
}

// Crash schedules worker w to crash at virtual time `at` and rejoin, with
// the parameters it held when it crashed, at `rejoin`. A rejoin at or
// before the crash time means the worker never comes back — the same
// convention as the live runtime's ChurnEvent — so the call degrades to
// Leave instead of silently scheduling an empty interval.
func (s *FailureSchedule) Crash(w int, at, rejoin float64) *FailureSchedule {
	if rejoin <= at {
		return s.Leave(w, at)
	}
	s.events = append(s.events, Failure{Kind: FailCrash, Worker: w, Start: at, End: rejoin})
	return s
}

// Hang schedules worker w to freeze for [at, until): it neither iterates
// nor answers pulls, and no membership event is emitted.
func (s *FailureSchedule) Hang(w int, at, until float64) *FailureSchedule {
	if until < at {
		until = at
	}
	s.events = append(s.events, Failure{Kind: FailHang, Worker: w, Start: at, End: until})
	return s
}

// Leave schedules worker w to crash at `at` and never rejoin.
func (s *FailureSchedule) Leave(w int, at float64) *FailureSchedule {
	s.events = append(s.events, Failure{Kind: FailLeave, Worker: w, Start: at, End: math.Inf(1)})
	return s
}

// Blackout schedules link (a, b) to drop all pulls in both directions for
// [at, until).
func (s *FailureSchedule) Blackout(a, b int, at, until float64) *FailureSchedule {
	if until < at {
		until = at
	}
	s.events = append(s.events, Failure{Kind: FailBlackout, A: a, B: b, Start: at, End: until})
	return s
}

// NewRandomChurn builds a deterministic random crash schedule for m
// workers: each worker crashes `crashesPerWorker` times in expectation over
// the horizon (exponential inter-arrival gaps), staying down for a random
// duration of mean `meanDown` seconds. Identical seeds give identical
// schedules. A non-positive rate, horizon or mean downtime yields an empty
// schedule — a zero downtime must not degrade every crash into a
// permanent leave through Crash's rejoin<=at convention.
func NewRandomChurn(m int, seed int64, horizon, crashesPerWorker, meanDown float64) *FailureSchedule {
	s := NewFailureSchedule()
	if crashesPerWorker <= 0 || horizon <= 0 || meanDown <= 0 {
		return s
	}
	rng := rand.New(rand.NewSource(seed))
	meanGap := horizon / crashesPerWorker
	for w := 0; w < m; w++ {
		t := 0.0
		for {
			t += rng.ExpFloat64() * meanGap
			if t >= horizon {
				break
			}
			down := meanDown * (0.5 + rng.Float64())
			s.Crash(w, t, t+down)
			t += down
		}
	}
	return s
}

// Empty reports whether the schedule has no events; the engine treats an
// empty schedule exactly like a nil one.
func (s *FailureSchedule) Empty() bool { return s == nil || len(s.events) == 0 }

// Len returns the number of scheduled events.
func (s *FailureSchedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// Events returns a copy of the scheduled events (observability, tests).
func (s *FailureSchedule) Events() []Failure {
	out := make([]Failure, len(s.events))
	copy(out, s.events)
	return out
}

// Down reports whether worker i is crashed or has left at virtual time now
// (the detectable, membership-changing failure modes; hangs are not Down).
func (s *FailureSchedule) Down(i int, now float64) bool {
	for _, e := range s.events {
		if (e.Kind == FailCrash || e.Kind == FailLeave) && e.Worker == i && e.Start <= now && now < e.End {
			return true
		}
	}
	return false
}

// Hung reports whether worker i is frozen at virtual time now.
func (s *FailureSchedule) Hung(i int, now float64) bool {
	for _, e := range s.events {
		if e.Kind == FailHang && e.Worker == i && e.Start <= now && now < e.End {
			return true
		}
	}
	return false
}

// Unresponsive reports whether worker i can neither iterate nor answer
// pulls at virtual time now (crashed, left, or hung).
func (s *FailureSchedule) Unresponsive(i int, now float64) bool {
	return s.Down(i, now) || s.Hung(i, now)
}

// LinkDown reports whether the link between i and j is blacked out at
// virtual time now (direction-agnostic).
func (s *FailureSchedule) LinkDown(i, j int, now float64) bool {
	for _, e := range s.events {
		if e.Kind != FailBlackout || e.Start > now || now >= e.End {
			continue
		}
		if (e.A == i && e.B == j) || (e.A == j && e.B == i) {
			return true
		}
	}
	return false
}

// PullFails reports whether a pull by i from j at virtual time now fails:
// the target is unresponsive or the link is blacked out. The caller is
// charged DetectSecs of virtual time for the failed attempt.
func (s *FailureSchedule) PullFails(i, j int, now float64) bool {
	return s.Unresponsive(j, now) || s.LinkDown(i, j, now)
}

// NextUp returns the earliest virtual time >= after at which worker i is
// responsive again, chaining through overlapping down intervals. ok is
// false when the worker never comes back (a Leave covers the time).
func (s *FailureSchedule) NextUp(i int, after float64) (float64, bool) {
	t := after
	for changed := true; changed; {
		changed = false
		for _, e := range s.events {
			if e.Kind == FailBlackout || e.Worker != i {
				continue
			}
			if e.Start <= t && t < e.End {
				if math.IsInf(e.End, 1) {
					return 0, false
				}
				t = e.End
				changed = true
			}
		}
	}
	return t, true
}

// Interrupted reports whether worker i was unresponsive at any point in the
// open interval (from, to): an iteration in flight across such an interval
// died with the worker and must be discarded. Blackouts do not interrupt
// local compute.
func (s *FailureSchedule) Interrupted(i int, from, to float64) bool {
	for _, e := range s.events {
		if e.Kind == FailBlackout || e.Worker != i {
			continue
		}
		if e.Start < to && e.End > from {
			return true
		}
	}
	return false
}

// NextTransition returns the earliest membership boundary — a crash, a
// leave, or a crash's rejoin — strictly after the given time; ok is false
// when none remain. The engine tracks the next boundary with this instead
// of re-scanning the schedule on every event pop.
func (s *FailureSchedule) NextTransition(after float64) (float64, bool) {
	best := math.Inf(1)
	for _, e := range s.events {
		if e.Kind != FailCrash && e.Kind != FailLeave {
			continue
		}
		if e.Start > after && e.Start < best {
			best = e.Start
		}
		if !math.IsInf(e.End, 1) && e.End > after && e.End < best {
			best = e.End
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// AliveInto fills dst[i] with the membership status of worker i at virtual
// time now: false only for crashed or departed workers. Hung workers stay
// in the membership — their failure is undetectable without a timeout.
func (s *FailureSchedule) AliveInto(dst []bool, now float64) {
	for i := range dst {
		dst[i] = !s.Down(i, now)
	}
}

// Detect returns the configured detection deadline, defaulting when unset.
func (s *FailureSchedule) Detect() float64 {
	if s.DetectSecs > 0 {
		return s.DetectSecs
	}
	return DefaultDetectSecs
}
