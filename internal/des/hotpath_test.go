package des

import (
	"testing"
	"time"
)

// TestRescheduleReusesEvent: the ticker's whole point — one Event
// allocation carries every tick, and ordering semantics match what a
// fresh ScheduleAt would have produced.
func TestRescheduleReusesEvent(t *testing.T) {
	s := NewSimulator(1)
	var fires []Time
	e := s.ScheduleAt(time.Millisecond, func() {})
	s.Run()
	fires = append(fires, s.Now())
	for i := 0; i < 3; i++ {
		s.Reschedule(e, time.Millisecond)
		s.Run()
		fires = append(fires, s.Now())
	}
	for i, at := range fires {
		want := time.Duration(i+1) * time.Millisecond
		if at != want {
			t.Fatalf("fire %d at %v, want %v", i, at, want)
		}
	}
}

// TestRescheduleQueuedPanics: re-queuing an event that is still in the
// calendar would put the same *Event into the heap twice.
func TestRescheduleQueuedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reschedule of a queued event did not panic")
		}
	}()
	s := NewSimulator(1)
	e := s.ScheduleAt(time.Second, func() {})
	s.Reschedule(e, time.Second)
}

// TestRescheduleSequenceOrdering: a rescheduled event gets a fresh
// insertion sequence, so it ties with newly scheduled events exactly as
// a fresh ScheduleAt would (first-rescheduled fires first).
func TestRescheduleSequenceOrdering(t *testing.T) {
	s := NewSimulator(1)
	var order []string
	a := s.ScheduleAt(0, func() { order = append(order, "a") })
	s.Run()
	order = order[:0]
	s.Reschedule(a, time.Second)
	s.ScheduleAt(time.Second, func() { order = append(order, "b") })
	a.fn = func() { order = append(order, "a") }
	s.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

// TestTickerZeroAllocSteadyState: after the first tick the ticker's
// event loop must not allocate — this is the hotpath contract the
// sweepvet escape baseline and CI -benchmem gate both enforce.
func TestTickerZeroAllocSteadyState(t *testing.T) {
	s := NewSimulator(7)
	s.Every(time.Microsecond, time.Microsecond, func() {})
	s.RunUntil(time.Microsecond) // first tick: ticker setup done
	horizon := time.Microsecond
	allocs := testing.AllocsPerRun(100, func() {
		horizon += time.Microsecond
		s.RunUntil(horizon)
	})
	if allocs != 0 {
		t.Fatalf("steady-state tick allocates %.1f times/op, want 0", allocs)
	}
}

// BenchmarkHotEventLoop drives the DES event loop through a
// self-rescheduling ticker: one event per iteration, zero allocations
// per op. CI's bench job records it in BENCH.json and fails on any
// allocs/op > 0.
func BenchmarkHotEventLoop(b *testing.B) {
	s := NewSimulator(42)
	s.Every(time.Microsecond, time.Microsecond, func() {})
	s.RunUntil(time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	s.RunUntil(time.Duration(b.N+1) * time.Microsecond)
}
