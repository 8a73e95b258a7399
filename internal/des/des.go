// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel provides a virtual clock, an event calendar ordered by
// (time, insertion sequence), and seeded, splittable random
// number streams. All simulations in this repository are built on top of
// it, which makes every experiment exactly reproducible for a fixed seed.
package des

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// Time is a point in virtual time, expressed as a duration since the
// simulation epoch (t = 0). Using time.Duration keeps arithmetic and
// formatting convenient while staying integer-exact.
type Time = time.Duration

// Handler is a callback executed when an event fires.
type Handler func()

// Event is a scheduled occurrence in the simulation calendar.
type Event struct {
	at       Time
	seq      uint64
	fn       Handler
	canceled bool
	index    int // heap index, -1 when not queued
}

// Cancel marks the event so that it will not fire. Cancelling an event
// that already fired (or was already cancelled) is a no-op.
func (e *Event) Cancel() { e.canceled = true }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// ErrStopped is returned by Run when the simulation was halted via Stop
// before the calendar drained or the horizon was reached.
var ErrStopped = errors.New("des: simulation stopped")

// Simulator owns the virtual clock and the event calendar.
//
// The zero value is not ready for use; construct with NewSimulator.
type Simulator struct {
	now     Time
	queue   eventQueue
	seq     uint64
	stopped bool
	rng     *RNG
}

// NewSimulator returns a simulator whose clock starts at zero and whose
// root random stream is seeded with seed.
func NewSimulator(seed uint64) *Simulator {
	return &Simulator{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Stream derives an independent, deterministic random stream for the
// named subsystem. Streams with distinct names are statistically
// independent; the same name always yields an identically-seeded stream.
func (s *Simulator) Stream(name string) *RNG { return s.rng.Stream(name) }

// ScheduleAt queues fn to run at absolute virtual time at; events with
// equal timestamps fire in insertion order. Scheduling in the past
// panics: it indicates a causality bug in the caller.
func (s *Simulator) ScheduleAt(at Time, fn Handler) *Event {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling into the past: at=%v now=%v", at, s.now))
	}
	if fn == nil {
		panic("des: nil event handler")
	}
	e := &Event{at: at, seq: s.seq, fn: fn, index: -1}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// Reschedule re-queues a fired (or cancelled-and-popped) event to run
// again after delay units of virtual time, reusing its allocation. The
// event is assigned a fresh insertion sequence, exactly as if
// ScheduleAt had returned a new event, so tie-breaking order is
// unchanged. Rescheduling an event that is still queued panics: the
// calendar would hold the same *Event twice and corrupt the heap. A
// negative delay is treated as zero.
//
//sweepvet:hotpath
func (s *Simulator) Reschedule(e *Event, delay Time) {
	if e.index != -1 {
		panic("des: rescheduling an event that is still queued")
	}
	if e.fn == nil {
		panic("des: rescheduling an event with no handler")
	}
	if delay < 0 {
		delay = 0
	}
	e.at = s.now + delay
	e.canceled = false
	e.seq = s.seq
	s.seq++
	heap.Push(&s.queue, e)
}

// Stop halts the simulation: the currently executing event completes, and
// Run returns ErrStopped without firing further events.
func (s *Simulator) Stop() { s.stopped = true } //sweepvet:allow(deadapi) goes with the rest of the event calendar once des is its RNG alone

// Run executes events in timestamp order until the calendar is empty.
// It returns ErrStopped if Stop was called.
func (s *Simulator) Run() error { return s.RunUntil(-1) } //sweepvet:allow(deadapi) cmd/sweepbench's desReplay drains its calendar with it

// RunUntil executes events with timestamps <= horizon. A negative horizon
// means "no horizon" (drain the calendar). On return the clock rests at
// the last fired event's time, or at the horizon if it is later and
// non-negative.
//
//sweepvet:hotpath
func (s *Simulator) RunUntil(horizon Time) error {
	s.stopped = false
	for len(s.queue) > 0 {
		if s.stopped {
			return ErrStopped
		}
		next := s.queue[0]
		if horizon >= 0 && next.at > horizon {
			s.now = horizon
			return nil
		}
		heap.Pop(&s.queue)
		if next.canceled {
			continue
		}
		s.now = next.at
		next.fn()
	}
	if horizon >= 0 && horizon > s.now {
		s.now = horizon
	}
	return nil
}

// Every schedules fn at now+start and then every interval thereafter,
// until the returned Ticker is stopped or the calendar drains. A
// negative start is treated as zero (fire "now", after events already
// queued for the current time).
func (s *Simulator) Every(start, interval Time, fn Handler) *Ticker {
	if interval <= 0 {
		panic("des: non-positive ticker interval")
	}
	t := &Ticker{sim: s, interval: interval, fn: fn}
	t.event = s.ScheduleAt(s.now+max(start, 0), t.tick)
	return t
}

// Ticker repeatedly fires a handler at a fixed virtual-time interval.
type Ticker struct {
	sim      *Simulator
	interval Time
	fn       Handler
	event    *Event
	stopped  bool
}

// tick fires the handler and re-queues the ticker's single Event in
// place: a ticker costs one allocation for its whole lifetime, not one
// per tick, which keeps long-horizon simulations off the allocator.
//
//sweepvet:hotpath
func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.sim.Reschedule(t.event, t.interval)
	}
}

// Stop prevents all future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.event != nil {
		t.event.Cancel()
	}
}
