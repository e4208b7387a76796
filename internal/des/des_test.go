package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"psd/internal/rng"
)

// fn wraps a closure as a Handler for test convenience.
// handlerFunc adapts a function to Handler (a closure allocates, so the
// simulator's own handlers are long-lived structs instead).
type handlerFunc func(kind, data int32)

func (f handlerFunc) HandleEvent(kind, data int32) { f(kind, data) }

func fn(f func()) Handler { return handlerFunc(func(_, _ int32) { f() }) }

// runAll executes events until none remain.
func runAll(s *Simulator) {
	for s.Step() {
	}
}

// active reports whether the handle refers to a still-pending event.
func active(s *Simulator, id EventID) bool {
	slot, gen := id.split()
	if slot < 0 || int(slot) >= len(s.slots) {
		return false
	}
	st := &s.slots[slot]
	return st.gen == gen && st.pos >= 0
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var fired []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		s.Schedule(d, fn(func() { fired = append(fired, d) }), 0, 0)
	}
	runAll(s)
	if len(fired) != 5 {
		t.Fatalf("fired %d events", len(fired))
	}
	if !sort.Float64sAreSorted(fired) {
		t.Fatalf("events out of order: %v", fired)
	}
	if s.Now() != 5 {
		t.Fatalf("final time = %v", s.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	s := New()
	var order []int32
	h := handlerFunc(func(_, data int32) { order = append(order, data) })
	for i := int32(0); i < 10; i++ {
		s.Schedule(1.0, h, 0, i)
	}
	runAll(s)
	for i, v := range order {
		if v != int32(i) {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestKindAndDataDispatch(t *testing.T) {
	s := New()
	type hit struct{ kind, data int32 }
	var hits []hit
	h := handlerFunc(func(kind, data int32) { hits = append(hits, hit{kind, data}) })
	s.Schedule(1, h, 7, 42)
	s.Schedule(2, h, 8, -3)
	runAll(s)
	if len(hits) != 2 || hits[0] != (hit{7, 42}) || hits[1] != (hit{8, -3}) {
		t.Fatalf("hits = %v", hits)
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	s := New()
	var hits []float64
	s.Schedule(1, fn(func() {
		hits = append(hits, s.Now())
		s.Schedule(2, fn(func() { hits = append(hits, s.Now()) }), 0, 0)
	}), 0, 0)
	runAll(s)
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	e := s.Schedule(1, fn(func() { ran = true }), 0, 0)
	if !active(s, e) {
		t.Fatal("scheduled event not active")
	}
	if !s.Cancel(e) {
		t.Fatal("first cancel reported no-op")
	}
	runAll(s)
	if ran {
		t.Fatal("canceled event ran")
	}
	if active(s, e) {
		t.Fatal("canceled event still active")
	}
}

func TestCancelTwice(t *testing.T) {
	s := New()
	e := s.Schedule(1, fn(func() {}), 0, 0)
	if !s.Cancel(e) {
		t.Fatal("first cancel failed")
	}
	if s.Cancel(e) {
		t.Fatal("second cancel of the same handle reported success")
	}
	if s.Cancel(EventID(0)) {
		t.Fatal("canceling the zero EventID reported success")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New()
	e := s.Schedule(1, fn(func() {}), 0, 0)
	runAll(s)
	if active(s, e) {
		t.Fatal("fired event still active")
	}
	if s.Cancel(e) {
		t.Fatal("cancel after fire reported success")
	}
	// The fired event's slot is free; a new event will reuse it. The
	// stale handle must still be rejected.
	e2 := s.Schedule(1, fn(func() {}), 0, 0)
	if s.Cancel(e) {
		t.Fatal("stale handle canceled a reused slot")
	}
	if !active(s, e2) {
		t.Fatal("stale cancel disturbed the new event")
	}
}

// TestPoolReuseGenerationCheck exercises the free-list: slots are reused
// aggressively, and handles from earlier generations must never resurrect
// or affect the current occupant.
func TestPoolReuseGenerationCheck(t *testing.T) {
	s := New()
	var old []EventID
	for round := 0; round < 10; round++ {
		e := s.Schedule(1, fn(func() {}), 0, 0)
		for _, stale := range old {
			if s.Cancel(stale) || active(s, stale) {
				t.Fatalf("round %d: stale handle %x acted on reused slot", round, stale)
			}
		}
		if !active(s, e) {
			t.Fatalf("round %d: live handle reported inactive", round)
		}
		s.Cancel(e)
		old = append(old, e)
	}
}

// TestSteadyStateNoAlloc verifies the free-list claim: once warm, a
// schedule/fire cycle performs zero heap allocations.
func TestSteadyStateNoAlloc(t *testing.T) {
	s := New()
	h := handlerFunc(func(_, _ int32) {})
	// Warm the arena and the heap capacity.
	for i := 0; i < 64; i++ {
		s.Schedule(float64(i), h, 0, 0)
	}
	runAll(s)
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(1, h, 0, 0)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %v per op, want 0", allocs)
	}
}

func TestCancelDuringExecution(t *testing.T) {
	s := New()
	ran := false
	var victim EventID
	s.Schedule(1, fn(func() { s.Cancel(victim) }), 0, 0)
	victim = s.Schedule(2, fn(func() { ran = true }), 0, 0)
	runAll(s)
	if ran {
		t.Fatal("event canceled by an earlier event still ran")
	}
}

func TestCancelRemovesFromHeap(t *testing.T) {
	s := New()
	events := make([]EventID, 100)
	for i := range events {
		events[i] = s.Schedule(float64(i), fn(func() {}), 0, 0)
	}
	for _, e := range events[:50] {
		s.Cancel(e)
	}
	if len(s.heap) != 50 {
		t.Fatalf("pending = %d after eager removal, want 50", len(s.heap))
	}
	// The survivors still fire in order.
	runAll(s)
	if s.Now() != 99 {
		t.Fatalf("final time = %v, want 99", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []float64
	for _, d := range []float64{1, 2, 3, 4, 5} {
		d := d
		s.Schedule(d, fn(func() { fired = append(fired, d) }), 0, 0)
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3 (inclusive horizon)", len(fired))
	}
	if s.Now() != 3 {
		t.Fatalf("time = %v, want exactly horizon", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("remaining events not run: %d", len(fired))
	}
	if s.Now() != 10 {
		t.Fatalf("time should advance to horizon even with no events: %v", s.Now())
	}
}

// TestRunUntilInclusiveBoundary pins the closed-interval contract: an
// event at exactly the horizon fires, one epsilon past it does not, and
// an event scheduled AT the horizon from within a horizon-time event also
// fires (the clock has not passed the horizon yet).
func TestRunUntilInclusiveBoundary(t *testing.T) {
	s := New()
	var fired []string
	s.Schedule(3, fn(func() {
		fired = append(fired, "at")
		s.ScheduleAt(3, fn(func() { fired = append(fired, "nested-at") }), 0, 0)
	}), 0, 0)
	past := math.Nextafter(3, 4)
	s.ScheduleAt(past, fn(func() { fired = append(fired, "past") }), 0, 0)
	s.RunUntil(3)
	if len(fired) != 2 || fired[0] != "at" || fired[1] != "nested-at" {
		t.Fatalf("fired = %v, want [at nested-at]", fired)
	}
	if s.Now() != 3 {
		t.Fatalf("now = %v, want horizon", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.Schedule(-1, fn(func() {}), 0, 0)
}

func TestScheduleAtPastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, fn(func() {}), 0, 0)
	runAll(s)
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	s.ScheduleAt(1, fn(func() {}), 0, 0)
}

func TestProcessedCount(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Schedule(float64(i), fn(func() {}), 0, 0)
	}
	e := s.Schedule(100, fn(func() {}), 0, 0)
	s.Cancel(e)
	runAll(s)
	if s.Processed() != 10 {
		t.Fatalf("processed = %d, want 10", s.Processed())
	}
}

// TestDeterministicReplay runs the same randomized event program twice and
// requires identical execution traces.
func TestDeterministicReplay(t *testing.T) {
	run := func(seed uint64) []float64 {
		r := rng.New(seed)
		s := New()
		var trace []float64
		var spawn func()
		count := 0
		spawn = func() {
			trace = append(trace, s.Now())
			count++
			if count < 2000 {
				s.Schedule(r.ExpFloat64(1), fn(spawn), 0, 0)
				if r.Float64() < 0.3 {
					e := s.Schedule(r.Float64()*5, fn(func() { trace = append(trace, -s.Now()) }), 0, 0)
					if r.Float64() < 0.5 {
						s.Cancel(e)
					}
				}
			}
		}
		s.Schedule(0, fn(spawn), 0, 0)
		runAll(s)
		return trace
	}
	a := run(42)
	b := run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestHeapOrderingProperty: any set of delays is executed in sorted order.
func TestHeapOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		s := New()
		var delays []float64
		for _, d := range raw {
			if d >= 0 && d < 1e12 { // finite, non-negative
				delays = append(delays, d)
			}
		}
		var fired []float64
		for _, d := range delays {
			d := d
			s.Schedule(d, fn(func() { fired = append(fired, d) }), 0, 0)
		}
		runAll(s)
		return sort.Float64sAreSorted(fired) && len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomCancelOrderingProperty: under random interleaved schedules and
// cancels, survivors still fire in (time, seq) order and canceled events
// never fire — the determinism argument for eager removal.
func TestRandomCancelOrderingProperty(t *testing.T) {
	r := rng.New(99)
	s := New()
	type rec struct {
		id       EventID
		time     float64
		canceled bool
	}
	var recs []rec
	var fired []float64
	h := handlerFunc(func(_, data int32) { fired = append(fired, recs[data].time) })
	for i := 0; i < 5000; i++ {
		tm := r.Float64() * 1000
		id := s.Schedule(tm, h, 0, int32(len(recs)))
		recs = append(recs, rec{id: id, time: tm})
		if r.Float64() < 0.4 && len(recs) > 0 {
			v := r.Intn(len(recs))
			if s.Cancel(recs[v].id) {
				recs[v].canceled = true
			}
		}
	}
	runAll(s)
	var want []float64
	for _, rc := range recs {
		if !rc.canceled {
			want = append(want, rc.time)
		}
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	if !sort.Float64sAreSorted(fired) {
		t.Fatal("survivors fired out of order")
	}
}

func TestManyReschedules(t *testing.T) {
	// Emulates the task-server pattern: repeatedly cancel + reschedule a
	// completion event. The heap must stay consistent and the arena must
	// not grow past a handful of slots.
	s := New()
	completions := 0
	var e EventID
	for i := 0; i < 1000; i++ {
		if e != EventID(0) {
			s.Cancel(e)
		}
		e = s.Schedule(float64(1000-i), fn(func() { completions++ }), 0, 0)
	}
	if len(s.slots) > 2 {
		t.Fatalf("arena grew to %d slots under reschedule churn, want ≤ 2", len(s.slots))
	}
	runAll(s)
	if completions != 1 {
		t.Fatalf("completions = %d, want exactly 1 (last scheduled)", completions)
	}
	if s.Now() != 1 {
		t.Fatalf("final time = %v, want 1", s.Now())
	}
}

// TestResetReplaysIdentically: a Reset simulator must behave exactly
// like a fresh one — same clock, same sequence numbering (hence the same
// fire order for identical schedules), zero allocation on the second
// pass — and handles from before the Reset must be inert.
func TestResetReplaysIdentically(t *testing.T) {
	run := func(s *Simulator) ([]int32, uint64) {
		var order []int32
		h := handlerFunc(func(_, data int32) { order = append(order, data) })
		a := s.Schedule(5, h, 0, 1)
		s.Schedule(3, h, 0, 2)
		s.Schedule(3, h, 0, 3) // ties with the previous: FIFO by seq
		s.Cancel(a)
		s.Schedule(7, h, 0, 4)
		s.RunUntil(10)
		return order, s.Processed()
	}
	s := New()
	first, firstN := run(s)
	stale := s.Schedule(1e9, handlerFunc(func(_, _ int32) {}), 0, 99)
	s.Reset()
	if s.Now() != 0 || len(s.heap) != 0 || s.Processed() != 0 {
		t.Fatalf("Reset left state: now=%v pending=%d processed=%d", s.Now(), len(s.heap), s.Processed())
	}
	if s.Cancel(stale) || active(s, stale) {
		t.Fatal("pre-Reset handle still live")
	}
	second, secondN := run(s)
	fresh, freshN := run(New())
	if len(first) != len(second) || len(second) != len(fresh) {
		t.Fatalf("fire counts differ: %v / %v / %v", first, second, fresh)
	}
	for i := range fresh {
		if second[i] != fresh[i] || first[i] != fresh[i] {
			t.Fatalf("fire order diverged at %d: first %v, reset %v, fresh %v", i, first, second, fresh)
		}
	}
	if firstN != secondN || secondN != freshN {
		t.Fatalf("processed counts differ: %d / %d / %d", firstN, secondN, freshN)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	s := New()
	r := rng.New(1)
	h := handlerFunc(func(_, _ int32) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(r.Float64()*100, h, 0, 0)
		if len(s.heap) > 1024 {
			for len(s.heap) > 512 {
				s.Step()
			}
		}
	}
	runAll(s)
}

func BenchmarkCancelReschedule(b *testing.B) {
	s := New()
	h := handlerFunc(func(_, _ int32) {})
	var e EventID
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e != EventID(0) {
			s.Cancel(e)
		}
		e = s.ScheduleAt(s.Now()+1+float64(i%7), h, 0, 0)
	}
}
