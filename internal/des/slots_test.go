package des

import (
	"math"
	"reflect"
	"testing"

	"psd/internal/rng"
)

// eventSet is what the differential test drives: the fixed-role operations
// of Slots, which the heap Simulator offers through one EventID per role.
type eventSet interface {
	reset(n int)
	set(role int, t float64)
	clear(role int)
	runUntil(horizon float64, fire func(role int))
	now() float64
	processed() uint64
}

type slotsSet struct {
	Slots
	fire func(role int)
}

func (s *slotsSet) reset(n int)             { s.Reset(n) }
func (s *slotsSet) set(role int, t float64) { s.Set(role, t) }
func (s *slotsSet) clear(role int)          { s.Clear(role) }
func (s *slotsSet) now() float64            { return s.Now() }
func (s *slotsSet) processed() uint64       { return s.Processed() }
func (s *slotsSet) HandleRole(role int)     { s.fire(role) }
func (s *slotsSet) runUntil(horizon float64, fire func(int)) {
	s.fire = fire
	s.RunUntil(horizon, s)
}

// heapSet is the reference: overwrite is Cancel + ScheduleAt, and a fired
// event forgets its handle before the handler runs.
type heapSet struct {
	Simulator
	ids  []EventID
	fire func(role int)
}

func (s *heapSet) reset(n int) {
	s.Reset()
	s.ids = make([]EventID, n)
}
func (s *heapSet) set(role int, t float64) {
	s.Cancel(s.ids[role])
	s.ids[role] = s.ScheduleAt(t, s, 0, int32(role))
}
func (s *heapSet) clear(role int) {
	s.Cancel(s.ids[role])
	s.ids[role] = EventID(0)
}
func (s *heapSet) now() float64      { return s.Now() }
func (s *heapSet) processed() uint64 { return s.Processed() }
func (s *heapSet) HandleEvent(_, role int32) {
	s.ids[role] = EventID(0)
	s.fire(int(role))
}
func (s *heapSet) runUntil(horizon float64, fire func(int)) {
	s.fire = fire
	s.RunUntil(horizon)
}

// scenario is one op sequence: drive issues the top-level operations and
// onFire is the handler body (nil = none). Both see the set only through
// the harness, so one scenario plays identically on either implementation.
type scenario struct {
	drive  func(h *harness)
	onFire func(h *harness, role int)
}

type firing struct {
	time float64
	role int
}

// harness plays a scenario on one eventSet and records what an observer
// can see: every firing, and the clock and fired count after every slice.
type harness struct {
	es     eventSet
	onFire func(h *harness, role int)
	fired  []firing
	marks  []float64
}

func (h *harness) run(horizon float64) {
	h.es.runUntil(horizon, func(role int) {
		h.fired = append(h.fired, firing{h.es.now(), role})
		if h.onFire != nil {
			h.onFire(h, role)
		}
	})
	h.marks = append(h.marks, h.es.now(), float64(h.es.processed()))
}

func play(es eventSet, sc scenario) *harness {
	h := &harness{es: es, onFire: sc.onFire}
	sc.drive(h)
	return h
}

// diff plays the scenario built by mk on both implementations; mk is
// called once per side so a scenario may carry a cursor.
func diff(t *testing.T, mk func() scenario) {
	t.Helper()
	got, want := play(&slotsSet{}, mk()), play(&heapSet{}, mk())
	if !reflect.DeepEqual(got.fired, want.fired) {
		t.Fatalf("fired (time, role) differ:\nslots %v\nheap  %v", got.fired, want.fired)
	}
	if !reflect.DeepEqual(got.marks, want.marks) {
		t.Fatalf("(Now, Processed) after each slice differ:\nslots %v\nheap  %v", got.marks, want.marks)
	}
}

// scripted decodes an op sequence from bytes, the form the fuzzer mutates.
// Delays come from a grid of halves so times collide constantly; a fired
// role's handler reads its own op from the same cursor, and an exhausted
// script reads as "do nothing", which bounds zero-delay re-arm chains.
func scripted(data []byte) scenario {
	pos, n := 0, 1
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	at := func(h *harness) float64 {
		if d := next() % 8; d < 7 {
			return h.es.now() + float64(d)/2
		}
		return math.Inf(1) // Set(role, +Inf): queued, never fires
	}
	return scenario{
		drive: func(h *harness) {
			h.es.reset(n)
			for pos < len(data) {
				switch op := next(); op % 8 {
				case 0, 1, 2:
					h.es.set(next()%n, at(h))
				case 3:
					h.es.clear(next() % n)
				case 4, 5:
					h.run(h.es.now() + float64(next()%8)/2)
				case 6:
					for role := 0; role < n; role++ { // many roles at one time
						h.es.set(role, h.es.now()+1)
					}
				case 7:
					n = 1 + next()%9
					h.es.reset(n)
				}
			}
			h.run(h.es.now() + 8)
		},
		onFire: func(h *harness, role int) {
			switch op := next(); op % 4 {
			case 1:
				h.es.set(role, at(h)) // re-arm its own role
			case 2:
				h.es.set(next()%n, at(h))
			case 3:
				h.es.clear(next() % n)
			}
		},
	}
}

func TestSlotsMatchesHeap(t *testing.T) {
	// The runner's shapes, with the collisions it produces: roles 0 and 1
	// are arrivals, 2 the tick, 3 the phase switch, 4 the trace cursor.
	const arrival, tick, phase, cursor = 0, 2, 3, 4
	written := map[string]scenario{
		"tick at k·W meets a phase start": {
			drive: func(h *harness) {
				h.es.reset(5)
				h.es.set(arrival, 3)
				h.es.set(tick, 10)
				h.es.set(phase, 20) // armed before the tick re-arms onto 20
				h.run(35)
			},
			onFire: func(h *harness, role int) {
				switch role {
				case tick:
					h.es.set(tick, h.es.now()+10)
				case phase:
					h.es.set(arrival, h.es.now()) // redraw landing on now
					h.es.set(arrival+1, h.es.now()+10)
				case arrival:
					h.es.set(arrival, h.es.now()+3.5)
				}
			},
		},
		"equal trace timestamps": {
			drive: func(h *harness) {
				h.es.reset(5)
				h.es.set(cursor, 1)
				h.es.set(tick, 1)
				h.run(1) // closed interval: everything at 1 fires
				h.run(1)
				h.run(4)
			},
			onFire: func(h *harness, role int) {
				if role == cursor && len(h.fired) < 8 {
					h.es.set(cursor, math.Max(1, float64(len(h.fired)/2))) // 1, 1, 1, 2, 2, 3
				}
			},
		},
		"overwrite, clear and reset": {
			drive: func(h *harness) {
				for rep := 0; rep < 2; rep++ { // the replay must repeat itself
					h.es.reset(4)
					for role := 0; role < 4; role++ {
						h.es.set(role, 2)
					}
					h.es.set(1, 2) // overwrite: role 1 now fires last of the tie
					h.es.set(0, 1)
					h.es.clear(2) // armed
					h.es.clear(2) // idle
					h.run(0.5)
					h.es.set(2, 0.5) // at Now() after the clock advanced
					h.run(2)
					h.es.set(3, 7)
					h.run(5) // leaves role 3 pending across the Reset
				}
			},
		},
	}
	for name, sc := range written {
		t.Run(name, func(t *testing.T) { diff(t, func() scenario { return sc }) })
	}
	t.Run("random", func(t *testing.T) {
		src := rng.New(16)
		for i := 0; i < 2000; i++ {
			data := make([]byte, 1+src.Uint64()%96)
			for j := range data {
				data[j] = byte(src.Uint64())
			}
			diff(t, func() scenario { return scripted(data) })
		}
	})
}

func FuzzSlotsVsHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 4, 0, 0, 2, 0, 1, 2, 6, 4, 7})                // ties across a reset
	f.Add([]byte{7, 2, 0, 0, 0, 4, 7, 1, 0, 1, 0, 1, 0, 4, 3})    // zero-delay re-arm chain
	f.Add([]byte{7, 8, 6, 0, 3, 7, 3, 5, 4, 2, 3, 4, 6, 4, 1, 5}) // +Inf, clears, slices
	f.Add([]byte{7, 3, 6, 4, 2, 2, 2, 1, 3, 3, 4, 4, 1, 0, 0})    // handler sets and clears others
	f.Fuzz(func(t *testing.T, data []byte) {
		diff(t, func() scenario { return scripted(data) })
	})
}

type roleFunc func(role int)

func (f roleFunc) HandleRole(role int) { f(role) }

func mustPanic(t *testing.T, want any, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		switch got := recover(); {
		case got == nil:
			t.Fatalf("%s did not panic", what)
		case want != nil && got != want:
			t.Fatalf("%s panicked with %v, want %v", what, got, want)
		}
	}()
	f()
}

func TestSlotsPastPanics(t *testing.T) {
	var s Slots
	s.Reset(2)
	s.Set(0, 5)
	s.RunUntil(5, roleFunc(func(int) {}))
	mustPanic(t, ErrPast, "negative delay", func() { s.SetAfter(0, -1) })
	mustPanic(t, ErrPast, "NaN delay", func() { s.SetAfter(0, math.NaN()) })
	mustPanic(t, ErrPast, "Set before Now()", func() { s.Set(0, 1) })
	mustPanic(t, ErrPast, "Set at NaN", func() { s.Set(0, math.NaN()) })
	s.Set(0, 5) // at Now() is not the past
}

// An out-of-range role must fail loudly — including one that an earlier,
// larger Reset left capacity for — and leave its neighbours untouched.
func TestSlotsRoleOutOfRangePanics(t *testing.T) {
	var s Slots
	s.Reset(8)
	s.Reset(3)
	s.Set(2, 1)
	for _, role := range []int{-1, 3, 7} {
		mustPanic(t, nil, "Set out of range", func() { s.Set(role, 2) })
		mustPanic(t, nil, "SetAfter out of range", func() { s.SetAfter(role, 2) })
		mustPanic(t, nil, "Clear out of range", func() { s.Clear(role) })
	}
	var fired []int
	s.RunUntil(10, roleFunc(func(role int) { fired = append(fired, role) }))
	if !reflect.DeepEqual(fired, []int{2}) {
		t.Fatalf("fired %v after rejected operations, want [2]", fired)
	}
}

func TestSlotsSteadyStateNoAlloc(t *testing.T) {
	var s Slots
	h := roleFunc(func(int) {})
	s.Reset(7)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.SetAfter(3, 1)
		s.RunUntil(s.Now()+1, h)
	}); allocs != 0 {
		t.Fatalf("steady-state Set+fire allocates %v per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Reset(7); s.Reset(2) }); allocs != 0 {
		t.Fatalf("Reset within capacity allocates %v, want 0", allocs)
	}
	n := 7
	if allocs := testing.AllocsPerRun(10, func() { n++; s.Reset(n) }); allocs != 2 {
		t.Fatalf("Reset beyond capacity allocates %v, want its 2 slices", allocs)
	}
}
