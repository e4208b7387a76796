// Package des is a minimal, allocation-free discrete-event simulation
// core: a simulation clock plus a pending-event set ordered by
// (time, insertion sequence). It holds two such sets.
//
// # Slots: what the simulator runs
//
// internal/simsrv's pending events are not a general set: one next
// arrival and at most one completion per class, one control tick, one
// phase switch, one trace cursor — at most 2N+3 roles for N classes, each
// pending at most once. Slots keeps them in two flat slices indexed by
// role (fire time, +Inf while idle; sequence number) and finds the next
// one by a linear scan. Arming a role, re-arming it (the cancel+redraw of
// a rate change) and disarming it are one store each, with no handle to
// keep, and the scan reads a cache line or two with predictable branches,
// where the heap pays two sift loops, a slot arena, a free list and a
// generation-checked handle to order the same handful of events. Through
// the simulator that is 44 ns per event against the heap's 61 at N = 2
// (6 roles) and 70 against 91 at N = 8 (18 roles). The scan is O(roles):
// the two meet near N = 18 and the heap wins beyond (128 against 111 ns at
// N = 32). The paper runs 2–3 classes and nothing in the repo more than 8,
// so the simulator has no second path for a class count it never sees;
// BenchmarkRunClasses in internal/simsrv is the curve.
//
// # Simulator: the general heap
//
// Simulator takes any number of events, each with its own handler and a
// typed (kind, data) payload instead of a captured closure. It is the
// reference Slots is differentially tested and fuzzed against, and the
// set for a model whose events are not a bounded list of roles.
//
// The pending set is a value-typed 4-ary implicit heap of small entries
// (time, seq, slot). Event state — the handler, its payload, and the
// slot's generation counter — lives in a flat slot arena reused through a
// free list, so a steady-state simulation performs zero per-event heap
// allocations. A 4-ary heap trades slightly more comparisons per level for
// half the depth of a binary one, and sift operations move 24-byte values
// instead of chasing pointers through the GC heap.
//
// Schedule returns an EventID — a packed (slot, generation) handle, not a
// pointer. Cancel validates the generation: once an event fires
// or is canceled its slot's generation is bumped, so a stale handle can
// never affect an unrelated event that happens to reuse the slot. The zero
// EventID is never issued and is safely inert, which lets callers use it
// as "no event pending". Cancellation is eager: Cancel removes the entry
// from the heap immediately (O(log₄ n) via the slot's tracked heap
// position) and recycles the slot.
//
// # Determinism
//
// Determinism is a design requirement — the paper's experiments average
// 100 independent replications, and reproducing a replication exactly
// (given its seed) is what makes the figure harness and the regression
// tests meaningful. Both sets fire in the strict total order (time, seq):
// seq is a monotone counter consumed once per Schedule or Set and never by
// a cancel, a Clear or a firing, so simultaneous events fire in the order
// they were armed and no two ever compare equal. Removing an element never
// reorders the survivors of a total order, so the fire sequence of the
// remaining events is independent of when (or whether) others were
// canceled, and of every internal — heap shape, slot reuse, scan
// direction. That is why moving the simulator from the heap to Slots left
// every seeded result bit-identical.
package des

import (
	"errors"
	"math"
)

// Handler receives dispatched events. Implementations are typically
// long-lived simulation objects (a model runner) that switch on kind;
// kind and data are opaque to the simulator.
type Handler interface {
	HandleEvent(kind, data int32)
}

// EventID is a generation-checked handle to a scheduled event. The zero
// value is never issued and is inert: canceling or querying it is a no-op.
// A handle goes stale as soon as its event fires or is canceled; stale
// handles are detected and ignored even if the underlying slot has been
// reused.
type EventID uint64

func makeID(slot int32, gen uint32) EventID {
	return EventID(uint64(slot+1) | uint64(gen)<<32)
}

func (id EventID) split() (slot int32, gen uint32) {
	return int32(uint32(id)) - 1, uint32(id >> 32)
}

// slotState is the arena record backing one live or free event slot.
type slotState struct {
	h    Handler
	kind int32
	data int32
	gen  uint32 // bumped on every release; validates EventIDs
	pos  int32  // current heap index, -1 when not enqueued
}

// heapEntry is one pending event in the 4-ary implicit heap. The ordering
// key (time, seq) is stored inline so comparisons never touch the arena.
type heapEntry struct {
	time float64
	seq  uint64
	slot int32
}

// Simulator owns the clock and the pending-event set. The zero value is a
// simulator at time 0 with no events.
type Simulator struct {
	now       float64
	seq       uint64
	processed uint64
	heap      []heapEntry
	slots     []slotState
	free      []int32 // recycled slot indices (LIFO)
}

// New returns an empty simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Reset returns the simulator to its freshly constructed state — time
// zero, no pending events, sequence and processed counters cleared —
// while retaining the heap and slot arena capacity. A reset simulator
// behaves identically to a new one (same seq numbering, hence the same
// (time, seq) fire order for the same schedule calls), which is what lets
// a replication arena be replayed with bit-identical results. All
// outstanding EventIDs go stale: every retained slot's generation is
// bumped, exactly as release would, so the "stale handles are detected
// and ignored even if the underlying slot has been reused" guarantee
// holds across Reset too. (Slot numbers never participate in event
// ordering, so handing the recycled slots out in a different order than
// a fresh simulator would is unobservable.)
func (s *Simulator) Reset() {
	s.now = 0
	s.seq = 0
	s.processed = 0
	s.heap = s.heap[:0]
	s.free = s.free[:0]
	for i := range s.slots {
		st := &s.slots[i]
		st.h = nil
		st.gen++
		st.pos = -1
		s.free = append(s.free, int32(i))
	}
}

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// ErrPast reports scheduling before the current simulation time.
var ErrPast = errors.New("des: cannot schedule event in the past")

// Schedule registers h to receive (kind, data) after the given
// non-negative delay and returns the event's handle. It panics on
// negative or NaN delays — scheduling into the past is always a
// programming error in a discrete-event model.
func (s *Simulator) Schedule(delay float64, h Handler, kind, data int32) EventID {
	if delay < 0 || math.IsNaN(delay) {
		panic(ErrPast)
	}
	return s.ScheduleAt(s.now+delay, h, kind, data)
}

// ScheduleAt registers h to receive (kind, data) at absolute time
// t ≥ Now().
func (s *Simulator) ScheduleAt(t float64, h Handler, kind, data int32) EventID {
	if t < s.now || math.IsNaN(t) {
		panic(ErrPast)
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.slots))
		s.slots = append(s.slots, slotState{})
	}
	st := &s.slots[slot]
	st.h, st.kind, st.data = h, kind, data
	st.pos = int32(len(s.heap))
	s.heap = append(s.heap, heapEntry{time: t, seq: s.seq, slot: slot})
	s.seq++
	s.siftUp(len(s.heap) - 1)
	return makeID(slot, st.gen)
}

// Cancel prevents a scheduled event from firing and reports whether it
// did anything. Canceling the zero EventID, an already-fired, or an
// already-canceled event is a no-op returning false — the generation
// check makes stale handles harmless even after their slot is reused.
func (s *Simulator) Cancel(id EventID) bool {
	slot, gen := id.split()
	if slot < 0 || int(slot) >= len(s.slots) {
		return false
	}
	st := &s.slots[slot]
	if st.gen != gen || st.pos < 0 {
		return false
	}
	s.removeAt(int(st.pos))
	s.release(slot)
	return true
}

// release recycles a slot: the generation bump invalidates every
// outstanding handle to it, and dropping the Handler reference keeps the
// arena from pinning dead model objects.
func (s *Simulator) release(slot int32) {
	st := &s.slots[slot]
	st.h = nil
	st.gen++
	st.pos = -1
	s.free = append(s.free, slot)
}

// Step executes the next event, if any, and reports whether one ran.
func (s *Simulator) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	root := s.heap[0]
	st := &s.slots[root.slot]
	h, kind, data := st.h, st.kind, st.data
	s.now = root.time
	s.removeAt(0)
	s.release(root.slot)
	s.processed++
	// Dispatch after the slot is recycled so the handler may schedule new
	// events (possibly into this very slot) and a stale handle to the
	// fired event is already invalid.
	h.HandleEvent(kind, data)
	return true
}

// RunUntil executes events in order until the clock would pass horizon;
// the clock finishes exactly at horizon. Events scheduled at exactly the
// horizon DO fire (closed interval), matching the "measure for 60,000 time
// units" convention.
func (s *Simulator) RunUntil(horizon float64) {
	for len(s.heap) > 0 && s.heap[0].time <= horizon {
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// ---------------------------------------------------------------------------
// 4-ary implicit heap ordered by (time, seq), with slot→position tracking.

// less is the strict total order on heap entries. seq values are unique,
// so no two entries ever compare equal — this is what makes the fire
// order independent of heap internals and cancellation timing.
func less(a, b heapEntry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (s *Simulator) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !less(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		s.slots[h[i].slot].pos = int32(i)
		i = parent
	}
	h[i] = e
	s.slots[e.slot].pos = int32(i)
}

func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(h[c], h[min]) {
				min = c
			}
		}
		if !less(h[min], e) {
			break
		}
		h[i] = h[min]
		s.slots[h[i].slot].pos = int32(i)
		i = min
	}
	h[i] = e
	s.slots[e.slot].pos = int32(i)
}

// removeAt deletes the heap entry at index i, restoring the heap
// invariant. The caller is responsible for releasing the entry's slot.
func (s *Simulator) removeAt(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	s.heap[i] = last
	s.slots[last.slot].pos = int32(i)
	// The displaced element may need to move either direction.
	if i > 0 && less(last, s.heap[(i-1)>>2]) {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}
