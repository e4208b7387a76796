package core

import "fmt"

// MinRate wraps a base allocator with a feasibility-region minimum: any
// class whose allocated rate falls below Min is raised to Min, and the
// deficit is taken from the other classes proportionally to their slack
// above their own floor (max(Min, λ_jE[X])). This moves the
// non-positive-rate guard out of the pacing layer and into the
// allocation itself: a starved class (λ̂ = 0, or a vanishing surplus
// share) still receives a schedulable trickle, so the server-side
// minPaceRate clamp becomes a pure regression tripwire instead of a
// load-bearing correction.
//
// The wrapper is bit-transparent when the floor does not bind: if every
// base rate is ≥ Min, the base allocation is returned untouched, so
// seeded parity tests against the bare allocator keep passing
// bit-for-bit. When the floor cannot be met — n·Min ≥ 1, or the donors'
// slack cannot cover the deficit with every donor left strictly above
// its own floor — the classes below it are raised part of the way
// instead, by as much as half of the donors' slack above their demand
// λ_jE[X] covers: every class then keeps a positive rate and every donor
// one strictly above its demand, unless no donor has any slack to give,
// when the base allocation is returned untouched.
type MinRate struct {
	Base Allocator
	// Min is the per-class rate floor in units of server capacity
	// (capacity is 1). Non-positive disables the wrapper.
	Min float64
}

// Name implements Allocator.
func (m MinRate) Name() string { return m.Base.Name() + "+minrate" }

// Allocate implements Allocator.
func (m MinRate) Allocate(classes []Class, w Workload) (Allocation, error) {
	var alloc Allocation
	if err := m.AllocateInto(&alloc, classes, w); err != nil {
		return Allocation{}, err
	}
	return alloc, nil
}

// AllocateInto implements InPlaceAllocator. It is allocation-free
// whenever the base allocator's in-place path is.
func (m MinRate) AllocateInto(dst *Allocation, classes []Class, w Workload) error {
	if m.Base == nil {
		return fmt.Errorf("core: MinRate with nil base allocator")
	}
	if err := AllocateInto(m.Base, dst, classes, w); err != nil {
		return err
	}
	if !(m.Min > 0) {
		return nil
	}
	binding := false
	for _, r := range dst.Rates {
		if r < m.Min {
			binding = true
			break
		}
	}
	if !binding {
		// Bit-identical passthrough: the floor changes nothing, so the
		// base allocator's exact rates (and slowdown predictions) stand.
		return nil
	}
	if !m.fund(dst.Rates, classes, w) && !m.lift(dst.Rates, classes, w) {
		return nil // no donor has slack: keep the base allocation
	}
	// The rates moved off the base allocation: re-derive the Theorem 1
	// slowdown predictions under the adjusted vector.
	return slowdownUnderRatesInto(dst.ExpectedSlowdowns, classes, w, dst.Rates)
}

// fund raises every class below the floor to it, taking the deficit from
// the donors in proportion to their slack above their own floor
// max(Min, λ_jE[X]) — never pushing a donor into instability (Theorem 1
// blows up at r_j = λ_jE[X]) or below the very floor being enforced —
// and reports whether it could. It cannot when the floor alone exceeds
// capacity, or when the slack does not cover the deficit with every
// donor left strictly above its floor (in exact arithmetic the two
// conditions coincide; rounding can shave a donor down to its floor when
// deficit and slack agree to the last bits); rates is then untouched.
func (m MinRate) fund(rates []float64, classes []Class, w Workload) bool {
	if m.Min*float64(len(rates)) >= 1 {
		return false
	}
	deficit, slack := 0.0, 0.0
	for i, r := range rates {
		if r < m.Min {
			deficit += m.Min - r
			continue
		}
		slack += r - donorFloor(m.Min, classes[i], w)
	}
	if !(deficit < slack) {
		return false
	}
	scale := deficit / slack
	for i, r := range rates {
		if f := donorFloor(m.Min, classes[i], w); r >= m.Min && !(r-scale*(r-f) > f) {
			return false
		}
	}
	for i, r := range rates {
		if r < m.Min {
			rates[i] = m.Min
			continue
		}
		rates[i] = r - scale*(r-donorFloor(m.Min, classes[i], w))
	}
	return true
}

// lift is the fallback when the floor cannot be met: the classes below
// it are raised toward it in proportion to their shortfall, by as much
// of the deficit as half of the donors' slack above their demand λ_jE[X]
// covers, and the donors give it in proportion to that slack, so each
// keeps at least half of its own. It reports whether anything moved
// (nothing does when no donor is above its demand).
func (m MinRate) lift(rates []float64, classes []Class, w Workload) bool {
	deficit, spare := 0.0, 0.0
	for i, r := range rates {
		if r < m.Min {
			deficit += m.Min - r
		} else if s := r - classes[i].Lambda*w.MeanSize; s > 0 {
			spare += s
		}
	}
	give := min(deficit, spare/2)
	if !(give > 0) {
		return false
	}
	up, down := give/deficit, give/spare
	for i, r := range rates {
		if r < m.Min {
			rates[i] = r + up*(m.Min-r)
		} else if d := classes[i].Lambda * w.MeanSize; r-down*(r-d) > d {
			rates[i] = r - down*(r-d) // else a slack of an ulp or two: it keeps its rate
		}
	}
	return true
}

// donorFloor is the lowest rate a donor class may be shaved to: the
// enforced minimum, or its raw demand when that is higher.
func donorFloor(min float64, c Class, w Workload) float64 {
	if d := c.Lambda * w.MeanSize; d > min {
		return d
	}
	return min
}

var _ InPlaceAllocator = MinRate{}
