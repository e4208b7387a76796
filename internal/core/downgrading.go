package core

// Downgrading is the multi-grade allocation policy (Fricker et al.,
// "Allocation Schemes of Resources with Downgrading") on top of a base
// rate allocator: the *arithmetic* is the base's (PSD by default, so all
// determinism goldens hold bit-for-bit), but choosing it arms the
// degradation ladder in control.Loop, the one tick both the simulator
// and the live server run: under sustained saturation a class's
// effective δ is scaled up rung by rung — lowering its grade so the
// allocator legitimately gives it less surplus — and only once every
// rung is exhausted may the admission gate shed.
//
// The wrapper itself is stateless; the ladder state machine lives with
// the control loop that owns the tick, exactly like the feedback
// controller does.
type Downgrading struct {
	// Base is the underlying rate allocator; nil means PSD.
	Base InPlaceAllocator
}

// Name implements Allocator.
func (Downgrading) Name() string { return "downgrade" }

func (d Downgrading) base() InPlaceAllocator {
	if d.Base == nil {
		return PSD{}
	}
	return d.Base
}

// Allocate implements Allocator by delegating to the base.
func (d Downgrading) Allocate(classes []Class, w Workload) (Allocation, error) {
	return d.base().Allocate(classes, w)
}

// AllocateInto implements InPlaceAllocator by delegating to the base.
func (d Downgrading) AllocateInto(dst *Allocation, classes []Class, w Workload) error {
	return d.base().AllocateInto(dst, classes, w)
}

var _ InPlaceAllocator = Downgrading{}

// IsDowngrading reports whether a is the Downgrading policy, unwrapping
// a MinRate shell — the check control.Loop uses to decide whether to arm
// the degradation ladder.
func IsDowngrading(a Allocator) bool {
	switch al := a.(type) {
	case Downgrading:
		return true
	case MinRate:
		return IsDowngrading(al.Base)
	}
	return false
}
