// Package admission provides the admission-control substrate discussed in
// the paper's related work (§5): overload protection that complements —
// but cannot replace — proportional rate allocation. [Abdelzaher et al.]
// keep server utilization below a pre-computed bound via admission
// control; [Lee et al.] combine admission control with priority
// scheduling for proportional delay differentiation. The Eq. 17 allocator
// requires ρ < 1 to be feasible at all, so a production deployment fronts
// the task servers with one of these controllers.
//
// Controllers are deliberately clock-explicit (the caller passes `now` in
// simulation time units) so the same implementations serve the
// discrete-event simulator and — with seconds as the unit — a live
// server.
package admission

import (
	"errors"
	"fmt"
	"math"
)

// Controller decides whether an arriving request is admitted.
type Controller interface {
	// Admit reports whether a request of the given class and size (work
	// units) arriving at time now may enter the system, accounting for
	// it if admitted.
	Admit(class int, size, now float64) bool
	// Name identifies the policy.
	Name() string
}

// Refunder is implemented by controllers that can return admission
// credit when an admitted request is dropped before reaching service
// (e.g. its class queue turned out to be full): without the refund the
// gate's admitted-load state double-counts demand that was never served
// and sheds later traffic below the contracted rate. now must be from
// the same clock as Admit.
type Refunder interface {
	Refund(class int, size, now float64)
}

// ClassIsolated marks controllers whose Admit/Refund calls for class i
// read and write only class-i state, so calls for different classes may
// run concurrently under per-class serialization (each class's calls
// still mutually excluded). TokenBucket qualifies — class i's bucket is
// tokens[i]/last[i] and the shared Rates/Burst are read-only after
// construction. UtilizationBound does not: its leaky integrator is one
// global level shared by every class.
type ClassIsolated interface {
	// ClassIsolated is a marker; implementations promise the contract
	// above.
	ClassIsolated()
}

// UtilizationBound admits work while the exponentially smoothed admitted
// load stays below Bound (work units per time unit against a unit-capacity
// server) — the [Abdelzaher et al.] style utilization guard. Admitted work
// is tracked as a leaky integrator with time constant Tau: at any instant
// the estimated admitted load is level/Tau, and a request is admitted iff
// (level + size)/Tau ≤ Bound.
type UtilizationBound struct {
	Bound float64
	Tau   float64

	level float64
	last  float64
}

// NewUtilizationBound builds the controller; bound in (0, 1], tau > 0
// (larger tau tolerates longer bursts above the bound).
func NewUtilizationBound(bound, tau float64) (*UtilizationBound, error) {
	if !(bound > 0) || bound > 1 {
		return nil, fmt.Errorf("admission: bound %v must be in (0, 1]", bound)
	}
	if !(tau > 0) || math.IsInf(tau, 0) {
		return nil, fmt.Errorf("admission: tau %v must be positive and finite", tau)
	}
	return &UtilizationBound{Bound: bound, Tau: tau}, nil
}

// Name implements Controller.
func (u *UtilizationBound) Name() string { return "utilization" }

// Admit implements Controller.
func (u *UtilizationBound) Admit(_ int, size, now float64) bool {
	if now > u.last {
		u.level *= math.Exp(-(now - u.last) / u.Tau)
		u.last = now
	}
	if (u.level+size)/u.Tau > u.Bound {
		return false
	}
	u.level += size
	return true
}

// Refund implements Refunder: the dropped request's work leaves the
// leaky integrator. The decay since the charge is ignored (refunds
// follow their charge within a request's front-door latency, so the
// drift is negligible); the level is clamped at zero.
func (u *UtilizationBound) Refund(_ int, size, now float64) {
	if now > u.last {
		u.level *= math.Exp(-(now - u.last) / u.Tau)
		u.last = now
	}
	u.level -= size
	if u.level < 0 {
		u.level = 0
	}
}

// TokenBucket enforces a per-class work-rate contract: class i accrues
// credit at Rates[i] work units per time unit up to Burst, and a request
// is admitted iff its size fits the class's credit. Unlike the global
// UtilizationBound it protects classes from *each other* — a flash crowd
// in one class cannot consume another's admission headroom — which is the
// property the per-class task-server architecture wants at its door.
type TokenBucket struct {
	Rates []float64
	Burst float64

	tokens []float64
	last   []float64
}

// NewTokenBucket builds a per-class bucket controller. Every rate must be
// positive; burst > 0 is the per-class credit cap (work units).
func NewTokenBucket(rates []float64, burst float64) (*TokenBucket, error) {
	if len(rates) == 0 {
		return nil, errors.New("admission: no class rates")
	}
	for i, r := range rates {
		if !(r > 0) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("admission: rate[%d] = %v must be positive and finite", i, r)
		}
	}
	if !(burst > 0) {
		return nil, fmt.Errorf("admission: burst %v must be positive", burst)
	}
	tb := &TokenBucket{
		Rates:  append([]float64(nil), rates...),
		Burst:  burst,
		tokens: make([]float64, len(rates)),
		last:   make([]float64, len(rates)),
	}
	for i := range tb.tokens {
		tb.tokens[i] = burst // start full: initial bursts are legitimate
	}
	return tb, nil
}

// Name implements Controller.
func (tb *TokenBucket) Name() string { return "tokenbucket" }

// Admit implements Controller.
func (tb *TokenBucket) Admit(class int, size, now float64) bool {
	if class < 0 || class >= len(tb.Rates) {
		return false
	}
	if now > tb.last[class] {
		tb.tokens[class] += (now - tb.last[class]) * tb.Rates[class]
		if tb.tokens[class] > tb.Burst {
			tb.tokens[class] = tb.Burst
		}
		tb.last[class] = now
	}
	if tb.tokens[class] < size {
		return false
	}
	tb.tokens[class] -= size
	return true
}

// Refund implements Refunder: the dropped request's credit returns to
// its class bucket, capped at Burst.
func (tb *TokenBucket) Refund(class int, size, _ float64) {
	if class < 0 || class >= len(tb.Rates) {
		return
	}
	tb.tokens[class] += size
	if tb.tokens[class] > tb.Burst {
		tb.tokens[class] = tb.Burst
	}
}

// ClassIsolated implements the marker: class i's Admit and Refund touch
// only tokens[i] and last[i]; Rates and Burst are read-only after
// construction.
func (tb *TokenBucket) ClassIsolated() {}

var (
	_ Controller = (*UtilizationBound)(nil)
	_ Controller = (*TokenBucket)(nil)
	_ Refunder   = (*UtilizationBound)(nil)
	_ Refunder   = (*TokenBucket)(nil)

	_ ClassIsolated = (*TokenBucket)(nil)
)
