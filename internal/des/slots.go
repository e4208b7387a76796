package des

import "math"

// RoleHandler receives the roles a Slots fires. Implementations are
// long-lived model objects that switch on the role.
type RoleHandler interface {
	HandleRole(role int)
}

// inf marks an idle role. A variable, not math.Inf(1) at each use: the
// scan measured 1–2 % faster through the simulator this way.
var inf = math.Inf(1)

// Slots is a pending-event set for a model whose events are a fixed set of
// roles, each pending at most once. The zero value is an empty set at time
// 0; Reset sizes it.
type Slots struct {
	now       float64
	next      uint64 // the seq the next Set consumes
	processed uint64
	time      []float64 // fire time per role, +Inf = not armed
	seq       []uint64  // Set order per role, the tie-break
}

// Reset returns the set to time zero with n idle roles and cleared
// counters, retaining capacity: a reset set behaves identically to a new
// one, and allocates only when n outgrows every earlier Reset.
func (s *Slots) Reset(n int) {
	s.now, s.next, s.processed = 0, 0, 0
	if cap(s.time) < n {
		s.time, s.seq = make([]float64, n), make([]uint64, n)
	}
	s.time, s.seq = s.time[:n], s.seq[:n]
	for i := range s.time {
		s.time[i] = inf
	}
}

// Now returns the current simulation time.
func (s *Slots) Now() float64 { return s.now }

// Processed returns the number of roles fired so far.
func (s *Slots) Processed() uint64 { return s.processed }

// Set arms role to fire at absolute time t ≥ Now(), replacing any pending
// firing of the same role, and consumes one sequence number. It panics
// with ErrPast on an earlier or NaN time, and on a role outside [0, n).
// Set(role, +Inf) is a Clear that consumes a sequence number.
func (s *Slots) Set(role int, t float64) {
	if !(t >= s.now) {
		panic(ErrPast)
	}
	s.time[role], s.seq[role] = t, s.next
	s.next++
}

// SetAfter is Set at Now() + delay; it panics with ErrPast on a negative
// or NaN delay.
func (s *Slots) SetAfter(role int, delay float64) {
	if !(delay >= 0) {
		panic(ErrPast)
	}
	s.Set(role, s.now+delay)
}

// Clear disarms role (a no-op on an idle one). It consumes no sequence
// number, so clearing never reorders the roles that stay armed.
func (s *Slots) Clear(role int) { s.time[role] = inf }

// RunUntil fires armed roles in (time, seq) order until the next one lies
// beyond horizon (one at exactly horizon fires) and leaves the clock at
// horizon. A role is disarmed before h sees it, so the handler re-arms its
// own role like any other.
func (s *Slots) RunUntil(horizon float64, h RoleHandler) {
	for {
		best, at := -1, inf
		for i, t := range s.time {
			if t < at || (t == at && best >= 0 && s.seq[i] < s.seq[best]) {
				best, at = i, t
			}
		}
		if best < 0 || at > horizon {
			break
		}
		s.now = at
		s.time[best] = inf
		s.processed++
		h.HandleRole(best)
	}
	if s.now < horizon {
		s.now = horizon
	}
}
