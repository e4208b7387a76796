// Package dist models the job-size distributions the PSD machinery is
// parameterized by. The paper's rate allocator (Eq. 17) and slowdown
// closed form (Theorem 1) consume only three moments of the size law —
// E[X], E[X²] and E[1/X] — while the simulator, load generator and HTTP
// server need reproducible samples from the same law. A Distribution
// bundles both views and guarantees they agree.
//
// Every moment is closed-form (no numeric integration) and every sampler
// is an exact transform of an internal/rng Source — inversion where that
// is one multiply, the Source's ziggurat exponential and normal under the
// exponential, hyperexponential and lognormal, and a ziggurat of
// its own density under the Bounded Pareto (ziggurat.go), which keeps
// Log/Exp/Pow off the simulator's per-event path: the first compare ends
// ~97 % of draws, and two lines per layer (rng.Squeeze) decide ~98 % of
// the rest before a Pow is needed. A rejection sampler
// consumes a variable number of words per draw, so what a fixed seed
// fixes is the sample sequence of each Source, and components stay
// decoupled by drawing from sibling streams — the common-random-numbers
// discipline used throughout internal/simsrv (see internal/rng).
//
// The paper's workload is the Bounded Pareto BP(k, p, α) (heavy-tailed
// web job sizes, §4.1); PaperDefault returns its BP(0.1, 100, 1.5)
// parameterization. Around it the package grows scenario coverage:
// Deterministic, Exponential and Uniform for closed-form cross-checks,
// Lognormal for a moderate-variance alternative tail, a two-phase
// hyperexponential fit from (mean, SCV) for high-variance non-Pareto
// traffic, a trace-driven Empirical law, and a Scaled wrapper
// implementing Lemma 2's capacity scaling.
//
// E[1/X] does not exist for every law (the exponential's diverges near
// zero, as does the hyperexponential's). Such distributions return
// +Inf from InverseMoment; consumers that need a finite slowdown
// constant (internal/queueing, internal/core) detect this and fail with
// queueing.ErrDivergent / core.ErrInfeasible rather than propagating
// infinities.
package dist

import (
	"fmt"
	"math"

	"psd/internal/rng"
)

// Distribution is a positive job-size law with analytic moments and a
// reproducible sampler. Sizes are in work units: a server of rate r
// drains r work units per time unit, so a size-x job needs x/r time
// units of service on it.
type Distribution interface {
	// Mean returns E[X].
	Mean() float64
	// SecondMoment returns E[X²].
	SecondMoment() float64
	// InverseMoment returns E[1/X], or +Inf when the integral diverges
	// (slowdown has no finite expectation under such a law).
	InverseMoment() float64
	// Sample draws one job size from the law using src: an exact draw,
	// a function of src's state alone. How many words of src it consumes
	// may vary from call to call.
	Sample(src *rng.Source) float64
	// String describes the law and its parameters compactly.
	String() string
}

// Filler is a Distribution whose draws are a function of the stream
// alone, so a consumer may draw ahead of need: Fill writes to dst the
// values len(dst) successive Sample(src) calls would return, in order,
// and leaves src where those calls would. The package's own laws opt in,
// except a Scaled one, which cannot vouch for the law it wraps; a law
// whose Sample keeps state of its own between draws must not.
type Filler interface {
	Distribution
	Fill(src *rng.Source, dst []float64)
}

// checkParam validates a strictly positive, finite scalar parameter.
func checkParam(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Errorf("dist: %s %v must be positive and finite", name, v)
	}
	return nil
}

// checkMoments is the shared post-construction guard: individually
// valid parameters can still overflow (or underflow) float64 in the
// moment formulas, and an Inf/NaN mean or second moment would leak
// straight into the allocator. Only InverseMoment may be +Inf — that is
// the documented divergence signal, not an overflow.
func checkMoments(d Distribution) (Distribution, error) {
	m, m2 := d.Mean(), d.SecondMoment()
	if !(m > 0) || math.IsInf(m, 0) || math.IsNaN(m) ||
		!(m2 > 0) || math.IsInf(m2, 0) || math.IsNaN(m2) {
		return nil, fmt.Errorf("dist: %s moments overflow float64 (E[X]=%v, E[X²]=%v)", d, m, m2)
	}
	if inv := d.InverseMoment(); !(inv > 0) || math.IsNaN(inv) {
		return nil, fmt.Errorf("dist: %s has invalid E[1/X]=%v", d, inv)
	}
	return d, nil
}

// scaled is Lemma 2's capacity transform: if X is the job size against a
// unit-rate server, Y = X/rate is the effective size against a server of
// capacity rate.
type scaled struct {
	d    Distribution
	rate float64
}

// NewScaled wraps d with job sizes divided by rate (equivalently: the
// same work served by a machine rate times as fast). Moments transform
// exactly — E[Y] = E[X]/rate, E[Y²] = E[X²]/rate², E[1/Y] = rate·E[1/X]
// — which is how Lemma 2 turns Theorem 1's unit-capacity slowdown into
// the task-server form. A rate < 1 inflates sizes: NewScaled(d, 1.0/3)
// yields jobs three times as large, the model-mismatch workload used by
// the feedback ablation.
func NewScaled(d Distribution, rate float64) (Distribution, error) {
	if d == nil {
		return nil, fmt.Errorf("dist: cannot scale a nil distribution")
	}
	if err := checkParam("scale rate", rate); err != nil {
		return nil, err
	}
	return checkMoments(&scaled{d: d, rate: rate})
}

func (s *scaled) Mean() float64         { return s.d.Mean() / s.rate }
func (s *scaled) SecondMoment() float64 { return s.d.SecondMoment() / (s.rate * s.rate) }

func (s *scaled) InverseMoment() float64 {
	// rate·(+Inf) stays +Inf; the divergence is preserved.
	return s.rate * s.d.InverseMoment()
}

func (s *scaled) Sample(src *rng.Source) float64 { return s.d.Sample(src) / s.rate }

func (s *scaled) String() string {
	return fmt.Sprintf("Scaled(%s, rate=%g)", s.d, s.rate)
}
