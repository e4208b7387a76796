// Package analytic evaluates steady-state figure points directly from
// the paper's closed forms instead of simulating them. Section 3 gives
// every stationary slowdown in closed form — Lemma 1 (E[S] = E[W]·E[1/X]),
// Lemma 2 (capacity scaling), Theorem 1 (the task-server slowdown) and
// Eq. 18 (the PSD allocation's achieved slowdowns) — and internal/dist
// carries exact moments, so a grid point whose steady state is analytic
// costs a few hundred floating-point operations rather than millions of
// DES events. internal/sweep routes points here when its Engine runs in
// Auto or Analytic mode; everything transient, packetized, trace-driven
// or moment-divergent stays on the DES and is reported as
// ErrNeedsSimulation.
//
// A point is analytic-eligible when its steady state is a fixed-rate
// M/G/1 partition with computable moments:
//
//   - stationary arrivals (no LoadSchedule phases),
//   - no admission gate, no GPS work-conservation coupling, no
//     closed-loop feedback trimming, no per-request recording and no
//     flight recorder (all of those either change the steady state or
//     exist to capture trajectories only a simulation has),
//   - an allocator whose stationary allocation is deterministic in the
//     true arrival rates: PSD (Eq. 17), EqualShare, DemandProportional,
//     or MinRate wrapping one of those,
//   - finite E[X], E[X²] and E[1/X] for the shared law and every
//     per-class override (Exponential and HyperExp2 have divergent
//     E[1/X]; Bounded Pareto is always finite by truncation).
//
// Estimator choice (window vs EWMA) and the Oracle flag do not affect
// the stationary point — both estimators are consistent for constant λ —
// so they stay eligible.
//
// The evaluator itself is an arena: Evaluator.EvaluateInto reuses every
// slice it owns, so a warm evaluation performs zero heap allocations
// (BenchmarkAnalyticSweep gates this at 0.01 allocs/point, like every
// other hot path in the repo).
package analytic

import (
	"errors"
	"fmt"
	"math"

	"psd/internal/core"
	"psd/internal/queueing"
	"psd/internal/simsrv"
)

// ErrNeedsSimulation reports a configuration whose result the closed
// forms cannot produce — transient, packetized, trace-driven, recorded,
// closed-loop, or with divergent moments. Callers running in "auto" mode
// treat it as "route this point to the DES"; callers in "analytic" mode
// surface it.
var ErrNeedsSimulation = errors.New("analytic: point needs simulation")

// Evaluation is the closed-form result for one configuration, the
// analytic counterpart of averaging simsrv replications.
type Evaluation struct {
	// Slowdowns[i] is Theorem 1 evaluated at the allocated rates with
	// class i's own size law (Eq. 18 exactly when the allocator is PSD
	// and the law is shared).
	Slowdowns []float64
	// Rates is the stationary allocation under the true arrival rates.
	Rates []float64
	// Ratios[i] is Slowdowns[i]/Slowdowns[0], the achieved
	// differentiation ratio (1 at index 0; NaN when class 0's slowdown
	// is zero).
	Ratios []float64
	// SystemSlowdown is the arrival-weighted mean across classes, the
	// "system" series of Figure 2.
	SystemSlowdown float64
	// Utilization is ρ = Σ λ_i·E[X_i].
	Utilization float64
}

// Evaluate computes the closed-form result for cfg. It is the
// convenience wrapper over a throwaway Evaluator; sweeps reuse an
// Evaluator arena instead.
func Evaluate(cfg simsrv.Config) (*Evaluation, error) {
	var e Evaluator
	ev := new(Evaluation)
	if err := e.EvaluateInto(ev, cfg); err != nil {
		return nil, err
	}
	return ev, nil
}

// Evaluator is a reusable arena for closed-form point evaluation: the
// class vector and allocation scratch persist across calls, so a warm
// EvaluateInto allocates nothing.
type Evaluator struct {
	classes []core.Class
	alloc   core.Allocation
}

// EvaluateInto computes cfg's closed-form result into ev, reusing ev's
// slices. On error ev is unspecified. Ineligible configurations return
// an error wrapping ErrNeedsSimulation; infeasible demand (ρ ≥ 1, for
// which no stationary point exists but a finite-horizon simulation still
// produces a measurement) does too, additionally wrapping the
// allocator's core.ErrInfeasible.
func (e *Evaluator) EvaluateInto(ev *Evaluation, cfg simsrv.Config) error {
	if err := cfg.Prepare(); err != nil {
		return err
	}
	return e.EvaluatePrepared(ev, &cfg, nil)
}

// EvaluatePrepared is EvaluateInto for a caller that has already
// defaulted and validated cfg (simsrv.Config.Prepare): internal/sweep
// handles one Config per grid point and must not pay for either twice.
// cfg is only read, through the pointer. pol, when non-nil, is the
// registered policy cfg.Allocator is a fresh instance of — the sweep's
// policy axis has it in hand, which saves the registry lookup by name.
func (e *Evaluator) EvaluatePrepared(ev *Evaluation, cfg *simsrv.Config, pol *core.Policy) error {
	if reason := ineligible(cfg, pol); reason != "" {
		return fmt.Errorf("%w: %s", ErrNeedsSimulation, reason)
	}
	w, err := core.WorkloadFromDist(cfg.Service)
	if err != nil {
		return fmt.Errorf("%w: shared law %s: %v", ErrNeedsSimulation, cfg.Service, err)
	}

	nc := len(cfg.Classes)
	e.classes = resizeClasses(e.classes, nc)
	for i, cc := range cfg.Classes {
		e.classes[i] = core.Class{Delta: cc.Delta, Lambda: cc.Lambda}
	}
	// The allocator sees the shared-law moments — exactly what the
	// control plane feeds it (per-class overrides deliberately keep this
	// mismatch; see runner.reset).
	if err := core.AllocateInto(cfg.Allocator, &e.alloc, e.classes, w); err != nil {
		return fmt.Errorf("%w: allocator %s: %w", ErrNeedsSimulation, cfg.Allocator.Name(), err)
	}

	ev.Slowdowns = resizeFloats(ev.Slowdowns, nc)
	ev.Rates = resizeFloats(ev.Rates, nc)
	ev.Ratios = resizeFloats(ev.Ratios, nc)
	copy(ev.Rates, e.alloc.Rates)
	ev.Utilization = e.alloc.Utilization

	// Theorem 1 at the allocated rates with each class's effective law:
	// the shared law's moments extracted above, or a class's own law.
	// For PSD under a shared law this reproduces Eq. 18 (that identity is
	// the paper's derivation); for the baselines and for per-class
	// overrides it is the honest stationary prediction the simulator
	// converges to. Its failure modes map onto ErrNeedsSimulation:
	// divergent E[1/X] (the heavy-tail case) and an unstable per-class
	// queue under the allocated rate (possible with per-class overrides
	// whose true demand exceeds what the shared-law allocation grants).
	var num, den float64
	for i, cc := range cfg.Classes {
		var s float64
		var err error
		switch {
		case cc.Lambda == 0:
		case cc.Service == nil:
			s, err = queueing.TaskServerSlowdownMoments(cc.Lambda, w.MeanSize, w.SecondMoment, w.InverseMoment, ev.Rates[i])
		default:
			s, err = queueing.TaskServerSlowdown(cc.Lambda, cc.Service, ev.Rates[i])
		}
		if err != nil {
			return fmt.Errorf("%w: %w", ErrNeedsSimulation, err)
		}
		ev.Slowdowns[i] = s
		num += s * cc.Lambda
		den += cc.Lambda
	}
	if den > 0 {
		ev.SystemSlowdown = num / den
	} else {
		ev.SystemSlowdown = 0
	}
	for i := range ev.Ratios {
		switch {
		case i == 0:
			ev.Ratios[0] = 1
		case ev.Slowdowns[0] > 0:
			ev.Ratios[i] = ev.Slowdowns[i] / ev.Slowdowns[0]
		default:
			ev.Ratios[i] = math.NaN()
		}
	}
	return nil
}

// ineligible returns a human-readable reason cfg's steady state is not
// analytic, or "" when it is. The checks mirror the package doc's
// eligibility list; moment divergence is checked separately because it
// needs the workload extraction anyway.
func ineligible(cfg *simsrv.Config, pol *core.Policy) string {
	switch {
	case len(cfg.LoadSchedule) > 0:
		return "transient LoadSchedule phases"
	case cfg.Admission != nil:
		return "admission control reshapes the admitted process"
	case cfg.WorkConserving:
		return "work-conserving mode couples the task servers"
	case cfg.Feedback:
		return "closed-loop feedback trims the effective deltas"
	case cfg.RecordRequests:
		return "per-request records only exist in a simulation"
	case cfg.Recorder != nil:
		return "flight recording captures control-tick trajectories"
	case !supportedAllocator(cfg.Allocator, pol):
		return fmt.Sprintf("allocator %s has no closed-form steady state here", cfg.Allocator.Name())
	}
	return ""
}

// supportedAllocator reports whether the allocator's stationary
// allocation at the true arrival rates is one the closed forms cover —
// the registry's AnalyticEligible capability, read from pol when the
// caller already holds the allocator's policy and looked up by name
// otherwise, with MinRate unwrapped first (MinRate is a deterministic
// post-pass over its base). The check keys off the policy name, so
// PDD/PacketizedPSD (registered without the capability) and custom
// allocators (unknown names) all simulate; a custom policy becomes
// eligible by registering its own core.Policy with the flag set.
func supportedAllocator(a core.Allocator, pol *core.Policy) bool {
	if pol != nil {
		return pol.Caps.AnalyticEligible
	}
	if mr, ok := a.(core.MinRate); ok {
		return supportedAllocator(mr.Base, nil)
	}
	p, ok := core.Lookup(a.Name())
	return ok && p.Caps.AnalyticEligible
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeClasses(s []core.Class, n int) []core.Class {
	if cap(s) < n {
		return make([]core.Class, n)
	}
	return s[:n]
}
