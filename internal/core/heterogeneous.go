package core

import (
	"fmt"
	"math"
)

// HeterogeneousPSD generalizes the paper's Eq. 17 to classes with
// *different* job-size distributions — the situation that defeats the PDD
// baseline outright. With per-class moments E[X_i], E[X_i²], E[1/X_i]
// (all measured against the full server's unit rate), Theorem 1 gives
//
//	E[S_i] = λ_i·C_i / (r_i − λ_i·E[X_i]),   C_i = E[X_i²]·E[1/X_i]/2
//
// and imposing E[S_i] = A·δ_i with Σ r_i = 1 stays linear in 1/A:
//
//	r_i = λ_i·E[X_i] + (λ_i·C_i/δ_i) · (1 − ρ) / Σ_j (λ_j·C_j/δ_j)
//
// which collapses to Eq. 17 when every class shares one distribution
// (the common C cancels). The paper's §6 notes its model assumes one
// shared Bounded Pareto; this allocator removes that assumption while
// preserving the closed form, and the simulator's per-class service
// overrides exercise it end to end.
type HeterogeneousPSD struct{}

// Name implements Allocator (for the shared-workload interface).
func (HeterogeneousPSD) Name() string { return "hpsd" }

// Allocate implements Allocator for the degenerate shared-distribution
// case: every class gets Workload w. It exists so HeterogeneousPSD can
// drop into any Allocator slot; with a shared law it returns exactly the
// PSD allocation.
func (h HeterogeneousPSD) Allocate(classes []Class, w Workload) (Allocation, error) {
	ws := make([]Workload, len(classes))
	for i := range ws {
		ws[i] = w
	}
	return h.AllocatePerClass(classes, ws)
}

// AllocatePerClass computes the generalized allocation for per-class
// workloads. classes[i] pairs with workloads[i].
func (HeterogeneousPSD) AllocatePerClass(classes []Class, workloads []Workload) (Allocation, error) {
	if len(classes) == 0 {
		return Allocation{}, fmt.Errorf("%w: no classes", ErrInfeasible)
	}
	if len(workloads) != len(classes) {
		return Allocation{}, fmt.Errorf("%w: %d workloads for %d classes",
			ErrInfeasible, len(workloads), len(classes))
	}
	rho := 0.0
	for i, c := range classes {
		if err := workloads[i].Validate(); err != nil {
			return Allocation{}, fmt.Errorf("class %d: %w", i, err)
		}
		if !(c.Delta > 0) || math.IsInf(c.Delta, 0) || math.IsNaN(c.Delta) {
			return Allocation{}, fmt.Errorf("%w: class %d delta %v", ErrInfeasible, i, c.Delta)
		}
		if c.Lambda < 0 || math.IsInf(c.Lambda, 0) || math.IsNaN(c.Lambda) {
			return Allocation{}, fmt.Errorf("%w: class %d lambda %v", ErrInfeasible, i, c.Lambda)
		}
		rho += c.Lambda * workloads[i].MeanSize
	}
	if rho >= 1 {
		return Allocation{}, errOverloaded
	}

	// Σ_j λ_j·C_j/δ_j — the δ- and burstiness-scaled demand.
	sumScaled := 0.0
	for i, c := range classes {
		sumScaled += c.Lambda * workloads[i].SlowdownConstant() / c.Delta
	}
	alloc := Allocation{
		Rates:             make([]float64, len(classes)),
		ExpectedSlowdowns: make([]float64, len(classes)),
		Utilization:       rho,
	}
	if sumScaled == 0 {
		for i := range alloc.Rates {
			alloc.Rates[i] = 1 / float64(len(classes))
		}
		return alloc, nil
	}
	surplus := 1 - rho
	// A is the common slowdown-per-δ level: E[S_i] = A·δ_i.
	a := sumScaled / surplus
	for i, c := range classes {
		ci := workloads[i].SlowdownConstant()
		alloc.Rates[i] = c.Lambda*workloads[i].MeanSize + (c.Lambda*ci/c.Delta)*surplus/sumScaled
		if c.Lambda == 0 {
			continue
		}
		alloc.ExpectedSlowdowns[i] = a * c.Delta
	}
	return alloc, nil
}

// SlowdownUnderRatesPerClass evaluates Theorem 1 per class under
// arbitrary rates with per-class workloads (the heterogeneous analogue of
// SlowdownUnderRates).
func SlowdownUnderRatesPerClass(classes []Class, workloads []Workload, rates []float64) ([]float64, error) {
	if len(rates) != len(classes) || len(workloads) != len(classes) {
		return nil, fmt.Errorf("core: mismatched lengths: %d classes, %d workloads, %d rates",
			len(classes), len(workloads), len(rates))
	}
	out := make([]float64, len(classes))
	for i, c := range classes {
		if err := workloads[i].Validate(); err != nil {
			return nil, fmt.Errorf("class %d: %w", i, err)
		}
		if c.Lambda == 0 {
			continue
		}
		surplus := rates[i] - c.Lambda*workloads[i].MeanSize
		if surplus <= 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = c.Lambda * workloads[i].SlowdownConstant() / surplus
	}
	return out, nil
}

var _ Allocator = HeterogeneousPSD{}
