package core

import "math"

// LogWeight splits the surplus capacity with logarithmically compressed
// differentiation weights:
//
//	r_i = λ_iE[X] + λ_i·ln(1 + 1/δ_i)·(1 − ρ) / Σ_j λ_j·ln(1 + 1/δ_j)
//
// The shape follows the log-weight allocation literature (Robert &
// Véber, "A Stochastic Analysis of Resource Sharing with Logarithmic
// Weights"): weights grow only logarithmically in the entitlement, so
// high classes still get more surplus, but the spread between classes is
// compressed relative to PSD's linear λ_i/δ_i scaling. Against PSD it is
// the "flatter rival": achieved slowdown ratios systematically undershoot
// the δ targets as the δ spread widens, while the worst class is never
// starved as aggressively — exactly the fairness-vs-differentiation
// trade-off the policy tournament (Figure 14) quantifies.
//
// Like PSD it is a deterministic closed form of the true arrival rates,
// so the analytic evaluator covers it (Theorem 1 at these rates); the
// oracle-mode DES cross-validation in internal/analytic pins the two
// within simulation confidence bands. The zero value is ready to use.
type LogWeight struct{}

// Name implements Allocator.
func (LogWeight) Name() string { return "log" }

// Allocate implements Allocator.
func (l LogWeight) Allocate(classes []Class, w Workload) (Allocation, error) {
	var alloc Allocation
	if err := l.AllocateInto(&alloc, classes, w); err != nil {
		return Allocation{}, err
	}
	return alloc, nil
}

// AllocateInto implements InPlaceAllocator.
func (LogWeight) AllocateInto(dst *Allocation, classes []Class, w Workload) error {
	rho, err := validateClasses(classes, w)
	if err != nil {
		return err
	}
	dst.reserve(len(classes))
	dst.Utilization = rho
	// Rates[i] holds class i's weight λ_i·ln(1 + 1/δ_i) until the split.
	sumWeight := 0.0
	for i, c := range classes {
		dst.Rates[i] = c.Lambda * math.Log1p(1/c.Delta)
		sumWeight += dst.Rates[i]
	}
	if sumWeight == 0 {
		// No demand at all: split capacity evenly (mirrors PSD).
		for i := range dst.Rates {
			dst.Rates[i] = 1 / float64(len(classes))
			dst.ExpectedSlowdowns[i] = 0
		}
		return nil
	}
	surplus := 1 - rho
	for i, cl := range classes {
		dst.Rates[i] = cl.Lambda*w.MeanSize + dst.Rates[i]*surplus/sumWeight
	}
	// Not the PSD fixed point, so no Eq. 18 shortcut: predict via
	// Theorem 1 at the allocated rates.
	return slowdownUnderRatesInto(dst.ExpectedSlowdowns, classes, w, dst.Rates)
}

var _ InPlaceAllocator = LogWeight{}
