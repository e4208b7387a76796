package core

import "fmt"

// EqualShare splits capacity evenly regardless of demand or δ. It is the
// naive baseline: it neither tracks load nor differentiates, so slowdown
// ratios drift with per-class load. A class whose demand exceeds 1/N is
// unstable under it; Allocate reports that as an error.
type EqualShare struct{}

// Name implements Allocator.
func (EqualShare) Name() string { return "equal" }

// Allocate implements Allocator.
func (a EqualShare) Allocate(classes []Class, w Workload) (Allocation, error) {
	var alloc Allocation
	if err := a.AllocateInto(&alloc, classes, w); err != nil {
		return Allocation{}, err
	}
	return alloc, nil
}

// errOverEqualShare is EqualShare's refusal at ρ < 1. Like errOverloaded
// it is built once: a control loop may meet it on every tick.
var errOverEqualShare = fmt.Errorf("%w: a class's demand reaches its equal share 1/n", ErrInfeasible)

// AllocateInto implements InPlaceAllocator.
func (EqualShare) AllocateInto(dst *Allocation, classes []Class, w Workload) error {
	rho, err := validateClasses(classes, w)
	if err != nil {
		return err
	}
	n := float64(len(classes))
	dst.reserve(len(classes))
	dst.Utilization = rho
	for i, c := range classes {
		dst.Rates[i] = 1 / n
		if c.Lambda*w.MeanSize >= dst.Rates[i] {
			return errOverEqualShare
		}
	}
	return slowdownUnderRatesInto(dst.ExpectedSlowdowns, classes, w, dst.Rates)
}

// DemandProportional gives each class capacity proportional to its demand
// λ_iE[X] — i.e. every class sees the same utilization on its task server.
// It equalizes per-class *utilization*, not slowdown: all classes then
// experience identical expected slowdowns (ratio 1), so it serves as the
// "no differentiation, load-aware" baseline.
type DemandProportional struct{}

// Name implements Allocator.
func (DemandProportional) Name() string { return "demand" }

// Allocate implements Allocator.
func (a DemandProportional) Allocate(classes []Class, w Workload) (Allocation, error) {
	var alloc Allocation
	if err := a.AllocateInto(&alloc, classes, w); err != nil {
		return Allocation{}, err
	}
	return alloc, nil
}

// AllocateInto implements InPlaceAllocator.
func (DemandProportional) AllocateInto(dst *Allocation, classes []Class, w Workload) error {
	rho, err := validateClasses(classes, w)
	if err != nil {
		return err
	}
	dst.reserve(len(classes))
	dst.Utilization = rho
	if rho == 0 {
		for i := range dst.Rates {
			dst.Rates[i] = 1 / float64(len(classes))
		}
	} else {
		for i, c := range classes {
			dst.Rates[i] = c.Lambda * w.MeanSize / rho
		}
	}
	return slowdownUnderRatesInto(dst.ExpectedSlowdowns, classes, w, dst.Rates)
}

// PDD allocates rates so that expected *queueing delays* (not slowdowns)
// are proportional to δ — the server-side analogue of the rate-based
// proportional delay differentiation schemes (BPR [Dovrolis et al.]) the
// paper argues cannot provide PSD. By the P-K formula on task server i,
//
//	E[W_i] = λ_i E[X²] / (2 r_i (r_i − λ_iE[X]))
//
// and PDD requires E[W_i] = A·δ_i for some A > 0 with Σ r_i = 1.
// For fixed A each class's rate is the positive root of
// r² − λE[X]·r − λE[X²]/(2Aδ) = 0; Σr_i is strictly decreasing in A, so
// the smallest A with Σr ≤ 1 is the allocation. Including PDD lets the
// experiments demonstrate *why* slowdown differentiation needs its own:
// slowdown on task server i is E[S_i] = E[W_i]·E[1/X_i] = E[W_i]·r_i·E[1/X]
// (Lemma 2), so delay ratios of δ_i/δ_j yield slowdown ratios of
// (δ_i·r_i)/(δ_j·r_j) — skewed by the rate split itself. This is the
// paper's §1 argument that PDD schemes "are not applicable to PSD
// provisioning"; the ablation bench quantifies the skew.
type PDD struct{}

// Name implements Allocator.
func (PDD) Name() string { return "pdd" }

// Allocate implements Allocator. The delay constraint
// E[W_i] = λ_iE[X²]/(2 r_i(r_i − λ_iE[X])) = A·δ_i makes each rate the
// positive root of r² − λE[X]·r − λE[X²]/(2Aδ) = 0; Σr_i is strictly
// decreasing in A (limit ρ as A→∞, +∞ as A→0), so the shared solver
// solveQuadraticSharesInto pins A with Σr = 1.
func (a PDD) Allocate(classes []Class, w Workload) (Allocation, error) {
	var alloc Allocation
	if err := a.AllocateInto(&alloc, classes, w); err != nil {
		return Allocation{}, err
	}
	return alloc, nil
}

// AllocateInto implements InPlaceAllocator.
func (PDD) AllocateInto(dst *Allocation, classes []Class, w Workload) error {
	rho, err := validateClasses(classes, w)
	if err != nil {
		return err
	}
	dst.reserve(len(classes))
	dst.Utilization = rho
	if err := solveQuadraticSharesInto(dst.Rates, classes, w, false); err != nil {
		return err
	}
	return slowdownUnderRatesInto(dst.ExpectedSlowdowns, classes, w, dst.Rates)
}

var (
	_ InPlaceAllocator = EqualShare{}
	_ InPlaceAllocator = DemandProportional{}
	_ InPlaceAllocator = PDD{}
)
