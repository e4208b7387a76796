// Package core implements the paper's primary contribution: processing
// rate allocation for proportional slowdown differentiation (PSD) on
// Internet servers.
//
// A server of normalized capacity 1 is partitioned among N task servers,
// one per request class; task server i receives rate r_i and serves its
// class FCFS. Class i carries a differentiation parameter δ_i
// (1 = δ_1 ≤ δ_2 ≤ … ≤ δ_N; smaller δ ⇒ better service) and offers a
// Poisson stream of rate λ_i with job sizes drawn i.i.d. from a common
// heavy-tailed distribution. The PSD model (Eq. 16) requires
//
//	E[S_i]/E[S_j] = δ_i/δ_j    for all classes i, j
//
// By Theorem 1 the slowdown on task server i is
// E[S_i] = λ_i·E[X²]·E[1/X] / (2(r_i − λ_iE[X])), and solving the PSD
// constraints under Σr_i = 1 gives the allocation (Eq. 17):
//
//	r_i = λ_iE[X] + (λ_i/δ_i)·(1 − ρ) / Σ_j (λ_j/δ_j)
//
// — class i's raw demand plus a share of the surplus capacity (1−ρ)
// proportional to its δ-scaled arrival rate. The achieved slowdown
// (Eq. 18) is then δ_i·C·Σ_j(λ_j/δ_j)/(1−ρ) with C = E[X²]E[1/X]/2.
//
// Besides the PSD allocator, the package provides the baseline allocators
// used by the ablation benchmarks: equal share, demand-proportional, a PDD
// (proportional *delay*) allocator solved numerically, and static
// weights. All allocators implement the Allocator interface consumed by
// the simulator (internal/simsrv) and the HTTP front end
// (internal/httpsrv).
package core

import (
	"errors"
	"fmt"
	"math"

	"psd/internal/dist"
)

// Class describes one request class's contract and current demand.
type Class struct {
	// Delta is the differentiation parameter δ_i > 0; smaller is better
	// service. By convention class 0 (the highest class) has δ = 1.
	Delta float64
	// Lambda is the class arrival rate in requests per time unit.
	Lambda float64
}

// Workload captures the moments of the job-size distribution that the
// allocators need. Sizes are in work units against the full server's unit
// rate.
type Workload struct {
	MeanSize      float64 // E[X]
	SecondMoment  float64 // E[X²]
	InverseMoment float64 // E[1/X]
}

// WorkloadFromDist extracts the Workload moments from a distribution.
func WorkloadFromDist(d dist.Distribution) (Workload, error) {
	inv := d.InverseMoment()
	if math.IsInf(inv, 1) || math.IsNaN(inv) {
		return Workload{}, fmt.Errorf("core: %w: E[1/X] diverges for %s", ErrInfeasible, d)
	}
	return Workload{MeanSize: d.Mean(), SecondMoment: d.SecondMoment(), InverseMoment: inv}, nil
}

// SlowdownConstant returns C = E[X²]·E[1/X]/2 for the workload.
func (w Workload) SlowdownConstant() float64 {
	return w.SecondMoment * w.InverseMoment / 2
}

// Validate checks the workload moments are usable.
func (w Workload) Validate() error {
	if !(w.MeanSize > 0) || math.IsInf(w.MeanSize, 0) {
		return fmt.Errorf("core: mean size %v must be positive and finite", w.MeanSize)
	}
	if !(w.SecondMoment > 0) || math.IsInf(w.SecondMoment, 0) {
		return fmt.Errorf("core: second moment %v must be positive and finite", w.SecondMoment)
	}
	if !(w.InverseMoment > 0) || math.IsInf(w.InverseMoment, 0) {
		return fmt.Errorf("core: inverse moment %v must be positive and finite", w.InverseMoment)
	}
	if w.SecondMoment < w.MeanSize*w.MeanSize {
		return fmt.Errorf("core: E[X²]=%v < E[X]²=%v violates Jensen", w.SecondMoment, w.MeanSize*w.MeanSize)
	}
	return nil
}

// Allocation is the result of a rate-allocation decision over a capacity-1
// server.
type Allocation struct {
	// Rates holds r_i per class; Σ Rates = 1 for work-exhausting
	// allocators.
	Rates []float64
	// ExpectedSlowdowns holds the model-predicted E[S_i] under Rates
	// (NaN for classes whose prediction is unavailable).
	ExpectedSlowdowns []float64
	// Utilization is ρ = Σ λ_iE[X].
	Utilization float64
}

// ErrInfeasible reports demands that no allocation can serve (ρ ≥ 1) or
// malformed inputs.
var ErrInfeasible = errors.New("core: infeasible allocation")

// errOverloaded is the ρ ≥ 1 refusal. A control loop meets it on every
// tick of a sustained overload, so it is built once rather than formatted
// per call.
var errOverloaded = fmt.Errorf("%w: utilization >= 1", ErrInfeasible)

// Allocator computes a rate split for the given classes and workload.
// Implementations must return rates summing to ≤ 1 with r_i > λ_iE[X] for
// every class with λ_i > 0, or an error.
type Allocator interface {
	Allocate(classes []Class, w Workload) (Allocation, error)
	Name() string
}

// InPlaceAllocator is implemented by allocators that can fill a reusable
// Allocation without heap allocation. The simulation arenas call the
// allocator once per reallocation window — roughly 70 times per
// replication, millions of times per figure sweep — so the hot allocators
// (PSD, PacketizedPSD, PDD and the simple baselines) provide this.
type InPlaceAllocator interface {
	Allocator
	// AllocateInto computes the same result as Allocate into dst,
	// reusing dst's slices when they have capacity. On error dst is
	// unspecified. The rates must be arithmetically identical to
	// Allocate's — seeded replications are compared bit-for-bit across
	// engine versions.
	AllocateInto(dst *Allocation, classes []Class, w Workload) error
}

// AllocateInto runs al into dst, using the in-place path when al supports
// it and otherwise copying a fresh Allocate result into dst's (reused)
// slices. It is the call sites' single entry point so custom Allocators
// keep working unchanged, just without the zero-allocation guarantee.
func AllocateInto(al Allocator, dst *Allocation, classes []Class, w Workload) error {
	if ipa, ok := al.(InPlaceAllocator); ok {
		return ipa.AllocateInto(dst, classes, w)
	}
	a, err := al.Allocate(classes, w)
	if err != nil {
		return err
	}
	dst.Rates = append(dst.Rates[:0], a.Rates...)
	dst.ExpectedSlowdowns = append(dst.ExpectedSlowdowns[:0], a.ExpectedSlowdowns...)
	dst.Utilization = a.Utilization
	return nil
}

// reserve sizes the allocation's slices for n classes, reusing capacity.
// Callers write every element, so stale contents need no clearing.
func (a *Allocation) reserve(n int) {
	a.Rates = resizeFloats(a.Rates, n)
	a.ExpectedSlowdowns = resizeFloats(a.ExpectedSlowdowns, n)
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// validateClasses performs the shared input checking.
func validateClasses(classes []Class, w Workload) (rho float64, err error) {
	if len(classes) == 0 {
		return 0, fmt.Errorf("%w: no classes", ErrInfeasible)
	}
	if err := w.Validate(); err != nil {
		return 0, err
	}
	for i, c := range classes {
		if !(c.Delta > 0) || math.IsInf(c.Delta, 0) || math.IsNaN(c.Delta) {
			return 0, fmt.Errorf("%w: class %d delta %v must be positive and finite", ErrInfeasible, i, c.Delta)
		}
		if c.Lambda < 0 || math.IsInf(c.Lambda, 0) || math.IsNaN(c.Lambda) {
			return 0, fmt.Errorf("%w: class %d lambda %v must be finite and non-negative", ErrInfeasible, i, c.Lambda)
		}
		rho += c.Lambda * w.MeanSize
	}
	if rho >= 1 {
		return 0, errOverloaded
	}
	return rho, nil
}

// PSD is the paper's rate-allocation strategy (Eq. 17). The zero value is
// ready to use.
type PSD struct{}

// Name implements Allocator.
func (PSD) Name() string { return "psd" }

// Allocate implements Eq. 17 and computes Eq. 18 predictions.
//
// Classes with λ_i = 0 receive zero rate and a zero predicted slowdown:
// with no arrivals there is no queueing, and reserving surplus for an idle
// class would only inflate the others' slowdowns.
func (p PSD) Allocate(classes []Class, w Workload) (Allocation, error) {
	var alloc Allocation
	if err := p.AllocateInto(&alloc, classes, w); err != nil {
		return Allocation{}, err
	}
	return alloc, nil
}

// AllocateInto implements InPlaceAllocator.
func (PSD) AllocateInto(dst *Allocation, classes []Class, w Workload) error {
	rho, err := validateClasses(classes, w)
	if err != nil {
		return err
	}
	sumScaled := 0.0 // Σ λ_j/δ_j
	for _, c := range classes {
		sumScaled += c.Lambda / c.Delta
	}
	dst.reserve(len(classes))
	dst.Utilization = rho
	if sumScaled == 0 {
		// No demand at all: split capacity evenly (arbitrary but total).
		for i := range dst.Rates {
			dst.Rates[i] = 1 / float64(len(classes))
			dst.ExpectedSlowdowns[i] = 0
		}
		return nil
	}
	c := w.SlowdownConstant()
	surplus := 1 - rho
	for i, cl := range classes {
		dst.Rates[i] = cl.Lambda*w.MeanSize + (cl.Lambda/cl.Delta)*surplus/sumScaled
		if cl.Lambda == 0 {
			dst.ExpectedSlowdowns[i] = 0
			continue
		}
		// Eq. 18: E[S_i] = δ_i·C·Σ(λ_j/δ_j)/(1−ρ)
		dst.ExpectedSlowdowns[i] = cl.Delta * c * sumScaled / surplus
	}
	return nil
}

// ExpectedSlowdown returns Eq. 18 directly for class i without building a
// full Allocation.
func ExpectedSlowdown(classes []Class, w Workload, i int) (float64, error) {
	if i < 0 || i >= len(classes) {
		return 0, fmt.Errorf("core: class index %d out of range", i)
	}
	rho, err := validateClasses(classes, w)
	if err != nil {
		return 0, err
	}
	if classes[i].Lambda == 0 {
		return 0, nil
	}
	sumScaled := 0.0
	for _, c := range classes {
		sumScaled += c.Lambda / c.Delta
	}
	return classes[i].Delta * w.SlowdownConstant() * sumScaled / (1 - rho), nil
}

// SlowdownUnderRates evaluates Theorem 1 for each class under an arbitrary
// rate vector (not necessarily the PSD allocation); used to predict what
// baseline allocators achieve. Returns +Inf for overloaded classes.
func SlowdownUnderRates(classes []Class, w Workload, rates []float64) ([]float64, error) {
	out := make([]float64, len(classes))
	if err := slowdownUnderRatesInto(out, classes, w, rates); err != nil {
		return nil, err
	}
	return out, nil
}

// slowdownUnderRatesInto is SlowdownUnderRates into caller-owned storage
// (len(dst) == len(classes)), for the in-place allocator paths.
func slowdownUnderRatesInto(dst []float64, classes []Class, w Workload, rates []float64) error {
	if len(rates) != len(classes) {
		return fmt.Errorf("core: %d rates for %d classes", len(rates), len(classes))
	}
	if err := w.Validate(); err != nil {
		return err
	}
	c := w.SlowdownConstant()
	for i, cl := range classes {
		if cl.Lambda == 0 {
			dst[i] = 0
			continue
		}
		surplus := rates[i] - cl.Lambda*w.MeanSize
		if surplus <= 0 {
			dst[i] = math.Inf(1)
			continue
		}
		dst[i] = cl.Lambda * c / surplus
	}
	return nil
}

var _ InPlaceAllocator = PSD{}
