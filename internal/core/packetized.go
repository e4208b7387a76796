package core

import (
	"fmt"
	"math"
)

// PacketizedPSD computes PSD weights for a *packetized* single-processor
// server under continuous backlog: one processor serves whole requests at
// full speed, and a weighted-fair scheduler (internal/sched's SCFQ) picks
// which class's head-of-line request runs next, so a backlogged class's
// queue drains at rate w_i.
//
// Two things change versus the fluid task-server model behind Eq. 17.
// First, a dispatched request runs at full speed (service time x, not
// x/r_i), so the E[1/X_i] = r_i·E[1/X] factor that cancels the rate from
// the waiting time in Theorem 1 is gone; modeling class i as an M/G/1
// queue emptied at rate w_i,
//
//	E[S_i] = E[W_i]·E[1/X] ≈ λ_i·E[X²]·E[1/X] / (2·w_i·(w_i − λ_iE[X]))
//
// Imposing E[S_i] = A·δ_i makes each weight the positive root of
// w² − λE[X]·w − λ·E[X²]·E[1/X]/(2Aδ) = 0, with Σw_i = 1 pinning A
// (Σw is strictly decreasing in A; solveQuadraticSharesInto finds it).
//
// Second — and decisively — the per-class drain-rate-w_i model only holds
// while the class stays backlogged. A work-conserving scheduler at
// moderate load rarely has both classes queued, so reordering alone
// yields only weak differentiation no matter the weights (Kleinrock's
// conservation law bounds what any work-conserving discipline can trade
// between classes). internal/simsrv's packetized server demonstrates
// this empirically; it is the reproduction's justification for the paper's
// non-work-conserving capacity partition, which "wastes" surplus to hold
// the slowdown gap open at every load. Use PacketizedPSD when the server
// genuinely operates near saturation; use the partitioned task-server
// model (core.PSD + simsrv.Run) for load-independent guarantees.
type PacketizedPSD struct{}

// Name implements Allocator.
func (PacketizedPSD) Name() string { return "ppsd" }

// Allocate implements Allocator.
func (p PacketizedPSD) Allocate(classes []Class, w Workload) (Allocation, error) {
	var alloc Allocation
	if err := p.AllocateInto(&alloc, classes, w); err != nil {
		return Allocation{}, err
	}
	return alloc, nil
}

// AllocateInto implements InPlaceAllocator. The share solver probes only
// the share total and allocates nothing (TestAllocateIntoNoAlloc), which
// keeps the packetized simulation's reallocation tick off the heap.
func (PacketizedPSD) AllocateInto(dst *Allocation, classes []Class, w Workload) error {
	rho, err := validateClasses(classes, w)
	if err != nil {
		return err
	}
	dst.reserve(len(classes))
	dst.Utilization = rho
	if err := solveQuadraticSharesInto(dst.Rates, classes, w, true); err != nil {
		return err
	}
	// Predicted slowdowns under the packetized model. The coefficient is
	// the per-class quadratic numerator λ_i·E[X²]·E[1/X]/2 (the only
	// difference from the PDD baseline's λ_i·E[X²]/2).
	for i, c := range classes {
		if c.Lambda == 0 {
			dst.ExpectedSlowdowns[i] = 0
			continue
		}
		coeff := c.Lambda * w.SecondMoment * w.InverseMoment / 2
		surplus := dst.Rates[i] * (dst.Rates[i] - c.Lambda*w.MeanSize)
		if surplus <= 0 {
			dst.ExpectedSlowdowns[i] = math.Inf(1)
			continue
		}
		dst.ExpectedSlowdowns[i] = coeff / surplus
	}
	return nil
}

// PacketizedSlowdown predicts the mean slowdown of class i on a
// packetized weighted server: λ·E[X²]·E[1/X] / (2·w·(w − λE[X])).
func PacketizedSlowdown(lambda float64, w Workload, weight float64) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if lambda == 0 {
		return 0, nil
	}
	if lambda < 0 || !(weight > 0) {
		return 0, fmt.Errorf("%w: lambda=%v weight=%v", ErrInfeasible, lambda, weight)
	}
	surplus := weight - lambda*w.MeanSize
	if surplus <= 0 {
		return math.Inf(1), nil
	}
	return lambda * w.SecondMoment * w.InverseMoment / (2 * weight * surplus), nil
}

// solveQuadraticSharesInto finds shares
// w_i = (b_i + √(b_i² + 4·coeff_i/(Aδ_i)))/2 summing to 1, where
// b_i = λ_iE[X], writing them into dst (len(dst) == len(classes)). Shared
// by the PDD baseline and PacketizedPSD — both impose a per-class metric
// of the form coeff_i/(w_i(w_i − b_i)) = A·δ_i; slowdownWeighted selects
// PacketizedPSD's coefficient λ_i·E[X²]·E[1/X]/2 over PDD's λ_i·E[X²]/2.
//
// Contract: the pivot A is the smallest float64 in [1e-12, 2⁵⁹] whose
// share total, as totalFor rounds it, is ≤ 1 (1e-12 when even that
// satisfies it); ErrInfeasible when the total at 2⁵⁹ is still > 1. Every
// operation in totalFor is a correctly rounded monotone one, so the total
// is weakly decreasing in A in floating point too and "> 1" flips exactly
// once along the float line; a 200-step geometric bisection of
// [1e-12, 2^k] used to come to rest on that flip, and any probe sequence
// that finds it returns the same bits. This one estimates the root
// (Newton), then searches exactly around the estimate with totalFor
// itself: ~8 probes, no allocation (dst is the only scratch). dst is
// filled once at the pivot with the coefficient arithmetic of totalFor,
// which is why seeded results are bit-identical to every earlier version.
func solveQuadraticSharesInto(dst []float64, classes []Class, w Workload, slowdownWeighted bool) error {
	active := 0
	for _, c := range classes {
		if c.Lambda > 0 {
			active++
		}
	}
	if active == 0 {
		for i := range dst {
			dst[i] = 1 / float64(len(classes))
		}
		return nil
	}
	coeff := func(c Class) float64 {
		v := c.Lambda * w.SecondMoment
		if slowdownWeighted {
			v *= w.InverseMoment
		}
		return v / 2
	}
	totalFor := func(a float64) float64 {
		total := 0.0
		for _, c := range classes {
			if c.Lambda == 0 {
				continue
			}
			b := c.Lambda * w.MeanSize
			q := coeff(c) / (a * c.Delta)
			total += (b + math.Sqrt(b*b+4*q)) / 2
		}
		return total
	}
	// Estimate. In s = 1/√A the total is G(s) = Σ(b_i + √(b_i² + k_i·s²))/2
	// with k_i = 4·coeff_i/δ_i (parked in dst): convex and increasing, so
	// Newton started right of the root descends onto it without
	// overshooting, and √(b²+ks²) ≥ √k·s puts s₀ = (2 − Σb)/Σ√k there.
	// Once a step is below 1e-8·s the next would be rounding noise.
	sumB, sumRootK := 0.0, 0.0
	for i, c := range classes {
		if c.Lambda > 0 {
			dst[i] = 4 * coeff(c) / c.Delta
			sumB += c.Lambda * w.MeanSize
			sumRootK += math.Sqrt(dst[i])
		}
	}
	s := (2 - sumB) / sumRootK
	for iter := 0; iter < 64; iter++ {
		g, slope := -1.0, 0.0
		for i, c := range classes {
			if c.Lambda > 0 {
				b, ks := c.Lambda*w.MeanSize, dst[i]*s
				r := math.Sqrt(b*b + ks*s)
				g += (b + r) / 2
				slope += ks / (2 * r)
			}
		}
		step := g / slope
		s -= step
		if !(step > 1e-8*s) {
			break
		}
	}
	// Exact search over bit patterns (ordered like the positive floats they
	// encode). The estimate only chooses where it starts: clamped into the
	// historical range (so NaN or ±Inf start at an end of it), then 1, 2,
	// 4 … ulps toward the flip until the predicate changes — 60 doublings
	// span the range — and a bisection of the two patterns until they are
	// adjacent.
	floor, ceil := math.Float64bits(1e-12), math.Float64bits(1<<59)
	over := func(u uint64) bool { return totalFor(math.Float64frombits(u)) > 1 }
	lo := max(floor, min(ceil, math.Float64bits(1/(s*s))))
	hi := lo
	if over(lo) {
		for step := uint64(1); ; step *= 2 {
			if lo == ceil {
				return fmt.Errorf("%w: share bisection failed to bracket", ErrInfeasible)
			}
			hi = lo + min(step, ceil-lo)
			if !over(hi) {
				break
			}
			lo = hi
		}
	} else {
		for step := uint64(1); hi > floor; step *= 2 {
			lo = hi - min(step, hi-floor)
			if over(lo) {
				break
			}
			hi = lo
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if over(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	pivot := math.Float64frombits(hi)
	total := 0.0
	for i, c := range classes {
		if c.Lambda == 0 {
			dst[i] = 0
			continue
		}
		b := c.Lambda * w.MeanSize
		q := coeff(c) / (pivot * c.Delta)
		dst[i] = (b + math.Sqrt(b*b+4*q)) / 2
		total += dst[i]
	}
	if total > 0 && total < 1 {
		residual := 1 - total
		for i := range dst {
			if classes[i].Lambda > 0 {
				dst[i] += residual * dst[i] / total
			}
		}
	}
	return nil
}

var _ InPlaceAllocator = PacketizedPSD{}
