// Package queueing implements the closed-form M/G/1 results the paper's
// rate-allocation strategy is built on: the Pollaczek–Khinchin waiting
// time, the expected slowdown of an M/G_B/1 FCFS queue (Lemma 1), its
// scaling under proportional capacity allocation (Lemma 2 / Theorem 1),
// and the M/D/1 special case (Eq. 15).
//
// Conventions: job sizes are expressed in work units; a server (or task
// server) of rate r drains r work units per time unit. All formulas
// require stability (λ·E[X] < r) and return ErrUnstable otherwise.
package queueing

import (
	"errors"
	"fmt"
	"math"

	"psd/internal/dist"
)

// ErrUnstable reports a queue whose offered load meets or exceeds its
// capacity, for which no steady state exists.
var ErrUnstable = errors.New("queueing: offered load >= capacity (unstable queue)")

// ErrDivergent reports a metric with no finite value under the given
// service distribution (e.g. slowdown when E[1/X] diverges).
var ErrDivergent = errors.New("queueing: metric diverges for this service distribution")

// PKWait returns the Pollaczek–Khinchin mean waiting time of an M/G/1 FCFS
// queue with arrival rate λ and service times drawn from d, served at unit
// rate:
//
//	E[W] = λ E[X²] / (2 (1 − λE[X]))
func PKWait(lambda float64, d dist.Distribution) (float64, error) {
	return PKWaitRate(lambda, d, 1)
}

// PKWaitRate is PKWait for a server of capacity rate: job sizes are scaled
// by 1/rate (Lemma 2) before applying the P-K formula.
func PKWaitRate(lambda float64, d dist.Distribution, rate float64) (float64, error) {
	if err := validate(lambda, rate); err != nil {
		return 0, err
	}
	rho := lambda * d.Mean() / rate
	if rho >= 1 {
		return 0, fmt.Errorf("%w: rho=%v", ErrUnstable, rho)
	}
	m2 := d.SecondMoment() / (rate * rate)
	return lambda * m2 / (2 * (1 - rho)), nil
}

// ExpectedSlowdown returns Lemma 1 of the paper: the mean slowdown
// E[S] = E[W]·E[1/X] of an M/G/1 FCFS queue at unit rate. FCFS makes a
// job's waiting time independent of its own service time, so the
// expectation factorizes.
func ExpectedSlowdown(lambda float64, d dist.Distribution) (float64, error) {
	return TaskServerSlowdown(lambda, d, 1)
}

// TaskServerSlowdown returns Theorem 1 of the paper: the mean slowdown of
// class-i requests on a task server with normalized capacity rate, where
// jobs arrive Poisson(λ) with sizes from d (sizes measured against the
// full server's unit rate):
//
//	E[S] = λ E[X²] E[1/X] / (2 (rate − λE[X]))
//
// Note the combination of Lemma 1 and Lemma 2: the rate enters only
// through the surplus capacity (rate − λE[X]).
func TaskServerSlowdown(lambda float64, d dist.Distribution, rate float64) (float64, error) {
	s, err := TaskServerSlowdownMoments(lambda, d.Mean(), d.SecondMoment(), d.InverseMoment(), rate)
	if errors.Is(err, ErrDivergent) {
		err = fmt.Errorf("%w: E[1/X] does not exist for %s", ErrDivergent, d)
	}
	return s, err
}

// TaskServerSlowdownMoments is TaskServerSlowdown for a law given by its
// moments E[X], E[X²] and E[1/X]: the one implementation of Theorem 1,
// for callers that hold the moments already.
func TaskServerSlowdownMoments(lambda, mean, second, inverse, rate float64) (float64, error) {
	if err := validate(lambda, rate); err != nil {
		return 0, err
	}
	if math.IsInf(inverse, 1) || math.IsNaN(inverse) {
		return 0, fmt.Errorf("%w: E[1/X] = %v", ErrDivergent, inverse)
	}
	if lambda == 0 {
		return 0, nil
	}
	surplus := rate - lambda*mean
	if surplus <= 0 {
		return 0, fmt.Errorf("%w: rate=%v demand=%v", ErrUnstable, rate, lambda*mean)
	}
	return lambda * second * inverse / (2 * surplus), nil
}

// MD1Slowdown returns Eq. 15 of the paper: the mean slowdown of an M/D/1
// FCFS queue with constant job size xbar on a task server of capacity
// rate:
//
//	E[S] = λ·x̄ / (2 (rate − λ·x̄))
func MD1Slowdown(lambda, xbar, rate float64) (float64, error) {
	if err := validate(lambda, rate); err != nil {
		return 0, err
	}
	if !(xbar > 0) {
		return 0, fmt.Errorf("queueing: job size %v must be positive", xbar)
	}
	if lambda == 0 {
		return 0, nil
	}
	surplus := rate - lambda*xbar
	if surplus <= 0 {
		return 0, fmt.Errorf("%w: rate=%v demand=%v", ErrUnstable, rate, lambda*xbar)
	}
	return lambda * xbar / (2 * surplus), nil
}

// MM1Wait returns the M/M/1 FCFS mean waiting time λ/(μ(μ−λ)) for
// cross-checking the DES engine against textbook results (service rate μ
// jobs per time unit at unit capacity).
func MM1Wait(lambda, mu float64) (float64, error) {
	if err := validate(lambda, 1); err != nil {
		return 0, err
	}
	if !(mu > 0) {
		return 0, fmt.Errorf("queueing: service rate %v must be positive", mu)
	}
	if lambda >= mu {
		return 0, fmt.Errorf("%w: lambda=%v mu=%v", ErrUnstable, lambda, mu)
	}
	return lambda / (mu * (mu - lambda)), nil
}

// SlowdownConstant returns C = E[X²]·E[1/X]/2, the distribution-dependent
// constant that multiplies the load term in Theorem 1 and Eq. 18. It is
// the quantity the rate allocator needs from the workload model.
func SlowdownConstant(d dist.Distribution) (float64, error) {
	inv := d.InverseMoment()
	if math.IsInf(inv, 1) || math.IsNaN(inv) {
		return 0, fmt.Errorf("%w: E[1/X] does not exist for %s", ErrDivergent, d)
	}
	return d.SecondMoment() * inv / 2, nil
}

func validate(lambda, rate float64) error {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return fmt.Errorf("queueing: arrival rate %v must be finite and non-negative", lambda)
	}
	if !(rate > 0) || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("queueing: capacity %v must be positive and finite", rate)
	}
	return nil
}
