package dist

import (
	"fmt"
	"math"

	"psd/internal/rng"
)

// lognormal is exp(N(mu, sigma²)): log-scale location mu, shape sigma.
type lognormal struct {
	mu, sigma float64
}

// NewLognormal returns the lognormal law whose logarithm is
// N(mu, sigma²). Measured web object sizes are often lognormal in the
// body even when Pareto in the tail, making this the standard
// moderate-variance alternative to Bounded Pareto. All three moments
// are finite for every parameterization:
//
//	E[X^n] = exp(n·mu + n²·sigma²/2)  (n = 1, 2, −1)
//
// mu may be any finite real (it is a log-scale location, not a size);
// sigma must be positive and finite.
func NewLognormal(mu, sigma float64) (Distribution, error) {
	if math.IsInf(mu, 0) || math.IsNaN(mu) {
		return nil, fmt.Errorf("dist: lognormal mu %v must be finite", mu)
	}
	if err := checkParam("lognormal sigma", sigma); err != nil {
		return nil, err
	}
	return checkMoments(lognormal{mu: mu, sigma: sigma})
}

func (d lognormal) Mean() float64 {
	return math.Exp(d.mu + d.sigma*d.sigma/2)
}

func (d lognormal) SecondMoment() float64 {
	return math.Exp(2*d.mu + 2*d.sigma*d.sigma)
}

func (d lognormal) InverseMoment() float64 {
	// 1/X is lognormal(−mu, sigma): the inverse moment mirrors the mean.
	return math.Exp(-d.mu + d.sigma*d.sigma/2)
}

// Sample exponentiates a normal variate: x = exp(mu + sigma·Z).
func (d lognormal) Sample(src *rng.Source) float64 {
	return math.Exp(d.mu + d.sigma*src.NormFloat64())
}

func (d lognormal) Fill(src *rng.Source, dst []float64) {
	for j := range dst {
		dst[j] = d.Sample(src)
	}
}

func (d lognormal) String() string {
	return fmt.Sprintf("Lognormal(mu=%g, sigma=%g)", d.mu, d.sigma)
}
