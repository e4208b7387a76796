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

// LognormalFromMoments returns the lognormal with the given mean and
// squared coefficient of variation (SCV = Var[X]/E[X]²), the
// parameterization workload studies usually report: sigma² = ln(1+scv),
// mu = ln(mean) − sigma²/2.
func LognormalFromMoments(mean, scv float64) (Distribution, error) {
	if err := checkParam("lognormal mean", mean); err != nil {
		return nil, err
	}
	if err := checkParam("lognormal scv", scv); err != nil {
		return nil, err
	}
	s2 := math.Log1p(scv)
	return NewLognormal(math.Log(mean)-s2/2, math.Sqrt(s2))
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

func (d lognormal) String() string {
	return fmt.Sprintf("Lognormal(mu=%g, sigma=%g)", d.mu, d.sigma)
}

// weibull is the Weibull law with the given shape and scale.
type weibull struct {
	shape, scale float64
}

// NewWeibull returns the Weibull law with CDF 1 − exp(−(x/scale)^shape).
// Shape < 1 gives a subexponential (heavy) tail, shape = 1 the
// exponential, shape > 1 lighter-than-exponential tails. Moments:
//
//	E[X^n] = scale^n · Γ(1 + n/shape)
//
// E[1/X] requires shape > 1; below that the density's pole-free but
// heavy concentration near zero makes the integral diverge and
// InverseMoment returns +Inf.
func NewWeibull(shape, scale float64) (Distribution, error) {
	if err := checkParam("Weibull shape", shape); err != nil {
		return nil, err
	}
	if err := checkParam("Weibull scale", scale); err != nil {
		return nil, err
	}
	return checkMoments(weibull{shape: shape, scale: scale})
}

func (d weibull) Mean() float64 {
	return d.scale * math.Gamma(1+1/d.shape)
}

func (d weibull) SecondMoment() float64 {
	return d.scale * d.scale * math.Gamma(1+2/d.shape)
}

func (d weibull) InverseMoment() float64 {
	// E[X^t] = scale^t·Γ(1+t/shape) only converges for t > −shape, so
	// t = −1 needs shape > 1 (Γ alone would evaluate to a misleading
	// finite value for shape < 1).
	if d.shape <= 1 {
		return math.Inf(1)
	}
	return math.Gamma(1-1/d.shape) / d.scale
}

// Sample transforms a unit exponential E (strictly positive, so the
// result is too): x = scale·E^(1/shape).
func (d weibull) Sample(src *rng.Source) float64 {
	return d.scale * math.Pow(src.ExpFloat64(1), 1/d.shape)
}

func (d weibull) String() string {
	return fmt.Sprintf("Weibull(shape=%g, scale=%g)", d.shape, d.scale)
}
