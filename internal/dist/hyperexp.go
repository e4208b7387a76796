package dist

import (
	"fmt"
	"math"

	"psd/internal/rng"
)

// hyperExp2 mixes two exponential phases: rate mu1 with probability p1,
// rate mu2 otherwise.
type hyperExp2 struct {
	p1, mu1, mu2 float64
	mean, scv    float64
}

// NewHyperExp2 returns a two-phase hyperexponential H2 matched to the
// given mean and squared coefficient of variation (SCV ≥ 1) by the
// standard balanced-means fit (each phase contributes half the mean):
//
//	p1 = (1 + √((scv−1)/(scv+1)))/2,  p2 = 1 − p1,  muᵢ = 2pᵢ/mean
//
// H2 is the workhorse model for high-variance traffic that is not
// Pareto-shaped: it hits any SCV ≥ 1 exactly (scv = 1 degenerates to
// the exponential) while staying analytically tractable. Like the
// exponential, its density is positive at the origin, so E[1/X]
// diverges and InverseMoment returns +Inf: use it to drive simulations
// and estimators, not the closed-form allocator.
func NewHyperExp2(mean, scv float64) (Distribution, error) {
	if err := checkParam("hyperexponential mean", mean); err != nil {
		return nil, err
	}
	if math.IsNaN(scv) || math.IsInf(scv, 0) || scv < 1 {
		return nil, fmt.Errorf("dist: hyperexponential scv %v must be finite and >= 1 (use Lognormal or Uniform for scv < 1)", scv)
	}
	eta := math.Sqrt((scv - 1) / (scv + 1))
	p1 := (1 + eta) / 2
	// At astronomically large SCV, eta rounds to exactly 1 and the slow
	// phase vanishes (p1 = 1, mu2 = 0): the sampler would silently stop
	// matching the analytic moments. Reject rather than degenerate.
	if p1 >= 1 {
		return nil, fmt.Errorf("dist: hyperexponential scv %v too large to represent in float64", scv)
	}
	return checkMoments(hyperExp2{
		p1:   p1,
		mu1:  2 * p1 / mean,
		mu2:  2 * (1 - p1) / mean,
		mean: mean,
		scv:  scv,
	})
}

func (d hyperExp2) Mean() float64 { return d.mean }

func (d hyperExp2) SecondMoment() float64 {
	// The balanced-means fit matches the target SCV exactly:
	// E[X²] = (1 + scv)·mean².
	return (1 + d.scv) * d.mean * d.mean
}

func (d hyperExp2) InverseMoment() float64 { return math.Inf(1) }

// Sample draws the phase then the (strictly positive) exponential
// within it.
func (d hyperExp2) Sample(src *rng.Source) float64 {
	mu := d.mu2
	if src.Float64() < d.p1 {
		mu = d.mu1
	}
	return src.ExpFloat64(mu)
}

func (d hyperExp2) Fill(src *rng.Source, dst []float64) {
	for j := range dst {
		dst[j] = d.Sample(src)
	}
}

func (d hyperExp2) String() string {
	return fmt.Sprintf("HyperExp2(mean=%g, scv=%g)", d.mean, d.scv)
}
