package dist

import (
	"fmt"
	"math"

	"psd/internal/rng"
)

// deterministic is the point mass at v: the M/D/1 workload of Eq. 15.
type deterministic struct {
	v float64
}

// NewDeterministic returns the degenerate law P[X = v] = 1. Its moments
// are exact (E[X] = v, E[X²] = v², E[1/X] = 1/v) and Theorem 1 applied
// to it reduces to the paper's M/D/1 special case.
func NewDeterministic(v float64) (Distribution, error) {
	if err := checkParam("deterministic size", v); err != nil {
		return nil, err
	}
	return checkMoments(deterministic{v: v})
}

func (d deterministic) Mean() float64          { return d.v }
func (d deterministic) SecondMoment() float64  { return d.v * d.v }
func (d deterministic) InverseMoment() float64 { return 1 / d.v }

// Sample returns v without consuming the source, so a deterministic
// component never perturbs sibling streams.
func (d deterministic) Sample(*rng.Source) float64 { return d.v }

func (d deterministic) Fill(_ *rng.Source, dst []float64) {
	for j := range dst {
		dst[j] = d.v
	}
}

func (d deterministic) String() string { return fmt.Sprintf("Deterministic(%g)", d.v) }

// exponential is the memoryless law with service rate mu (mean 1/mu),
// the M/M/1 cross-check workload.
type exponential struct {
	mu float64
}

// NewExponential returns the exponential law with rate mu, i.e. mean
// 1/mu. Note E[1/X] = ∫ (1/x)·mu·e^(−mu·x) dx diverges at the origin:
// arbitrarily small jobs make expected slowdown infinite, which is
// precisely why the paper bounds its Pareto below at k.
func NewExponential(mu float64) (Distribution, error) {
	if err := checkParam("exponential rate", mu); err != nil {
		return nil, err
	}
	return checkMoments(exponential{mu: mu})
}

func (d exponential) Mean() float64          { return 1 / d.mu }
func (d exponential) SecondMoment() float64  { return 2 / (d.mu * d.mu) }
func (d exponential) InverseMoment() float64 { return math.Inf(1) }

// Sample is the Source's exponential, which is strictly positive (a
// zero job size would poison downstream 1/x slowdown statistics).
func (d exponential) Sample(src *rng.Source) float64 { return src.ExpFloat64(d.mu) }

// Fill divides unit exponentials by the rate, as ExpFloat64 does.
func (d exponential) Fill(src *rng.Source, dst []float64) {
	src.FillExp(dst)
	for j := range dst {
		dst[j] /= d.mu
	}
}

func (d exponential) String() string { return fmt.Sprintf("Exponential(rate=%g)", d.mu) }

// uniform is the continuous uniform on [a, b].
type uniform struct {
	a, b float64
}

// NewUniform returns the uniform law on [a, b], 0 < a < b. The strictly
// positive lower bound keeps E[1/X] = ln(b/a)/(b−a) finite.
func NewUniform(a, b float64) (Distribution, error) {
	if err := checkParam("uniform lower bound", a); err != nil {
		return nil, err
	}
	if err := checkParam("uniform upper bound", b); err != nil {
		return nil, err
	}
	if !(a < b) {
		return nil, fmt.Errorf("dist: uniform bounds a=%v < b=%v required", a, b)
	}
	return checkMoments(uniform{a: a, b: b})
}

func (d uniform) Mean() float64 { return (d.a + d.b) / 2 }

func (d uniform) SecondMoment() float64 {
	return (d.a*d.a + d.a*d.b + d.b*d.b) / 3
}

func (d uniform) InverseMoment() float64 {
	return math.Log(d.b/d.a) / (d.b - d.a)
}

func (d uniform) Sample(src *rng.Source) float64 {
	return d.a + (d.b-d.a)*src.Float64()
}

func (d uniform) Fill(src *rng.Source, dst []float64) {
	for j := range dst {
		dst[j] = d.Sample(src)
	}
}

func (d uniform) String() string { return fmt.Sprintf("Uniform[%g, %g]", d.a, d.b) }
