package dist

import (
	"fmt"
	"math"
	"sync/atomic"

	"psd/internal/rng"
)

// BoundedPareto is the paper's heavy-tailed job-size law BP(k, p, α)
// (§4.1): a Pareto of shape α truncated to [k, p], with density
//
//	f(x) = α·k^α·x^(−α−1) / (1 − (k/p)^α),   k ≤ x ≤ p.
//
// The truncation keeps every moment finite — including E[1/X], which the
// slowdown closed form needs — while preserving the "many small jobs,
// rare huge jobs" mass profile of measured web workloads. Fields are
// read-only after construction; use NewBoundedPareto so the cached
// moments stay consistent.
type BoundedPareto struct {
	// K is the lower bound (smallest job size), k > 0.
	K float64
	// P is the upper bound (largest job size), p > k.
	P float64
	// Alpha is the tail index; smaller α means burstier sizes. The
	// untruncated Pareto's E[X] diverges for α ≤ 1 and E[X²] for α ≤ 2,
	// so α ∈ (1, 2) is the classic heavy-tail regime.
	Alpha float64

	mean, second, inverse float64
	trunc                 float64 // 1 − (k/p)^α, the mass the truncation keeps

	// zig is the sampling table, built by the first Sample and shared
	// by every later one. Behind a pointer because most values are only
	// ever asked for their moments (a capacity sweep constructs
	// thousands and samples none), and atomic because replication
	// workers may race that first Sample.
	zig atomic.Pointer[bpZiggurat]
}

// NewBoundedPareto constructs BP(k, p, alpha) and precomputes its
// moments. It requires 0 < k < p and alpha > 0, all finite.
func NewBoundedPareto(k, p, alpha float64) (*BoundedPareto, error) {
	if err := checkParam("Bounded Pareto lower bound k", k); err != nil {
		return nil, err
	}
	if err := checkParam("Bounded Pareto upper bound p", p); err != nil {
		return nil, err
	}
	if err := checkParam("Bounded Pareto shape alpha", alpha); err != nil {
		return nil, err
	}
	if !(k < p) {
		return nil, fmt.Errorf("dist: Bounded Pareto bounds k=%v < p=%v required", k, p)
	}
	d := &BoundedPareto{K: k, P: p, Alpha: alpha}
	d.trunc = 1 - math.Pow(k/p, alpha)
	d.mean = d.moment(1)
	d.second = d.moment(2)
	d.inverse = d.moment(-1)
	// A Bounded Pareto's E[1/X] is always finite in exact arithmetic
	// (the truncation at k bounds it), so +Inf here can only be
	// overflow, never true divergence — reject it on top of the shared
	// mean/second-moment guard.
	if math.IsInf(d.inverse, 1) {
		return nil, fmt.Errorf("dist: %s moments overflow float64 (E[1/X]=%v)", d, d.inverse)
	}
	if _, err := checkMoments(d); err != nil {
		return nil, err
	}
	return d, nil
}

// MustBoundedPareto is NewBoundedPareto that panics on invalid
// parameters; for tests and package-level defaults.
func MustBoundedPareto(k, p, alpha float64) *BoundedPareto {
	d, err := NewBoundedPareto(k, p, alpha)
	if err != nil {
		panic(err)
	}
	return d
}

// PaperDefault returns the paper's M/G_B/1 workload BP(k=0.1, p=100,
// α=1.5): mean ≈ 0.2905 work units with a three-decade size spread.
//
// Every call returns the same read-only value, so the many configs that
// default to it share one sampling table.
func PaperDefault() *BoundedPareto { return paperDefault }

var paperDefault = MustBoundedPareto(0.1, 100, 1.5)

// moment returns E[X^n] in closed form:
//
//	E[X^n] = α·k^α/(1−(k/p)^α) · (p^(n−α) − k^(n−α))/(n−α),   n ≠ α
//	E[X^α] = α·k^α/(1−(k/p)^α) · ln(p/k)                      (n = α)
//
// The n = α branch is the limit of the first as n → α and covers the
// paper's sensitivity sweeps, which include α = 1 (mean) and α = 2
// (second moment) exactly.
func (d *BoundedPareto) moment(n float64) float64 {
	coeff := d.Alpha * math.Pow(d.K, d.Alpha) / d.trunc
	if n == d.Alpha {
		return coeff * math.Log(d.P/d.K)
	}
	return coeff * (math.Pow(d.P, n-d.Alpha) - math.Pow(d.K, n-d.Alpha)) / (n - d.Alpha)
}

// Mean returns E[X].
func (d *BoundedPareto) Mean() float64 { return d.mean }

// SecondMoment returns E[X²].
func (d *BoundedPareto) SecondMoment() float64 { return d.second }

// InverseMoment returns E[1/X]; the lower truncation at k > 0 keeps it
// finite for every valid parameterization.
func (d *BoundedPareto) InverseMoment() float64 { return d.inverse }

// Sample draws one size by exact rejection from a 256-layer ziggurat of
// the law's own density (see bpZiggurat): one Uint64, one multiply and
// one compare on ~97 % of draws; in a wedge, a tangent and a chord decide
// ~98 % of points, and Pow is called only for the rest and for the tail.
// The number of Uint64s a draw consumes therefore varies; the sequence
// for a given seed does not.
func (d *BoundedPareto) Sample(src *rng.Source) float64 {
	z := d.zig.Load()
	if z == nil {
		z = d.buildZiggurat()
	}
	b := src.Uint64()
	i := b & (bpLayers - 1)
	dx := rng.Unit53(b) * z.w[i]
	if dx < z.w[i+1] {
		return d.K + dx
	}
	return d.sampleSlow(z, src, b)
}

// Fill is Sample over dst, the fast path inline.
func (d *BoundedPareto) Fill(src *rng.Source, dst []float64) {
	z := d.zig.Load()
	if z == nil {
		z = d.buildZiggurat()
	}
	k := d.K
	for j := range dst {
		b := src.Uint64()
		i := b & (bpLayers - 1)
		if dx := rng.Unit53(b) * z.w[i]; dx < z.w[i+1] {
			dst[j] = k + dx
		} else {
			dst[j] = d.sampleSlow(z, src, b)
		}
	}
}

// Scaled returns this law under Lemma 2's capacity transform: job sizes
// divided by rate, as seen by a server of that capacity.
func (d *BoundedPareto) Scaled(rate float64) (Distribution, error) {
	return NewScaled(d, rate)
}

func (d *BoundedPareto) String() string {
	return fmt.Sprintf("BoundedPareto(k=%g, p=%g, alpha=%g)", d.K, d.P, d.Alpha)
}
