package dist

import (
	"fmt"
	"math"

	"psd/internal/rng"
)

// empirical resamples a fixed trace of observed job sizes.
type empirical struct {
	sizes                 []float64
	mean, second, inverse float64
}

// NewEmpirical returns the trace-driven law that draws uniformly from
// the given observed sizes (bootstrap resampling). Its moments are the
// exact sample moments of the trace — the allocator then differentiates
// against precisely the workload that was measured, with no fitting
// error. The slice is copied; every size must be positive and finite.
func NewEmpirical(sizes []float64) (Distribution, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("dist: empirical trace must be non-empty")
	}
	d := &empirical{sizes: make([]float64, len(sizes))}
	var sum, sum2, sumInv float64
	for i, x := range sizes {
		if !(x > 0) || math.IsInf(x, 0) || math.IsNaN(x) {
			return nil, fmt.Errorf("dist: empirical size [%d] %v must be positive and finite", i, x)
		}
		d.sizes[i] = x
		sum += x
		sum2 += x * x
		sumInv += 1 / x
	}
	n := float64(len(sizes))
	d.mean = sum / n
	d.second = sum2 / n
	d.inverse = sumInv / n
	return checkMoments(d)
}

func (d *empirical) Mean() float64          { return d.mean }
func (d *empirical) SecondMoment() float64  { return d.second }
func (d *empirical) InverseMoment() float64 { return d.inverse }

func (d *empirical) Sample(src *rng.Source) float64 {
	return d.sizes[src.Intn(len(d.sizes))]
}

func (d *empirical) Fill(src *rng.Source, dst []float64) {
	for j := range dst {
		dst[j] = d.Sample(src)
	}
}

func (d *empirical) String() string {
	return fmt.Sprintf("Empirical(n=%d, mean=%.4g)", len(d.sizes), d.mean)
}
