// Package stats provides the streaming and batch statistics used by the
// simulation harness: numerically stable moments (Welford), exact and
// streaming quantiles, and normal-approximation confidence intervals.
// (Histograms live in internal/obs.)
//
// Welford is the one run-level moment type. A hot path that records a
// value per request (the simulator's completions) adds into a Window
// instead — adds and compares, no division — and folds it into a
// Welford once per batch (a control window), by the pairwise update.
// The batch's own mean, read just before the fold, is the per-window
// series of §4.1 ("measured for every thousand time units"): there is
// no second, per-value series.
//
// Heavy-tailed slowdown data is the common case here, so the quantile
// machinery is designed for values spanning several orders of magnitude.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty reports a statistic requested over zero observations.
var ErrEmpty = errors.New("stats: no observations")

// Welford accumulates count, mean and variance in a single pass using
// Welford's numerically stable recurrence. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (NaN when empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance (NaN when n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (NaN when empty).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation (NaN when empty).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.Std() / math.Sqrt(float64(w.n))
}

// ConfidenceInterval returns the normal-approximation CI half-width for the
// mean at the given confidence level (e.g. 0.95). With the 100-replication
// design of the paper the normal approximation is comfortably valid.
func (w *Welford) ConfidenceInterval(level float64) float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return zQuantile(0.5+level/2) * w.StdErr()
}

// Window accumulates a batch of observations with adds and compares only,
// for a hot path that cannot afford Welford.Add's division per value:
// the count, the extremes, Σx, and Σ(x − K) and Σ(x − K)² about a shift
// K, the batch's first value. FoldInto merges the batch into a
// Welford, dividing once per batch. The zero value is an empty batch.
//
// The mean comes from Σx, which cannot cancel over values of one sign,
// rather than from K + Σ(x − K)/n, which cancels when K is an outlier
// (a batch of equal values takes K itself, exactly); the second moment
// comes from the shifted sums, which cannot cancel when the values sit
// far from zero but close to each other.
type Window struct {
	n        int64
	k        float64 // the shift: the batch's first value
	sum      float64 // Σx
	s1, s2   float64 // Σ(x − k), Σ(x − k)²
	min, max float64
}

// Add incorporates one observation.
func (b *Window) Add(x float64) {
	if b.n == 0 {
		b.k, b.min, b.max = x, x, x
	}
	b.n++
	b.sum += x
	d := x - b.k
	b.s1 += d
	b.s2 += d * d
	if x < b.min {
		b.min = x
	}
	if x > b.max {
		b.max = x
	}
}

// Mean returns the batch's Σx/n (NaN when empty).
func (b *Window) Mean() float64 {
	if b.n == 0 {
		return math.NaN()
	}
	return b.sum / float64(b.n)
}

// FoldInto merges the batch into w by the pairwise update of Chan,
// Golub & LeVeque (1979) and empties the batch.
func (b *Window) FoldInto(w *Welford) {
	if b.n == 0 {
		return
	}
	nb := float64(b.n)
	mb := b.k
	if b.s2 != 0 {
		mb = b.sum / nb
	}
	// K is one of the values, so the exact difference is at least
	// Σ(x − K)²/(n+1): rounding can cross zero only in batches of ~1e8.
	m2b := max(b.s2-b.s1*(b.s1/nb), 0)
	if w.n == 0 {
		w.n, w.mean, w.m2, w.min, w.max = b.n, mb, m2b, b.min, b.max
	} else {
		na := float64(w.n)
		n := na + nb
		delta := mb - w.mean
		w.n += b.n
		w.mean += delta * (nb / n)
		w.m2 += m2b + delta*delta*(na*nb/n)
		w.min = min(w.min, b.min)
		w.max = max(w.max, b.max)
	}
	*b = Window{}
}

// zQuantile returns the standard normal quantile via the
// Beasley-Springer-Moro rational approximation (|error| < 1e-9 over the
// central range, ample for CI reporting).
func zQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients from Moro (1995).
	a := [4]float64{2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637}
	b := [4]float64{-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833}
	c := [9]float64{
		0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
		0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
		0.0000321767881768, 0.0000002888167364, 0.0000003960315187,
	}
	y := p - 0.5
	if math.Abs(y) < 0.42 {
		r := y * y
		num := y * (((a[3]*r+a[2])*r+a[1])*r + a[0])
		den := (((b[3]*r+b[2])*r+b[1])*r+b[0])*r + 1
		return num / den
	}
	r := p
	if y > 0 {
		r = 1 - p
	}
	r = math.Log(-math.Log(r))
	x := c[0]
	pow := 1.0
	for i := 1; i < 9; i++ {
		pow *= r
		x += c[i] * pow
	}
	if y < 0 {
		return -x
	}
	return x
}

// QuantileSorted returns the q-th quantile of an already-sorted slice
// (linear interpolation between order statistics, the "type 7"
// estimator).
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	idx := q * float64(n-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Quantiles returns several quantiles in one sort pass.
func Quantiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = QuantileSorted(sorted, q)
	}
	return out, nil
}

// Summary captures the five-number-plus-moments description used in
// experiment reports.
type Summary struct {
	N             int64
	Mean, Std     float64
	Min, Max      float64
	P05, P50, P95 float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	qs, err := Quantiles(xs, 0.05, 0.50, 0.95)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		N: w.N(), Mean: w.Mean(), Std: w.Std(),
		Min: w.Min(), Max: w.Max(),
		P05: qs[0], P50: qs[1], P95: qs[2],
	}, nil
}
