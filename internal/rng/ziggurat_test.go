package rng

import (
	"math"
	"sort"
	"testing"
)

// ksDistance returns the Kolmogorov–Smirnov distance between the sample
// (sorted in place) and the continuous CDF.
func ksDistance(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	d := 0.0
	for i, x := range xs {
		f := cdf(x)
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	return d
}

// within4SE fails unless the sample mean of n draws with the given
// analytic mean and variance is within four standard errors.
func within4SE(t *testing.T, label string, sum float64, n int, mean, variance float64) {
	t.Helper()
	got := sum / float64(n)
	se := math.Sqrt(variance / float64(n))
	if math.Abs(got-mean) > 4*se {
		t.Errorf("%s = %v, want %v ± %v (4·SE)", label, got, mean, 4*se)
	}
}

// TestZigguratClosure re-derives both tables' invariants: the common
// area, equal-area layers, heights that are the density at the edges,
// and a stack that ends at the mode.
func TestZigguratClosure(t *testing.T) {
	for _, tc := range []struct {
		name    string
		z       *ziggurat
		r, tail float64
		f       func(float64) float64
	}{
		{"exponential", &expZig, expR, math.Exp(-expR), func(x float64) float64 { return math.Exp(-x) }},
		{"normal", &normZig, normR, math.Sqrt(math.Pi/2) * math.Erfc(normR/math.Sqrt2), func(x float64) float64 { return math.Exp(-x * x / 2) }},
	} {
		z := tc.z
		v := tc.r*tc.f(tc.r) + tc.tail
		if z.x[1] != tc.r || z.x[zigLayers] != 0 || z.y[0] != 0 || z.y[zigLayers] != 1 {
			t.Errorf("%s: table ends x[1]=%v x[N]=%v y[0]=%v y[N]=%v", tc.name, z.x[1], z.x[zigLayers], z.y[0], z.y[zigLayers])
		}
		if got := z.x[0] * z.y[1]; math.Abs(got-v)/v > 1e-12 {
			t.Errorf("%s: base layer area %v, want %v", tc.name, got, v)
		}
		for i := 1; i < zigLayers; i++ {
			if !(z.x[i+1] < z.x[i]) || !(z.y[i+1] > z.y[i]) {
				t.Fatalf("%s: layer %d not monotone", tc.name, i)
			}
			if area := z.x[i] * (z.y[i+1] - z.y[i]); math.Abs(area-v)/v > 1e-12 {
				t.Errorf("%s: layer %d area %v, want %v", tc.name, i, area, v)
			}
			if math.Abs(z.y[i]-tc.f(z.x[i]))/z.y[i] > 1e-12 {
				t.Errorf("%s: y[%d] = %v is not f(x[%d]) = %v", tc.name, i, z.y[i], i, tc.f(z.x[i]))
			}
		}
	}
}

// TestExpFloat64Exact: the ziggurat exponential is the exponential law,
// not an approximation of it — KS against the closed-form CDF, the first
// two moments, the mass beyond the base edge R (the part drawn by the
// tail recursion) and strict positivity.
func TestExpFloat64Exact(t *testing.T) {
	const n = 2_000_000
	const rate = 2.5
	for _, seed := range []uint64{6, 61} {
		r := New(seed)
		xs := make([]float64, n)
		var sum, sumSq float64
		tail := 0
		for i := range xs {
			x := r.ExpFloat64(rate)
			if !(x > 0) || math.IsInf(x, 0) {
				t.Fatalf("seed %d: draw %v not in (0, ∞)", seed, x)
			}
			xs[i] = x
			sum += x
			sumSq += x * x
			if x*rate > expR {
				tail++
			}
		}
		if d := ksDistance(xs, func(x float64) float64 { return -math.Expm1(-rate * x) }); d*math.Sqrt(n) >= 1.63 {
			t.Errorf("seed %d: KS·√n = %v, want < 1.63", seed, d*math.Sqrt(n))
		}
		m := 1 / rate
		within4SE(t, "E[X]", sum, n, m, m*m)
		within4SE(t, "E[X²]", sumSq, n, 2*m*m, 20*m*m*m*m) // Var[X²] = 4!/λ⁴ − (2/λ²)²
		p := math.Exp(-expR)
		within4SE(t, "P[X > R]", float64(tail), n, p, p*(1-p))
	}
}

// TestNormFloat64Exact is the same gate for the standard normal.
func TestNormFloat64Exact(t *testing.T) {
	const n = 2_000_000
	for _, seed := range []uint64{8, 81} {
		r := New(seed)
		xs := make([]float64, n)
		var sum, sumSq float64
		tail, neg := 0, 0
		for i := range xs {
			x := r.NormFloat64()
			xs[i] = x
			sum += x
			sumSq += x * x
			if math.Abs(x) > normR {
				tail++
			}
			if x < 0 {
				neg++
			}
		}
		if d := ksDistance(xs, func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }); d*math.Sqrt(n) >= 1.63 {
			t.Errorf("seed %d: KS·√n = %v, want < 1.63", seed, d*math.Sqrt(n))
		}
		within4SE(t, "E[Z]", sum, n, 0, 1)
		within4SE(t, "E[Z²]", sumSq, n, 1, 2)
		p := math.Erfc(normR / math.Sqrt2)
		within4SE(t, "P[|Z| > R]", float64(tail), n, p, p*(1-p))
		within4SE(t, "P[Z < 0]", float64(neg), n, 0.5, 0.25)
	}
}

// TestVariatesReproducibleAndAllocFree: a draw consumes a variable
// number of words, but the sequence is a function of the seed alone, and
// no path allocates.
func TestVariatesReproducibleAndAllocFree(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 100_000; i++ {
		if x, y := a.ExpFloat64(1), b.ExpFloat64(1); x != y {
			t.Fatalf("draw %d: exponential %v != %v", i, x, y)
		}
		if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
			t.Fatalf("draw %d: normal %v != %v", i, x, y)
		}
	}
	var sink float64
	if allocs := testing.AllocsPerRun(10_000, func() { sink += a.ExpFloat64(1) + a.NormFloat64() }); allocs != 0 {
		t.Errorf("%v allocs per draw, want 0", allocs)
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}
