package dist

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"psd/internal/rng"
)

// invertReference is the sampler the ziggurat replaced, kept here as the
// independent reference: x = k·(1 − u·D)^(−1/α), D = 1 − (k/p)^α.
func invertReference(d *BoundedPareto, u float64) float64 {
	return d.K * math.Pow(1-u*(1-math.Pow(d.K/d.P, d.Alpha)), -1/d.Alpha)
}

// bpCDF is the closed-form F(x) = (1 − (k/x)^α)/(1 − (k/p)^α).
func bpCDF(d *BoundedPareto, x float64) float64 {
	return (1 - math.Pow(d.K/x, d.Alpha)) / (1 - math.Pow(d.K/d.P, d.Alpha))
}

// TestBoundedParetoSampleExact is the gate on the rejection sampler: for
// every shape and spread the figures and tests use, and some they do not,
// a fixed-seed sample of 10⁶ must (a) stay inside [k, p], (b) sit within
// the 1 % Kolmogorov–Smirnov band of the closed-form CDF, and (c)
// reproduce the three moments the allocator consumes — E[X], E[X²],
// E[1/X] — within four standard errors, the standard error taken from
// the law's own closed-form variance (a sample variance under α ≤ 2 is
// itself heavy-tailed). p/k = 4 laws have no ziggurat and take the
// inversion fallback; the gate is the same.
func TestBoundedParetoSampleExact(t *testing.T) {
	const n = 1_000_000
	const k = 0.1
	seed := uint64(0)
	for _, alpha := range []float64{1, 1.1, 1.5, 2, 3} {
		for _, spread := range []float64{4, 1e3, 1e6} {
			d := MustBoundedPareto(k, k*spread, alpha)
			seed++
			t.Run(fmt.Sprintf("alpha=%g,p/k=%g", alpha, spread), func(t *testing.T) {
				src := rng.New(seed)
				xs := make([]float64, n)
				var sums [3]float64
				powers := [3]float64{1, 2, -1}
				for i := range xs {
					x := d.Sample(src)
					if x < d.K || x > d.P {
						t.Fatalf("draw %d = %v outside [%v, %v]", i, x, d.K, d.P)
					}
					xs[i] = x
					sums[0] += x
					sums[1] += x * x
					sums[2] += 1 / x
				}
				sort.Float64s(xs)
				ks := 0.0
				for i, x := range xs {
					f := bpCDF(d, x)
					ks = math.Max(ks, math.Max(f-float64(i)/n, float64(i+1)/n-f))
				}
				if ks*math.Sqrt(n) >= 1.63 {
					t.Errorf("KS·√n = %v, want < 1.63", ks*math.Sqrt(n))
				}
				for j, pw := range powers {
					mean := d.moment(pw)
					se := math.Sqrt((d.moment(2*pw) - mean*mean) / n)
					if got := sums[j] / n; math.Abs(got-mean) > 4*se {
						t.Errorf("E[X^%g] = %v, want %v ± %v (4·SE)", pw, got, mean, 4*se)
					}
				}
			})
		}
	}
}

// TestBoundedParetoZigguratClosure: wherever a table is built, the
// equal-area stack solved by bisection ends at the mode to 1e-12, the
// layers are monotone, each height is the density at its edge, and the
// layer areas are equal. Which laws get a table depends on (k, p, α)
// alone: a support too narrow for 256 equal-area layers gets none.
func TestBoundedParetoZigguratClosure(t *testing.T) {
	for _, tc := range []struct {
		k, p, alpha float64
		table       bool
	}{
		{0.1, 100, 1.5, true}, // the paper's workload
		{0.1, 100, 1, true},
		{0.1, 100, 2, true},
		{0.1, 10, 1.5, true},
		{0.1, 4, 1.5, false}, // p/k = 40 < (256·α)^(1/α) ≈ 53
		{0.1, 1e5, 1.1, true},
		{0.1, 1e5, 3, true},
		{1, 1e6, 1, true},
		{3, 30, 3, true},
		{0.1, 0.4, 1.5, false},
		{0.5, 2, 3, false}, // base rectangle alone exceeds 1/256 of the hat
	} {
		d := MustBoundedPareto(tc.k, tc.p, tc.alpha)
		var z bpZiggurat
		d.fillZiggurat(&z)
		if got := z.x1 != 0; got != tc.table {
			t.Errorf("%s: table built = %v, want %v", d, got, tc.table)
			continue
		}
		if !tc.table {
			if z != (bpZiggurat{}) {
				t.Errorf("%s: fallback left a partial table", d)
			}
			continue
		}
		if res := d.stack(&z, z.x1/d.K); math.Abs(res) > 1e-12 {
			t.Errorf("%s: stack ends %g from the mode, want ≤ 1e-12", d, res)
		}
		if !(z.x1 > d.K && z.x1 <= d.P) || z.w[bpLayers] != 0 || z.y[0] != 0 || z.y[bpLayers] != 1 {
			t.Errorf("%s: table ends x1=%v w[N]=%v y[0]=%v y[N]=%v", d, z.x1, z.w[bpLayers], z.y[0], z.y[bpLayers])
		}
		v := z.w[0] * z.y[1]
		for i := 1; i < bpLayers; i++ {
			if !(z.w[i+1] < z.w[i]) || !(z.y[i+1] > z.y[i]) {
				t.Fatalf("%s: layer %d not monotone", d, i)
			}
			if area := z.w[i] * (z.y[i+1] - z.y[i]); math.Abs(area-v)/v > 1e-9 {
				t.Errorf("%s: layer %d area %v, want %v", d, i, area, v)
			}
			if f := math.Pow(1+z.w[i]/d.K, -d.Alpha-1); math.Abs(z.y[i]-f)/f > 1e-9 {
				t.Errorf("%s: y[%d] = %v is not the density %v at its edge", d, i, z.y[i], f)
			}
		}
	}
}

// TestBoundedParetoNarrowSupportInverts: a law without a table is
// sampled by the reference inversion, one word per draw.
func TestBoundedParetoNarrowSupportInverts(t *testing.T) {
	d := MustBoundedPareto(0.5, 2, 3)
	a, b := rng.New(5), rng.New(5)
	for i := 0; i < 10_000; i++ {
		if got, want := d.Sample(a), invertReference(d, b.Float64()); got != want {
			t.Fatalf("draw %d: %v, want the inversion's %v", i, got, want)
		}
	}
}

// TestBoundedParetoSampleDeterministic: same seed, same sequence —
// across calls on one value and across two values of the same law —
// with no allocation once the table exists.
func TestBoundedParetoSampleDeterministic(t *testing.T) {
	d1, d2 := MustBoundedPareto(0.1, 100, 1.5), MustBoundedPareto(0.1, 100, 1.5)
	a, b, c := rng.New(3), rng.New(3), rng.New(3)
	first := make([]float64, 50_000)
	for i := range first {
		first[i] = d1.Sample(a)
	}
	for i, want := range first {
		if got := d1.Sample(b); got != want {
			t.Fatalf("draw %d: second pass %v != %v", i, got, want)
		}
		if got := d2.Sample(c); got != want {
			t.Fatalf("draw %d: second value %v != %v", i, got, want)
		}
	}
	var sink float64
	if allocs := testing.AllocsPerRun(10_000, func() { sink += d1.Sample(a) }); allocs != 0 {
		t.Errorf("%v allocs per Sample after first use, want 0", allocs)
	}
	_ = sink
}

// TestBoundedParetoConcurrentFirstSample races the lazy table build: the
// sweep's replication workers share one law and may all draw their first
// size at once. Every goroutine must see the sequence a lone caller
// sees. Meaningful under -race.
func TestBoundedParetoConcurrentFirstSample(t *testing.T) {
	const goroutines, draws = 4, 2000
	want := make([]float64, draws)
	ref := MustBoundedPareto(0.1, 100, 1.5)
	for i, src := 0, rng.New(17); i < draws; i++ {
		want[i] = ref.Sample(src)
	}
	for round := 0; round < 20; round++ {
		shared := MustBoundedPareto(0.1, 100, 1.5)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := rng.New(17)
				<-start
				for i := 0; i < draws; i++ {
					if got := shared.Sample(src); got != want[i] {
						t.Errorf("round %d draw %d: %v, want %v", round, i, got, want[i])
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}
