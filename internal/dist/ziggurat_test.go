package dist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

// TestBoundedParetoStreamGoldens pins the first 10⁶ draws of each law at
// seed 1, bit for bit, plus the source's next word (so the number of
// words consumed is pinned too). A change to the table build or to a
// slow-path decision that is meant to be exact must leave these hashes
// alone. p/k = 4 has no table and pins the inversion fallback.
func TestBoundedParetoStreamGoldens(t *testing.T) {
	const n = 1_000_000
	for _, tc := range []struct {
		k, p, alpha float64
		want        uint64
	}{
		{0.1, 100, 1.5, 0xd5f619e7f97592bc},
		{0.1, 100, 1, 0x1007ad1a8b35eb78},
		{0.1, 1e5, 1.1, 0xbc6b7da4a382417e},
		{1, 1e3, 3, 0x13b99f726f96bf49},
		{0.1, 0.4, 1.5, 0xf963bebed619dc3e},
	} {
		d := MustBoundedPareto(tc.k, tc.p, tc.alpha)
		src := rng.New(1)
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d.Sample(src)))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], src.Uint64())
		h.Write(buf[:])
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: stream hash %#x, want %#x", d, got, tc.want)
		}
	}
}

// wedgePoint draws a point in layer i's wedge of z the way sampleSlow
// forms it, t = (k + dx)/k and y between the layer's heights, except that
// dx is uniform over the wedge rather than over the whole layer. With
// near set, y is instead put within a few 1e-9 of f(t), straddling the
// squeeze's margin band.
func wedgePoint(d *BoundedPareto, z *bpZiggurat, i uint64, src *rng.Source, near bool) (t, y float64) {
	dx := math.Min(z.w[i+1]+src.Float64()*(z.w[i]-z.w[i+1]), z.w[i])
	t = (d.K + dx) / d.K
	y = z.y[i] + src.Float64()*(z.y[i+1]-z.y[i])
	if near {
		y = math.Pow(t, -d.Alpha-1) * (1 + (2*src.Float64()-1)*1e-8*(d.Alpha+2))
	}
	return t, y
}

// squeezeDecides checks layer i's squeeze at (t, y) against the exact
// test and reports whether it decided the point at all.
func squeezeDecides(tb testing.TB, d *BoundedPareto, z *bpZiggurat, i uint64, t, y float64) bool {
	tb.Helper()
	s := &z.sq[i]
	under, over := s.Under(t, y), s.Over(t, y)
	if !under && !over {
		return false
	}
	if exact := y < math.Pow(t, -d.Alpha-1); under != exact || over == exact {
		tb.Fatalf("%s layer %d, t=%v y=%v: squeeze under=%v over=%v, exact accept=%v", d, i, t, y, under, over, exact)
	}
	return true
}

// narrowestTable returns the smallest p/k (to 1e-9) for which BP(1, p, α)
// still builds a ziggurat: the law whose wedges are widest.
func narrowestTable(alpha float64) float64 {
	lo, hi := 1.0, 1e3 // no table at lo, a table at hi
	for hi-lo > 1e-9 {
		mid := lo + (hi-lo)/2
		var z bpZiggurat
		if MustBoundedPareto(1, mid, alpha).fillZiggurat(&z); z.x1 != 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestBoundedParetoSqueezeMatchesPow is the differential check on the
// wedge squeeze: at the paper's law, at α = 1 and at the narrowest
// support that still builds a table at α = 1.5, 10⁷ wedge points each
// (a tenth of them within the margin band's reach of the curve) are
// decided by the squeeze only where Pow decides them the same way, and
// the squeeze decides at least 95 % of the sampler's own points.
func TestBoundedParetoSqueezeMatchesPow(t *testing.T) {
	const n = 10_000_000
	for _, d := range []*BoundedPareto{
		MustBoundedPareto(0.1, 100, 1.5),
		MustBoundedPareto(0.1, 100, 1),
		MustBoundedPareto(1, narrowestTable(1.5), 1.5),
	} {
		z := d.buildZiggurat()
		src := rng.New(11)
		decided, plain := 0, 0
		for j := 0; j < n; j++ {
			i := 1 + src.Uint64()%(bpLayers-1)
			near := j%10 == 0
			tt, y := wedgePoint(d, z, i, src, near)
			if squeezeDecides(t, d, z, i, tt, y) && !near {
				decided++
			}
			if !near {
				plain++
			}
		}
		if share := float64(decided) / float64(plain); share < 0.95 {
			t.Errorf("%s: squeeze decides %.4f of wedge points, want ≥ 0.95", d, share)
		}
	}
}

// FuzzBoundedParetoWedge fuzzes the law within the constructor's range.
// Where a table is built, wedge points (some straddling the margin band)
// must be decided by the squeeze only as Pow decides them; where none is,
// draws must be the reference inversion's. Every draw stays in [k, p].
func FuzzBoundedParetoWedge(f *testing.F) {
	f.Add(0.1, 1000.0, 1.5, uint64(1))
	f.Add(1.0, 53.0, 1.5, uint64(2))
	f.Add(0.5, 4.0, 3.0, uint64(3))
	f.Add(3.0, 10.0, 0.2, uint64(4))
	f.Add(1e-3, 1e9, 1.1, uint64(5))
	f.Add(1.0, 1.001, 5000.0, uint64(6))
	f.Fuzz(func(t *testing.T, k, ratio, alpha float64, seed uint64) {
		d, err := NewBoundedPareto(k, k*ratio, alpha)
		if err != nil {
			t.Skip()
		}
		z := d.buildZiggurat()
		src, ref := rng.New(seed), rng.New(seed)
		for j := 0; j < 2000; j++ {
			x := d.Sample(src)
			if x < d.K || x > d.P {
				t.Fatalf("%s: draw %d = %v outside [k, p]", d, j, x)
			}
			if z.x1 == 0 {
				if want := invertReference(d, ref.Float64()); x != want {
					t.Fatalf("%s: draw %d = %v, want the inversion's %v", d, j, x, want)
				}
				continue
			}
			i := 1 + src.Uint64()%(bpLayers-1)
			tt, y := wedgePoint(d, z, i, src, j%2 == 0)
			squeezeDecides(t, d, z, i, tt, y)
		}
	})
}
