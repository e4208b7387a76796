package rng

import (
	"encoding/binary"
	"hash/fnv"
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

// streamHash is FNV-64a over the bits of n draws from next, followed by
// the source's next word, so that a change in how many words a draw
// consumes moves the hash even where the draws themselves agree.
func streamHash(src *Source, n int, next func() float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(next()))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], src.Uint64())
	h.Write(buf[:])
	return h.Sum64()
}

// TestVariateStreamGoldens pins the first 10⁶ variates of each ziggurat
// sampler, bit for bit, at seed 1. Any change to the tables or to a
// slow-path decision that is meant to be exact must leave these hashes
// alone; a deliberate change to a sampler's stream re-stamps them and
// says so.
func TestVariateStreamGoldens(t *testing.T) {
	const n = 1_000_000
	for _, tc := range []struct {
		name string
		draw func(*Source) float64
		want uint64
	}{
		{"ExpFloat64(1)", func(r *Source) float64 { return r.ExpFloat64(1) }, 0xc54590eea127240a},
		{"ExpFloat64(0.7)", func(r *Source) float64 { return r.ExpFloat64(0.7) }, 0x96ebc3bad075c59f},
		{"NormFloat64", (*Source).NormFloat64, 0xc896fefc0cb0546d},
	} {
		src := New(1)
		if got := streamHash(src, n, func() float64 { return tc.draw(src) }); got != tc.want {
			t.Errorf("%s: stream hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestExpSqueezeMatchesExp is the differential check on the exponential
// wedge squeeze: of 10⁷ points in the layers' wedges (a tenth of them
// within the margin band's reach of the curve), the squeeze decides only
// those Exp decides the same way, and at least 95 % of the sampler's own.
func TestExpSqueezeMatchesExp(t *testing.T) {
	const n = 10_000_000
	z := &expZig
	src := New(11)
	decided, plain := 0, 0
	for j := 0; j < n; j++ {
		i := 1 + src.Uint64()%(zigLayers-1)
		x := math.Min(z.x[i+1]+src.Float64()*(z.x[i]-z.x[i+1]), z.x[i])
		y := z.y[i] + src.Float64()*(z.y[i+1]-z.y[i])
		near := j%10 == 0
		if near {
			y = math.Exp(-x) * (1 + (2*src.Float64()-1)*1e-8)
		} else {
			plain++
		}
		s := &expSq[i]
		under, over := s.Under(x, y), s.Over(x, y)
		if !under && !over {
			continue
		}
		if exact := y < math.Exp(-x); under != exact || over == exact {
			t.Fatalf("layer %d, x=%v y=%v: squeeze under=%v over=%v, exact accept=%v", i, x, y, under, over, exact)
		}
		if !near {
			decided++
		}
	}
	if share := float64(decided) / float64(plain); share < 0.95 {
		t.Errorf("squeeze decides %.4f of wedge points, want ≥ 0.95", share)
	}
}

// TestFillExpMatchesExpFloat64 is the draw-ahead contract: unit
// exponentials taken ahead by FillExp, in chunks of every length from 1
// to 97 and divided by a rate that changes between chunks, equal
// successive ExpFloat64(rate) calls bit for bit over 10⁶ draws, slow-path
// and tail draws included, and leave the Source in the same state.
func TestFillExpMatchesExpFloat64(t *testing.T) {
	const n = 1_000_000
	rates := []float64{1, 0.7, 3e-5, 40, 1.5e9}
	ahead, single, probe := New(5), New(5), New(5)
	buf := make([]float64, 97)
	for drawn, chunk := 0, 0; drawn < n; chunk++ {
		dst := buf[:1+chunk%len(buf)]
		rate := rates[chunk%len(rates)]
		ahead.FillExp(dst)
		for j, u := range dst {
			if got, want := u/rate, single.ExpFloat64(rate); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("draw %d (chunk %d, rate %v): %v ahead, %v from ExpFloat64", drawn+j, chunk, rate, got, want)
			}
		}
		drawn += len(dst)
	}
	if a, s := ahead.Uint64(), single.Uint64(); a != s {
		t.Fatalf("sources part after the draws: next words %#x and %#x", a, s)
	}
	// The same stream, counting how its draws ended.
	slow, tail := 0, 0
	for j := 0; j < n; j++ {
		b := probe.Uint64()
		i := b & zigMask
		if x := Unit53(b) * expZig.x[i]; x >= expZig.x[i+1] {
			slow++
			if probe.expSlow(i, x) > expR {
				tail++
			}
		}
	}
	if slow < 5000 || tail < 200 {
		t.Fatalf("%d slow-path and %d tail draws in %d, want ≥ 5000 and ≥ 200", slow, tail, n)
	}
}
