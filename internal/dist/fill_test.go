package dist

import (
	"math"
	"testing"

	"psd/internal/rng"
)

// checkFill draws n values from d through Fill, in chunks whose lengths
// cycle through cuts (each taken mod 97, plus 1), and n through Sample
// from a Source of the same seed, and fails unless the two sequences are
// equal bit for bit and leave the Sources in the same state.
func checkFill(t *testing.T, d Filler, seed uint64, n int, cuts []byte) {
	t.Helper()
	if len(cuts) == 0 {
		cuts = []byte{0}
	}
	ahead, single := rng.New(seed), rng.New(seed)
	var buf [97]float64
	for drawn, c := 0, 0; drawn < n; c++ {
		dst := buf[:1+int(cuts[c%len(cuts)])%len(buf)]
		if rest := n - drawn; len(dst) > rest {
			dst = dst[:rest]
		}
		d.Fill(ahead, dst)
		for j, got := range dst {
			if want := d.Sample(single); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s draw %d: Fill gave %v, Sample %v", d, drawn+j, got, want)
			}
		}
		drawn += len(dst)
	}
	if a, s := ahead.Uint64(), single.Uint64(); a != s {
		t.Fatalf("%s: Sources part after %d draws: next words %#x and %#x", d, n, a, s)
	}
}

// TestFillMatchesSample holds every law of the package that opts in to
// drawing ahead to Fill ≡ successive Samples: 10⁶ draws of each Bounded
// Pareto (the paper's law, α = 1, a wide tail, α = 3 and the p/k = 4
// inversion fallback), 2·10⁵ of every other law. A scaled law does not
// opt in: it cannot vouch for the law it wraps.
func TestFillMatchesSample(t *testing.T) {
	must := func(d Distribution, err error) Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	laws := []struct {
		d Distribution
		n int
	}{
		{PaperDefault(), 1_000_000},
		{MustBoundedPareto(0.1, 100, 1), 1_000_000},
		{MustBoundedPareto(0.1, 1e5, 1.1), 1_000_000},
		{MustBoundedPareto(1, 1e3, 3), 1_000_000},
		{MustBoundedPareto(0.1, 0.4, 1.5), 1_000_000},
		{must(NewExponential(3.44)), 200_000},
		{must(NewUniform(0.05, 0.5)), 200_000},
		{must(NewLognormal(-1.5, 1)), 200_000},
		{must(NewHyperExp2(0.29, 4)), 200_000},
		{must(NewEmpirical([]float64{0.1, 0.2, 0.2, 3, 40})), 200_000},
		{must(NewDeterministic(0.29)), 1_000},
	}
	for i, law := range laws {
		f, ok := law.d.(Filler)
		if !ok {
			t.Fatalf("%s does not implement Filler", law.d)
		}
		checkFill(t, f, uint64(i+1), law.n, []byte{0, 63, 96, 1, 17, 40})
	}
	if _, ok := must(PaperDefault().Scaled(1.0 / 3)).(Filler); ok {
		t.Fatal("a scaled law implements Filler")
	}
}

// FuzzFillMatchesSample draws ahead with refills cut at arbitrary points
// against one draw at a time: unit exponentials divided by a rate that
// changes with every refill against ExpFloat64 (through the exponential
// law, whose Fill is FillExp), and a Bounded Pareto of arbitrary
// parameters (the constructor refuses invalid ones) against its Sample.
func FuzzFillMatchesSample(f *testing.F) {
	f.Add(uint64(1), 1.0, 0.1, 100.0, 1.5, []byte{0, 63, 96})
	f.Add(uint64(7), 3e-5, 1.0, 4.0, 1.5, []byte{5})
	f.Add(uint64(9), 40.0, 0.1, 1e5, 1.1, []byte{1, 2, 3, 200})
	f.Add(uint64(0), 1.5e9, 1e-3, 1e3, 0.5, []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, rate, k, p, alpha float64, cuts []byte) {
		rate = math.Abs(rate)
		if !(rate > 1e-300) || rate > 1e300 {
			rate = 1
		}
		for c := 0; c < len(cuts) && c < 8; c++ {
			exp, err := NewExponential(rate * float64(1+c%3))
			if err != nil {
				t.Fatal(err)
			}
			checkFill(t, exp.(Filler), seed+uint64(c), 200, cuts[c:])
		}
		if d, err := NewBoundedPareto(k, p, alpha); err == nil {
			checkFill(t, d, seed, 2000, cuts)
		}
	})
}
