package dist_test

import (
	"testing"

	"psd/internal/dist"
	"psd/internal/rng"
)

// BenchmarkSample measures one draw per family (the Bounded Pareto,
// exponential, lognormal and hyperexponential on their ziggurat paths).
func BenchmarkSample(b *testing.B) {
	for _, bc := range []struct {
		name string
		d    dist.Distribution
	}{
		{"BoundedPareto", dist.PaperDefault()},
		{"Deterministic", must(dist.NewDeterministic(1))},
		{"Exponential", must(dist.NewExponential(1))},
		{"Uniform", must(dist.NewUniform(0.5, 2.5))},
		{"Lognormal", must(dist.NewLognormal(0, 1))},
		{"HyperExp2", must(dist.NewHyperExp2(1, 4))},
		{"Empirical", must(dist.NewEmpirical([]float64{0.2, 0.5, 1, 2, 5, 0.7, 1.3, 3}))},
		{"Scaled", must(dist.NewScaled(dist.PaperDefault(), 3))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			src := rng.New(1)
			var sink float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += bc.d.Sample(src)
			}
			_ = sink
		})
	}
}

// BenchmarkMoments measures the analytic moment path (precomputed for
// Bounded Pareto) that the allocator hits on every reallocation window.
func BenchmarkMoments(b *testing.B) {
	d := dist.PaperDefault()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += d.Mean() + d.SecondMoment() + d.InverseMoment()
	}
	_ = sink
}
