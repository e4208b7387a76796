package stats

import (
	"math"
	"testing"

	"psd/internal/rng"
)

// Heavy-tailed samplers for the P² accuracy property: the aggregator
// feeds P² pooled slowdown ratios whose distribution is Pareto-like
// (orders of magnitude of spread), which is the estimator's hardest
// regime — uniform or normal data would pass trivially.

// paretoSample draws from a Pareto(α) with unit scale via inverse CDF.
func paretoSample(src *rng.Source, alpha float64) float64 {
	return math.Pow(1-src.Float64(), -1/alpha)
}

// lognormalSample draws from LogNormal(0, sigma).
func lognormalSample(src *rng.Source, sigma float64) float64 {
	return math.Exp(sigma * src.NormFloat64())
}

// TestP2TracksExactQuantilesHeavyTailed is the property test wiring
// satellite: for p50/p90/p99 on heavy-tailed samples across several
// seeds, the streaming P² estimate must sit within a tolerance band of
// the exact sample quantile. Tail quantiles of heavy-tailed data carry
// genuine estimation difficulty (the exact p99 of Pareto(1.5) rests on
// ~200 of 20000 samples), so the bands widen with the quantile: p50 is
// tight, p99 is allowed 25% — measured worst-case across these seeds is
// ~20%.
func TestP2TracksExactQuantilesHeavyTailed(t *testing.T) {
	const n = 20000
	samplers := []struct {
		name string
		draw func(*rng.Source) float64
	}{
		{"pareto1.5", func(s *rng.Source) float64 { return paretoSample(s, 1.5) }},
		{"pareto2.5", func(s *rng.Source) float64 { return paretoSample(s, 2.5) }},
		{"lognormal1.5", func(s *rng.Source) float64 { return lognormalSample(s, 1.5) }},
	}
	quantiles := []struct {
		q      float64
		relTol float64
	}{
		{0.50, 0.05},
		{0.90, 0.10},
		{0.99, 0.25},
	}
	for _, sampler := range samplers {
		for seed := uint64(1); seed <= 5; seed++ {
			src := rng.New(seed * 1000003)
			xs := make([]float64, n)
			ests := make([]*P2, len(quantiles))
			for i := range quantiles {
				ests[i] = NewP2(quantiles[i].q)
			}
			for i := 0; i < n; i++ {
				x := sampler.draw(src)
				xs[i] = x
				for _, p := range ests {
					p.Add(x)
				}
			}
			exact, err := Summarize(xs)
			if err != nil {
				t.Fatal(err)
			}
			// Cross-check the exact path itself (P05/P50/P95 come from
			// the same Quantile machinery the tolerance references).
			if !(exact.P05 <= exact.P50 && exact.P50 <= exact.P95) {
				t.Fatalf("%s seed %d: exact summary unordered: %+v", sampler.name, seed, exact)
			}
			for qi, spec := range quantiles {
				want, err := Quantile(xs, spec.q)
				if err != nil {
					t.Fatal(err)
				}
				got := ests[qi].Value()
				if relErr := math.Abs(got-want) / want; relErr > spec.relTol {
					t.Errorf("%s seed %d q%.0f: P² %v vs exact %v (rel err %.3f > %.2f)",
						sampler.name, seed, spec.q*100, got, want, relErr, spec.relTol)
				}
			}
		}
	}
}

// TestStreamingSummaryMatchesSummarize: the streaming summary's exact
// fields (count, moments, extrema) must equal the batch Summarize, and
// its percentiles must track it within P² tolerance on heavy-tailed data.
func TestStreamingSummaryMatchesSummarize(t *testing.T) {
	src := rng.New(42)
	const n = 10000
	var ss StreamingSummary
	ss.Init()
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = paretoSample(src, 1.5)
		ss.Add(xs[i])
	}
	got := ss.Summary()
	want, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || got.Mean != want.Mean || got.Std != want.Std ||
		got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("exact fields diverged: %+v vs %+v", got, want)
	}
	for _, c := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"p05", got.P05, want.P05, 0.05},
		{"p50", got.P50, want.P50, 0.05},
		{"p95", got.P95, want.P95, 0.10},
	} {
		if math.Abs(c.got-c.want)/c.want > c.tol {
			t.Errorf("%s: streaming %v vs exact %v", c.name, c.got, c.want)
		}
	}
}

// TestStreamingSummaryInitAndSmall covers the re-arm and tiny-sample
// paths: Init discards prior data, and below 5 observations the
// percentiles are exact.
func TestStreamingSummaryInitAndSmall(t *testing.T) {
	var ss StreamingSummary
	ss.Init()
	if s := ss.Summary(); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
	for _, x := range []float64{5, 1, 3} {
		ss.Add(x)
	}
	s := ss.Summary()
	if s.N != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("small-sample summary = %+v", s)
	}
	ss.Init()
	if ss.N() != 0 {
		t.Fatal("Init did not discard observations")
	}
	ss.Add(7)
	if s := ss.Summary(); s.Mean != 7 || s.N != 1 {
		t.Fatalf("post-Init summary = %+v", s)
	}
}

// TestP2ResetKeepsQuantile re-arms a used estimator in place for its own
// quantile, the way StreamingSummary.Init re-arms its three, and checks
// that no observation survives and the quantile is tracked afresh.
func TestP2ResetKeepsQuantile(t *testing.T) {
	p := NewP2(0.9)
	for i := 0; i < 100; i++ {
		p.Add(float64(i))
	}
	p.Init(p.q)
	if p.n != 0 || p.q != 0.9 {
		t.Fatalf("Init kept observations (n %d) or lost the quantile (%v)", p.n, p.q)
	}
	for i := 0; i < 1000; i++ {
		p.Add(float64(i % 100))
	}
	v := p.Value()
	if v < 80 || v > 99 {
		t.Fatalf("post-Reset p90 of 0..99 cycle = %v", v)
	}
}
