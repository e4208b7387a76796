package dist_test

import (
	"math"
	"testing"

	"psd/internal/dist"
	"psd/internal/rng"
)

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Max(math.Abs(got), math.Abs(want))
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// momentCase pairs a distribution with per-moment Monte Carlo
// tolerances. Heavy-tailed second moments converge slowly (the sampling
// noise of X² scales with E[X⁴]), so tolerances widen with the tail.
type momentCase struct {
	name    string
	d       dist.Distribution
	n       int
	tolMean float64
	tolSec  float64
	tolInv  float64
	// stream is the case's rng.Split stream; it stays fixed when other
	// rows come and go.
	stream uint64
}

func momentCases() []momentCase {
	trace := []float64{0.2, 0.5, 1, 2, 5, 0.7, 1.3}
	return []momentCase{
		{"Deterministic", must(dist.NewDeterministic(2.5)), 1000, 1e-12, 1e-12, 1e-12, 0},
		{"Uniform", must(dist.NewUniform(0.5, 2.5)), 400_000, 0.01, 0.01, 0.01, 1},
		{"Exponential", must(dist.NewExponential(2)), 400_000, 0.01, 0.03, 0, 2},
		{"BoundedPareto-short", dist.MustBoundedPareto(0.1, 10, 1.5), 400_000, 0.01, 0.05, 0.01, 3},
		{"BoundedPareto-paper", dist.PaperDefault(), 1_000_000, 0.01, 0.15, 0.01, 4},
		{"BoundedPareto-alpha1", dist.MustBoundedPareto(0.1, 100, 1), 1_000_000, 0.02, 0.08, 0.01, 5},
		{"BoundedPareto-alpha2", dist.MustBoundedPareto(0.1, 100, 2), 1_000_000, 0.01, 0.25, 0.01, 6},
		{"Lognormal", must(dist.NewLognormal(0, 0.5)), 400_000, 0.01, 0.02, 0.01, 7},
		// Mean 2 and SCV 4: σ² = ln(1 + 4), μ = ln 2 − σ²/2.
		{"Lognormal-heavy", must(dist.NewLognormal(math.Log(2)-math.Log1p(4)/2, math.Sqrt(math.Log1p(4)))), 1_000_000, 0.01, 0.10, 0.01, 8},
		{"HyperExp2", must(dist.NewHyperExp2(1, 4)), 1_000_000, 0.01, 0.05, 0, 11},
		{"Empirical", must(dist.NewEmpirical(trace)), 400_000, 0.01, 0.01, 0.01, 12},
		{"Scaled", must(dist.NewScaled(dist.PaperDefault(), 1.0/3)), 1_000_000, 0.01, 0.15, 0.01, 14},
	}
}

// TestSampleMomentsMatchClosedForms is the core property test: for every
// family, Monte Carlo sample moments under a fixed seed must agree with
// the analytic Mean/SecondMoment/InverseMoment within the case
// tolerance. A divergent closed-form E[1/X] (+Inf) has no finite sample
// analogue and is skipped.
func TestSampleMomentsMatchClosedForms(t *testing.T) {
	parent := rng.New(0x5eed)
	for _, tc := range momentCases() {
		t.Run(tc.name, func(t *testing.T) {
			src := parent.Split(tc.stream)
			var sum, sum2, sumInv float64
			for i := 0; i < tc.n; i++ {
				x := tc.d.Sample(src)
				if !(x > 0) || math.IsInf(x, 0) || math.IsNaN(x) {
					t.Fatalf("sample %d = %v, want positive finite", i, x)
				}
				sum += x
				sum2 += x * x
				sumInv += 1 / x
			}
			n := float64(tc.n)
			if got, want := sum/n, tc.d.Mean(); relErr(got, want) > tc.tolMean {
				t.Errorf("sample mean %v vs E[X]=%v (tol %v)", got, want, tc.tolMean)
			}
			if got, want := sum2/n, tc.d.SecondMoment(); relErr(got, want) > tc.tolSec {
				t.Errorf("sample second moment %v vs E[X²]=%v (tol %v)", got, want, tc.tolSec)
			}
			inv := tc.d.InverseMoment()
			if math.IsInf(inv, 1) {
				return // divergent: nothing finite to compare against
			}
			if got := sumInv / n; relErr(got, inv) > tc.tolInv {
				t.Errorf("sample inverse moment %v vs E[1/X]=%v (tol %v)", got, inv, tc.tolInv)
			}
		})
	}
}

// TestMomentInequalities checks the structural constraints every valid
// size law satisfies: Jensen both ways (E[X²] ≥ E[X]², E[1/X] ≥ 1/E[X])
// and positivity.
func TestMomentInequalities(t *testing.T) {
	for _, tc := range momentCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, m2, inv := tc.d.Mean(), tc.d.SecondMoment(), tc.d.InverseMoment()
			if !(m > 0) || math.IsInf(m, 0) {
				t.Fatalf("mean %v must be positive finite", m)
			}
			if m2 < m*m*(1-1e-12) {
				t.Errorf("E[X²]=%v < E[X]²=%v violates Jensen", m2, m*m)
			}
			if inv < (1/m)*(1-1e-12) {
				t.Errorf("E[1/X]=%v < 1/E[X]=%v violates Jensen", inv, 1/m)
			}
		})
	}
}

// TestSampleDeterminism: the same seed must reproduce the same stream —
// the property the simulator's common-random-numbers discipline rests
// on.
func TestSampleDeterminism(t *testing.T) {
	for _, tc := range momentCases() {
		t.Run(tc.name, func(t *testing.T) {
			a, b := rng.New(42), rng.New(42)
			for i := 0; i < 1000; i++ {
				if x, y := tc.d.Sample(a), tc.d.Sample(b); x != y {
					t.Fatalf("draw %d diverged: %v vs %v", i, x, y)
				}
			}
		})
	}
}

// TestStrings: every law names its family and parameters.
func TestStrings(t *testing.T) {
	for _, tc := range momentCases() {
		if s := tc.d.String(); s == "" {
			t.Errorf("%s: empty String()", tc.name)
		}
	}
}
