package analytic_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"psd/internal/analytic"
	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/simsrv"
	"psd/internal/sweep"
	"psd/internal/workload"
)

// mustDist panics on a bad test distribution so the grid tables below
// stay declarative.
func mustDist(d dist.Distribution, err error) dist.Distribution {
	if err != nil {
		panic(err)
	}
	return d
}

func oracleConfig(deltas []float64, rho float64, svc dist.Distribution) simsrv.Config {
	cfg := simsrv.EqualLoadConfig(deltas, rho, svc)
	// Oracle mode feeds the allocator the true rates, so the allocation is
	// constant from the first tick and each class is an exact fixed-rate
	// M/G/1 — the DES then estimates precisely what the closed forms
	// compute, with no estimator noise in the rates.
	cfg.Oracle = true
	cfg.Warmup = 5000
	cfg.Horizon = 20000
	cfg.Seed = 11
	return cfg
}

// checkAgainstDES simulates cfg and requires every analytic per-class
// slowdown to sit within the DES run's confidence band (4·SE ≈ 2·CI95,
// the slack covering the CI's own small-sample noise at these run
// counts) plus a small relative term for finite-horizon edge effects.
func checkAgainstDES(t *testing.T, cfg simsrv.Config, runs int, relSlack float64) {
	t.Helper()
	ev, err := analytic.Evaluate(cfg)
	if err != nil {
		t.Fatalf("analytic: %v", err)
	}
	aggs, err := sweep.Run([]sweep.Point{{Cfg: cfg, Runs: runs}})
	if err != nil {
		t.Fatalf("DES: %v", err)
	}
	agg := aggs[0]
	for i := range ev.Slowdowns {
		se := agg.CI95[i] / 1.96
		tol := 4*se + relSlack*ev.Slowdowns[i] + 1e-9
		if diff := math.Abs(ev.Slowdowns[i] - agg.MeanSlowdowns[i]); diff > tol {
			t.Errorf("class %d: analytic %.4f vs DES %.4f ± %.4f (diff %.4f > tol %.4f)",
				i, ev.Slowdowns[i], agg.MeanSlowdowns[i], agg.CI95[i], diff, tol)
		}
	}
	// Sanity-bound the synthesized ratios against the ratio of DES mean
	// slowdowns, with the two classes' relative confidence bands
	// propagated into the ratio tolerance. (Not Aggregate.MeanRatios:
	// that averages per-run ratios, a statistic with strong upward
	// small-sample bias under heavy tails.)
	for i := 1; i < len(ev.Ratios); i++ {
		if agg.MeanSlowdowns[0] <= 0 || ev.Slowdowns[0] <= 0 {
			continue
		}
		got := agg.MeanSlowdowns[i] / agg.MeanSlowdowns[0]
		relTol := (4*agg.CI95[i]/1.96+relSlack*ev.Slowdowns[i])/ev.Slowdowns[i] +
			(4*agg.CI95[0]/1.96+relSlack*ev.Slowdowns[0])/ev.Slowdowns[0]
		if math.Abs(ev.Ratios[i]-got)/ev.Ratios[i] > relTol {
			t.Errorf("class %d ratio: analytic %.3f vs DES %.3f (rel tol %.3f)",
				i, ev.Ratios[i], got, relTol)
		}
	}
}

// TestAnalyticWithinDESConfidence is the tentpole property test: across
// every distribution family with finite required moments, a spread of
// loads and class counts, the closed forms agree with an oracle-mode
// simulation to within its confidence band.
func TestAnalyticWithinDESConfidence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point DES grid")
	}
	families := []struct {
		name string
		d    dist.Distribution
	}{
		{"bounded-pareto", mustDist(dist.NewBoundedPareto(0.1, 100, 1.5))},
		{"uniform", mustDist(dist.NewUniform(0.5, 1.5))},
		{"lognormal", mustDist(dist.NewLognormal(0, 0.5))},
		{"deterministic", mustDist(dist.NewDeterministic(1))},
	}
	grids := []struct {
		deltas []float64
		rho    float64
	}{
		{[]float64{1, 2}, 0.3},
		{[]float64{1, 2, 3}, 0.6},
		{[]float64{1, 2, 4, 8}, 0.8},
	}
	for _, fam := range families {
		for _, g := range grids {
			name := fmt.Sprintf("%s-%dclass-load%.0f", fam.name, len(g.deltas), g.rho*100)
			t.Run(name, func(t *testing.T) {
				// 40 replication seeds, not 10: under the heavy tail at
				// 80 % load a 10-run mean is skewed low and its own SE
				// too noisy for the 4·SE band (2 of 20 base seeds fell
				// outside it; none of 20 do at 40 runs).
				checkAgainstDES(t, oracleConfig(g.deltas, g.rho, fam.d), 40, 0.03)
			})
		}
	}
}

// TestAnalyticAllocatorsWithinDESConfidence covers the closed-form
// allocator set, including a MinRate wrapper whose floor actually binds
// (δ={1,8} at 40% load: PSD grants class 2 ≈0.267, the 0.3 floor
// raises it).
func TestAnalyticAllocatorsWithinDESConfidence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point DES grid")
	}
	allocs := []core.Allocator{
		core.PSD{},
		core.EqualShare{},
		core.DemandProportional{},
		core.LogWeight{},
		core.MinRate{Base: core.PSD{}, Min: 0.3},
	}
	for _, al := range allocs {
		t.Run(al.Name(), func(t *testing.T) {
			cfg := oracleConfig([]float64{1, 8}, 0.4, nil)
			cfg.Allocator = al
			checkAgainstDES(t, cfg, 10, 0.03)
		})
	}
	// The same binding floor set as the simulator's Spec.MinRate: the
	// closed form and the DES's control loop both floor the allocator.
	t.Run("spec-min-rate", func(t *testing.T) {
		cfg := oracleConfig([]float64{1, 8}, 0.4, nil)
		cfg.MinRate = 0.3
		if ev, err := analytic.Evaluate(cfg); err != nil || ev.Rates[1] != 0.3 {
			t.Fatalf("class 2 rate %v, %v; want the 0.3 floor", ev, err)
		}
		checkAgainstDES(t, cfg, 10, 0.03)
	})
}

// TestLogWeightWithinDESConfidence cross-validates the logarithmic-weight
// allocator's closed-form prediction against oracle-mode DES across loads
// and class counts: LogWeight is registered analytic-eligible, so its
// Theorem-1-at-allocated-rates evaluation must sit inside the DES
// confidence band exactly like PSD's.
func TestLogWeightWithinDESConfidence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point DES grid")
	}
	grids := []struct {
		deltas []float64
		rho    float64
	}{
		{[]float64{1, 2}, 0.3},
		{[]float64{1, 8}, 0.4},
		{[]float64{1, 2, 4}, 0.6},
	}
	for _, g := range grids {
		t.Run(fmt.Sprintf("%dclass-load%.0f", len(g.deltas), g.rho*100), func(t *testing.T) {
			cfg := oracleConfig(g.deltas, g.rho, nil)
			cfg.Allocator = core.LogWeight{}
			checkAgainstDES(t, cfg, 10, 0.03)
		})
	}
}

// TestAnalyticEstimatedModeClose drops the oracle: the window estimator
// adds rate noise the closed forms ignore, so the band is wider but the
// stationary prediction still holds.
func TestAnalyticEstimatedModeClose(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point DES grid")
	}
	cfg := oracleConfig([]float64{1, 2}, 0.5, nil)
	cfg.Oracle = false
	checkAgainstDES(t, cfg, 10, 0.08)
}

// TestPerClassOverrideWithinDESConfidence exercises the per-class size
// law path: the allocator still sees the shared law (matching the
// control plane), while Theorem 1 uses each class's effective law.
func TestPerClassOverrideWithinDESConfidence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point DES grid")
	}
	// The override's mean (0.3) sits near the shared Bounded Pareto's
	// (0.2905), so the shared-law allocation still leaves the class
	// stable — overrides that push true demand past the allocated rate
	// are the ErrUnstable case, covered by TestNeedsSimulation's spirit
	// via EvaluatePrepared's per-class Theorem 1.
	cfg := oracleConfig([]float64{1, 2}, 0.5, nil)
	cfg.Classes[1].Service = mustDist(dist.NewUniform(0.1, 0.5))
	checkAgainstDES(t, cfg, 10, 0.03)
}

// fixedRates is an allocator no policy registers: the same rates
// whatever the demand. The closed form must not claim it.
type fixedRates []float64

func (fixedRates) Name() string { return "static" }

func (f fixedRates) Allocate(classes []core.Class, w core.Workload) (core.Allocation, error) {
	rates := append([]float64(nil), f...)
	sl, err := core.SlowdownUnderRates(classes, w, rates)
	return core.Allocation{Rates: rates, ExpectedSlowdowns: sl}, err
}

// TestNeedsSimulation enumerates every ineligibility rule and requires
// each to surface as ErrNeedsSimulation.
func TestNeedsSimulation(t *testing.T) {
	base := func() simsrv.Config {
		return simsrv.EqualLoadConfig([]float64{1, 2}, 0.5, nil)
	}
	cases := []struct {
		name string
		cfg  func() simsrv.Config
	}{
		{"load-schedule", func() simsrv.Config {
			c := base()
			c.LoadSchedule = workload.LoadStep(5000, 2)
			return c
		}},
		{"work-conserving", func() simsrv.Config {
			c := base()
			c.WorkConserving = true
			return c
		}},
		{"feedback", func() simsrv.Config {
			c := base()
			c.Feedback = true
			return c
		}},
		{"record-requests", func() simsrv.Config {
			c := base()
			c.RecordRequests = true
			c.RecordFrom = 1000
			c.RecordTo = 2000
			return c
		}},
		{"pdd-allocator", func() simsrv.Config {
			c := base()
			c.Allocator = core.PDD{}
			return c
		}},
		{"static-allocator", func() simsrv.Config {
			c := base()
			c.Allocator = fixedRates{0.5, 0.5}
			return c
		}},
		{"minrate-over-pdd", func() simsrv.Config {
			c := base()
			c.Allocator = core.MinRate{Base: core.PDD{}, Min: 0.01}
			return c
		}},
		{"divergent-exponential", func() simsrv.Config {
			return simsrv.EqualLoadConfig([]float64{1, 2}, 0.5, mustDist(dist.NewExponential(1)))
		}},
		{"divergent-class-override", func() simsrv.Config {
			c := base()
			c.Classes[1].Service = mustDist(dist.NewExponential(1))
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := analytic.Evaluate(tc.cfg()); !errors.Is(err, analytic.ErrNeedsSimulation) {
				t.Fatalf("want ErrNeedsSimulation, got %v", err)
			}
		})
	}
	// A MinRate over an analytic base, by contrast, stays eligible.
	c := base()
	c.Allocator = core.MinRate{Base: core.PSD{}, Min: 0.01}
	if _, err := analytic.Evaluate(c); err != nil {
		t.Fatalf("MinRate{PSD} should be analytic: %v", err)
	}
}

// TestInfeasibleLoad checks the ρ ≥ 1 path: no stationary point exists,
// so the evaluator must route to simulation AND preserve the allocator's
// infeasibility error for callers that care which failure it was.
func TestInfeasibleLoad(t *testing.T) {
	cfg := simsrv.EqualLoadConfig([]float64{1, 2}, 0.5, nil)
	for i := range cfg.Classes {
		cfg.Classes[i].Lambda *= 2.4 // ρ = 1.2
	}
	_, err := analytic.Evaluate(cfg)
	if !errors.Is(err, analytic.ErrNeedsSimulation) {
		t.Fatalf("want ErrNeedsSimulation, got %v", err)
	}
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("want core.ErrInfeasible preserved, got %v", err)
	}
}

// TestEvaluateMatchesEq18 pins the PSD shared-law case to the paper's
// Eq. 18 closed form directly — Theorem 1 at the Eq. 17 rates must equal
// δ_i·C·Σ(λ_j/δ_j)/(1−ρ), C = E[X²]·E[1/X]/2.
func TestEvaluateMatchesEq18(t *testing.T) {
	deltas := []float64{1, 2, 4}
	svc := dist.PaperDefault()
	cfg := simsrv.EqualLoadConfig(deltas, 0.6, svc)
	ev, err := analytic.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := svc.SecondMoment() * svc.InverseMoment() / 2
	var sum, rho float64
	for i, cc := range cfg.Classes {
		sum += cc.Lambda / deltas[i]
		rho += cc.Lambda * svc.Mean()
	}
	for i, d := range deltas {
		want := d * c * sum / (1 - rho)
		if math.Abs(ev.Slowdowns[i]-want) > 1e-12*want {
			t.Errorf("class %d: Theorem 1 %.12f vs Eq. 18 %.12f", i, ev.Slowdowns[i], want)
		}
		if math.Abs(ev.Ratios[i]-d/deltas[0]) > 1e-12 {
			t.Errorf("class %d ratio %.12f, want %g", i, ev.Ratios[i], d/deltas[0])
		}
	}
}

// TestEvaluateIntoZeroAlloc gates the arena promise at the source: a
// warm EvaluateInto performs no heap allocations.
func TestEvaluateIntoZeroAlloc(t *testing.T) {
	cfg := simsrv.EqualLoadConfig([]float64{1, 2, 4, 8}, 0.7, nil)
	var e analytic.Evaluator
	var ev analytic.Evaluation
	if err := e.EvaluateInto(&ev, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.EvaluateInto(&ev, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm EvaluateInto allocates %.1f times per call, want 0", allocs)
	}
}
