package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"psd/internal/dist"
	"psd/internal/queueing"
)

func paperWorkload(t testing.TB) Workload {
	t.Helper()
	w, err := WorkloadFromDist(dist.PaperDefault())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// equalLoadClasses builds n classes with the given deltas, all carrying
// the same per-class load so that total utilization is rho.
func equalLoadClasses(deltas []float64, rho float64, w Workload) []Class {
	n := len(deltas)
	classes := make([]Class, n)
	for i, d := range deltas {
		classes[i] = Class{Delta: d, Lambda: rho / (float64(n) * w.MeanSize)}
	}
	return classes
}

func relErr(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestWorkloadFromDist(t *testing.T) {
	d := dist.PaperDefault()
	w, err := WorkloadFromDist(d)
	if err != nil {
		t.Fatal(err)
	}
	if w.MeanSize != d.Mean() || w.SecondMoment != d.SecondMoment() || w.InverseMoment != d.InverseMoment() {
		t.Fatal("moments not copied")
	}
	exp, _ := dist.NewExponential(1)
	if _, err := WorkloadFromDist(exp); err == nil {
		t.Fatal("exponential workload should be rejected (divergent E[1/X])")
	}
}

func TestWorkloadValidate(t *testing.T) {
	good := Workload{MeanSize: 1, SecondMoment: 2, InverseMoment: 1.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Workload{
		{MeanSize: 0, SecondMoment: 2, InverseMoment: 1},
		{MeanSize: 1, SecondMoment: 0, InverseMoment: 1},
		{MeanSize: 1, SecondMoment: 2, InverseMoment: 0},
		{MeanSize: 2, SecondMoment: 1, InverseMoment: 1}, // Jensen violation
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d accepted invalid workload %+v", i, w)
		}
	}
}

func TestPSDRatesSumToOne(t *testing.T) {
	w := paperWorkload(t)
	f := func(rawRho, rawD2 float64) bool {
		rho := 0.05 + math.Mod(math.Abs(rawRho), 1)*0.9
		d2 := 1 + math.Mod(math.Abs(rawD2), 1)*9
		classes := equalLoadClasses([]float64{1, d2}, rho, w)
		alloc, err := PSD{}.Allocate(classes, w)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, r := range alloc.Rates {
			sum += r
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPSDRatesExceedDemand(t *testing.T) {
	w := paperWorkload(t)
	classes := equalLoadClasses([]float64{1, 2, 3}, 0.9, w)
	alloc, err := PSD{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range classes {
		if alloc.Rates[i] <= c.Lambda*w.MeanSize {
			t.Errorf("class %d rate %v does not exceed demand %v", i, alloc.Rates[i], c.Lambda*w.MeanSize)
		}
	}
}

// TestPSDAchievesTargetRatios is the central invariant: slowdowns computed
// by Theorem 1 under the Eq. 17 rates sit exactly in ratio δ_i/δ_j.
func TestPSDAchievesTargetRatios(t *testing.T) {
	w := paperWorkload(t)
	f := func(rawRho, rawD2, rawD3, rawSkew float64) bool {
		rho := 0.05 + math.Mod(math.Abs(rawRho), 1)*0.9
		d2 := 1 + math.Mod(math.Abs(rawD2), 1)*7
		d3 := d2 + math.Mod(math.Abs(rawD3), 1)*7
		skew := 0.2 + math.Mod(math.Abs(rawSkew), 1)*0.6 // class-load imbalance
		l1 := rho * skew / w.MeanSize
		rest := rho * (1 - skew) / (2 * w.MeanSize)
		classes := []Class{
			{Delta: 1, Lambda: l1},
			{Delta: d2, Lambda: rest},
			{Delta: d3, Lambda: rest},
		}
		alloc, err := PSD{}.Allocate(classes, w)
		if err != nil {
			return false
		}
		// Evaluate Theorem 1 directly from the rates (independent of the
		// Eq. 18 shortcut) and check ratios.
		sl, err := SlowdownUnderRates(classes, w, alloc.Rates)
		if err != nil {
			return false
		}
		for i := 1; i < len(classes); i++ {
			want := classes[i].Delta / classes[0].Delta
			got := sl[i] / sl[0]
			if relErr(got, want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestEq18MatchesTheorem1 confirms that the closed-form Eq. 18 prediction
// equals Theorem 1 evaluated at the Eq. 17 rates.
func TestEq18MatchesTheorem1(t *testing.T) {
	w := paperWorkload(t)
	classes := equalLoadClasses([]float64{1, 2, 4}, 0.7, w)
	alloc, err := PSD{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := SlowdownUnderRates(classes, w, alloc.Rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := range classes {
		if relErr(alloc.ExpectedSlowdowns[i], direct[i]) > 1e-9 {
			t.Errorf("class %d: Eq18=%v Theorem1=%v", i, alloc.ExpectedSlowdowns[i], direct[i])
		}
	}
}

// TestEq18MatchesQueueingTheorem cross-checks against the independent
// implementation in internal/queueing using the distribution itself.
func TestEq18MatchesQueueingTheorem(t *testing.T) {
	d := dist.PaperDefault()
	w := paperWorkload(t)
	classes := equalLoadClasses([]float64{1, 2}, 0.6, w)
	alloc, err := PSD{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range classes {
		q, err := queueing.TaskServerSlowdown(c.Lambda, d, alloc.Rates[i])
		if err != nil {
			t.Fatal(err)
		}
		if relErr(q, alloc.ExpectedSlowdowns[i]) > 1e-9 {
			t.Errorf("class %d: queueing=%v core=%v", i, q, alloc.ExpectedSlowdowns[i])
		}
	}
}

// TestProperty1SlowdownIncreasesWithLoad: paper §3 property 1.
func TestProperty1SlowdownIncreasesWithLoad(t *testing.T) {
	w := paperWorkload(t)
	prev := []float64{-1, -1}
	for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		classes := equalLoadClasses([]float64{1, 2}, rho, w)
		alloc, err := PSD{}.Allocate(classes, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range classes {
			if alloc.ExpectedSlowdowns[i] <= prev[i] {
				t.Errorf("rho=%v class %d: slowdown %v not greater than %v",
					rho, i, alloc.ExpectedSlowdowns[i], prev[i])
			}
			prev[i] = alloc.ExpectedSlowdowns[i]
		}
	}
}

// TestProperty2DeltaTradeoff: raising δ_2 raises class 2's slowdown and
// lowers class 1's (paper §3 property 2).
func TestProperty2DeltaTradeoff(t *testing.T) {
	w := paperWorkload(t)
	var prev2, prev1 float64 = -1, math.Inf(1)
	for _, d2 := range []float64{1.5, 2, 4, 8} {
		classes := equalLoadClasses([]float64{1, d2}, 0.6, w)
		alloc, err := PSD{}.Allocate(classes, w)
		if err != nil {
			t.Fatal(err)
		}
		if alloc.ExpectedSlowdowns[1] <= prev2 {
			t.Errorf("delta2=%v: class2 slowdown %v should increase (prev %v)", d2, alloc.ExpectedSlowdowns[1], prev2)
		}
		if alloc.ExpectedSlowdowns[0] >= prev1 {
			t.Errorf("delta2=%v: class1 slowdown %v should decrease (prev %v)", d2, alloc.ExpectedSlowdowns[0], prev1)
		}
		prev2 = alloc.ExpectedSlowdowns[1]
		prev1 = alloc.ExpectedSlowdowns[0]
	}
}

// TestProperty3HigherClassLoadHurtsMore: adding load to the higher class
// (δ=1) raises everyone's slowdown more than adding the same load to the
// lower class (paper §3 property 3).
func TestProperty3HigherClassLoadHurtsMore(t *testing.T) {
	w := paperWorkload(t)
	base := equalLoadClasses([]float64{1, 4}, 0.5, w)
	extra := 0.2 / w.MeanSize // 20 points of extra utilization

	toHigh := []Class{{Delta: 1, Lambda: base[0].Lambda + extra}, base[1]}
	toLow := []Class{base[0], {Delta: 4, Lambda: base[1].Lambda + extra}}

	aHigh, err := PSD{}.Allocate(toHigh, w)
	if err != nil {
		t.Fatal(err)
	}
	aLow, err := PSD{}.Allocate(toLow, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if aHigh.ExpectedSlowdowns[i] <= aLow.ExpectedSlowdowns[i] {
			t.Errorf("class %d: extra high-class load gives %v, extra low-class load gives %v; expected former larger",
				i, aHigh.ExpectedSlowdowns[i], aLow.ExpectedSlowdowns[i])
		}
	}
}

func TestPSDInfeasibleInputs(t *testing.T) {
	w := paperWorkload(t)
	cases := []struct {
		name    string
		classes []Class
	}{
		{"empty", nil},
		{"overload", equalLoadClasses([]float64{1, 2}, 1.05, w)},
		{"exactly one", equalLoadClasses([]float64{1, 2}, 1.0, w)},
		{"bad delta", []Class{{Delta: 0, Lambda: 0.1}}},
		{"negative delta", []Class{{Delta: -1, Lambda: 0.1}}},
		{"negative lambda", []Class{{Delta: 1, Lambda: -0.1}}},
		{"nan lambda", []Class{{Delta: 1, Lambda: math.NaN()}}},
	}
	for _, c := range cases {
		if _, err := (PSD{}).Allocate(c.classes, w); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: error %v not ErrInfeasible", c.name, err)
		}
	}
}

func TestPSDZeroLambdaClass(t *testing.T) {
	w := paperWorkload(t)
	classes := []Class{
		{Delta: 1, Lambda: 0.5 / w.MeanSize},
		{Delta: 2, Lambda: 0},
	}
	alloc, err := PSD{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Rates[1] != 0 {
		t.Errorf("idle class rate = %v, want 0", alloc.Rates[1])
	}
	if alloc.ExpectedSlowdowns[1] != 0 {
		t.Errorf("idle class slowdown = %v, want 0", alloc.ExpectedSlowdowns[1])
	}
	if alloc.Rates[0] < 0.999 {
		t.Errorf("active class should get (almost) all capacity, got %v", alloc.Rates[0])
	}
}

func TestPSDAllIdle(t *testing.T) {
	w := paperWorkload(t)
	classes := []Class{{Delta: 1, Lambda: 0}, {Delta: 2, Lambda: 0}}
	alloc, err := PSD{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(alloc.Rates[0], 0.5) > 1e-12 || relErr(alloc.Rates[1], 0.5) > 1e-12 {
		t.Errorf("idle split = %v, want even", alloc.Rates)
	}
}

func TestPSDSingleClass(t *testing.T) {
	w := paperWorkload(t)
	classes := []Class{{Delta: 1, Lambda: 0.5 / w.MeanSize}}
	alloc, err := PSD{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(alloc.Rates[0], 1) > 1e-12 {
		t.Fatalf("single class rate = %v, want 1", alloc.Rates[0])
	}
	// With the whole server, slowdown must equal Lemma 1 at unit rate.
	want, err := queueing.ExpectedSlowdown(classes[0].Lambda, dist.PaperDefault())
	if err != nil {
		t.Fatal(err)
	}
	if relErr(alloc.ExpectedSlowdowns[0], want) > 1e-9 {
		t.Fatalf("single-class slowdown %v, want %v", alloc.ExpectedSlowdowns[0], want)
	}
}

func TestExpectedSlowdownHelper(t *testing.T) {
	w := paperWorkload(t)
	classes := equalLoadClasses([]float64{1, 2}, 0.5, w)
	alloc, _ := PSD{}.Allocate(classes, w)
	for i := range classes {
		got, err := ExpectedSlowdown(classes, w, i)
		if err != nil {
			t.Fatal(err)
		}
		if relErr(got, alloc.ExpectedSlowdowns[i]) > 1e-12 {
			t.Errorf("class %d helper %v vs alloc %v", i, got, alloc.ExpectedSlowdowns[i])
		}
	}
	if _, err := ExpectedSlowdown(classes, w, 5); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := ExpectedSlowdown(classes, w, -1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestSlowdownUnderRatesOverload(t *testing.T) {
	w := paperWorkload(t)
	classes := equalLoadClasses([]float64{1, 2}, 0.8, w)
	sl, err := SlowdownUnderRates(classes, w, []float64{0.05, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(sl[0], 1) {
		t.Errorf("starved class slowdown = %v, want +Inf", sl[0])
	}
	if math.IsInf(sl[1], 1) {
		t.Errorf("overprovisioned class slowdown should be finite, got %v", sl[1])
	}
	if _, err := SlowdownUnderRates(classes, w, []float64{1}); err == nil {
		t.Error("mismatched rate count accepted")
	}
}

// TestFeasible: every allocator starts from validateClasses, which
// admits total demand only with strictly positive surplus.
func TestFeasible(t *testing.T) {
	w := paperWorkload(t)
	if _, err := validateClasses(equalLoadClasses([]float64{1, 2}, 0.9, w), w); err != nil {
		t.Errorf("rho=0.9 should be feasible: %v", err)
	}
	if _, err := validateClasses(equalLoadClasses([]float64{1, 2}, 1.1, w), w); !errors.Is(err, ErrInfeasible) {
		t.Errorf("rho=1.1 should be infeasible, got %v", err)
	}
}

// TestPSDSharedAllocatorFailsAcrossLaws: Eq. 17 assumes one shared size
// law. Handed the wrong moments for a class whose true jobs are 10×
// larger, it yields materially non-proportional slowdowns.
func TestPSDSharedAllocatorFailsAcrossLaws(t *testing.T) {
	bp := paperWorkload(t)
	uniform, err := dist.NewUniform(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	big, err := WorkloadFromDist(uniform)
	if err != nil {
		t.Fatal(err)
	}
	classes := []Class{
		{Delta: 1, Lambda: 0.25 / bp.MeanSize},
		{Delta: 2, Lambda: 0.25 / big.MeanSize},
	}
	// The shared-law allocator believes everything is Bounded Pareto.
	alloc, err := PSD{}.Allocate(classes, bp)
	if err != nil {
		t.Fatal(err)
	}
	// Each task server is its own M/G/1 queue: class i's true slowdown
	// is Theorem 1 under its own law at its allocated rate.
	var sl [2]float64
	for i, w := range []Workload{bp, big} {
		s, err := SlowdownUnderRates(classes[i:i+1], w, alloc.Rates[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		sl[i] = s[0]
	}
	got := sl[1] / sl[0]
	if !math.IsInf(got, 1) && relErr(got, 2) < 0.25 {
		t.Fatalf("shared-law allocation accidentally achieved the target on heterogeneous traffic (ratio %v)", got)
	}
}

func TestAllocatorNames(t *testing.T) {
	// Registered policies: names are non-empty, unique, and each factory
	// builds an allocator that answers to its registered name. New
	// policies join the check by registering, not by editing this test.
	seen := make(map[string]bool)
	for _, p := range Policies() {
		if p.Name == "" {
			t.Fatal("registered policy with empty name")
		}
		if seen[p.Name] {
			t.Errorf("duplicate policy name %q", p.Name)
		}
		seen[p.Name] = true
		a := p.New()
		if a == nil {
			t.Fatalf("policy %q factory returned nil", p.Name)
		}
		if a.Name() != p.Name {
			t.Errorf("policy %q factory builds allocator named %q", p.Name, a.Name())
		}
	}
	// Parameterized allocators live outside the registry but still need
	// names for Result provenance.
	for _, a := range []Allocator{MinRate{Base: PSD{}, Min: 1e-4}} {
		if a.Name() == "" {
			t.Errorf("%T has empty name", a)
		}
	}
}
