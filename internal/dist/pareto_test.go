package dist_test

import (
	"math"
	"testing"

	"psd/internal/dist"
	"psd/internal/queueing"
	"psd/internal/rng"
)

// TestPaperDefaultGolden pins the paper's §4.1 workload: the BP(0.1,
// 100, 1.5) parameters, their closed-form moments, and the slowdown
// constant C = E[X²]·E[1/X]/2 that Eq. 18 multiplies the load term by.
// These literals are the contract the allocator, simulator and figures
// are calibrated against; a change here is a change to every predicted
// slowdown in the repo.
func TestPaperDefaultGolden(t *testing.T) {
	d := dist.PaperDefault()
	if d.K != 0.1 || d.P != 100 || d.Alpha != 1.5 {
		t.Fatalf("PaperDefault = BP(%v, %v, %v), want BP(0.1, 100, 1.5)", d.K, d.P, d.Alpha)
	}
	golden := []struct {
		name string
		got  float64
		want float64
	}{
		{"E[X]", d.Mean(), 0.290522354142998},
		{"E[X²]", d.SecondMoment(), 0.918712350285928},
		{"E[1/X]", d.InverseMoment(), 6.00018955291714},
	}
	for _, g := range golden {
		if relErr(g.got, g.want) > 1e-12 {
			t.Errorf("%s = %.15g, want %.15g", g.name, g.got, g.want)
		}
	}
	c, err := queueing.SlowdownConstant(d)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.75622412316079; relErr(c, want) > 1e-12 {
		t.Errorf("SlowdownConstant = %.15g, want %.15g", c, want)
	}
}

func TestBoundedParetoValidation(t *testing.T) {
	bad := []struct {
		name    string
		k, p, a float64
	}{
		{"k==p", 1, 1, 1.5},
		{"k>p", 1, 0.5, 1.5},
		{"zero k", 0, 100, 1.5},
		{"negative k", -0.1, 100, 1.5},
		{"zero alpha", 0.1, 100, 0},
		{"negative alpha", 0.1, 100, -1},
		{"NaN alpha", 0.1, 100, math.NaN()},
		{"Inf p", 0.1, math.Inf(1), 1.5},
		{"second moment overflows", 0.1, 1e250, 0.5},
		{"huge alpha overflows", 0.1, 100, 400},
	}
	for _, tc := range bad {
		if _, err := dist.NewBoundedPareto(tc.k, tc.p, tc.a); err == nil {
			t.Errorf("%s: BP(%v, %v, %v) accepted", tc.name, tc.k, tc.p, tc.a)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBoundedPareto did not panic on invalid parameters")
		}
	}()
	dist.MustBoundedPareto(1, 0.5, 1.5)
}

// TestBoundedParetoSpecialCaseContinuity: the α=1 (mean) and α=2
// (second moment) closed forms are logarithmic limits of the generic
// power form; the moments must be continuous across them.
func TestBoundedParetoSpecialCaseContinuity(t *testing.T) {
	const eps = 1e-7
	at := func(alpha float64) *dist.BoundedPareto { return dist.MustBoundedPareto(0.1, 100, alpha) }
	if got, lo, hi := at(1).Mean(), at(1-eps).Mean(), at(1+eps).Mean(); relErr(got, lo) > 1e-5 || relErr(got, hi) > 1e-5 {
		t.Errorf("mean discontinuous at alpha=1: %v vs [%v, %v]", got, lo, hi)
	}
	if got, lo, hi := at(2).SecondMoment(), at(2-eps).SecondMoment(), at(2+eps).SecondMoment(); relErr(got, lo) > 1e-5 || relErr(got, hi) > 1e-5 {
		t.Errorf("second moment discontinuous at alpha=2: %v vs [%v, %v]", got, lo, hi)
	}
	// Independent closed forms for the special cases.
	d1 := at(1)
	wantMean := (0.1 / (1 - 0.1/100)) * math.Log(100/0.1)
	if relErr(d1.Mean(), wantMean) > 1e-12 {
		t.Errorf("alpha=1 mean %v, want k·ln(p/k)/(1−k/p) = %v", d1.Mean(), wantMean)
	}
	d2 := at(2)
	wantSecond := (2 * 0.1 * 0.1 / (1 - math.Pow(0.1/100, 2))) * math.Log(100/0.1)
	if relErr(d2.SecondMoment(), wantSecond) > 1e-12 {
		t.Errorf("alpha=2 second moment %v, want 2k²·ln(p/k)/(1−(k/p)²) = %v", d2.SecondMoment(), wantSecond)
	}
}

// TestBoundedParetoSampleRange: no draw can leave [k, p].
func TestBoundedParetoSampleRange(t *testing.T) {
	d := dist.PaperDefault()
	src := rng.New(7)
	for i := 0; i < 200_000; i++ {
		x := d.Sample(src)
		if x < d.K || x > d.P {
			t.Fatalf("sample %v outside [%v, %v]", x, d.K, d.P)
		}
	}
}

// TestBoundedParetoTailFraction: a coarse shape check beyond moments —
// the analytic CCDF at the size decade boundaries must match the
// empirical tail mass.
func TestBoundedParetoTailFraction(t *testing.T) {
	d := dist.PaperDefault()
	ccdf := func(x float64) float64 {
		// 1 − F(x) with F(x) = (1 − (k/x)^α)/(1 − (k/p)^α)
		trunc := 1 - math.Pow(d.K/d.P, d.Alpha)
		return 1 - (1-math.Pow(d.K/x, d.Alpha))/trunc
	}
	src := rng.New(11)
	const n = 500_000
	counts := map[float64]int{1: 0, 10: 0}
	for i := 0; i < n; i++ {
		x := d.Sample(src)
		for b := range counts {
			if x > b {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		got := float64(c) / n
		want := ccdf(b)
		if math.Abs(got-want) > 0.005 {
			t.Errorf("P[X > %v] = %v, want %v", b, got, want)
		}
	}
}

func TestScaledMomentsExact(t *testing.T) {
	base := dist.PaperDefault()
	for _, rate := range []float64{0.25, 1, 3} {
		s, err := dist.NewScaled(base, rate)
		if err != nil {
			t.Fatal(err)
		}
		if relErr(s.Mean(), base.Mean()/rate) > 1e-12 {
			t.Errorf("rate %v: mean %v, want %v", rate, s.Mean(), base.Mean()/rate)
		}
		if relErr(s.SecondMoment(), base.SecondMoment()/(rate*rate)) > 1e-12 {
			t.Errorf("rate %v: second %v, want %v", rate, s.SecondMoment(), base.SecondMoment()/(rate*rate))
		}
		if relErr(s.InverseMoment(), base.InverseMoment()*rate) > 1e-12 {
			t.Errorf("rate %v: inverse %v, want %v", rate, s.InverseMoment(), base.InverseMoment()*rate)
		}
	}
}

func TestScaledMethodMatchesNewScaled(t *testing.T) {
	base := dist.PaperDefault()
	viaMethod, err := base.Scaled(0.7)
	if err != nil {
		t.Fatal(err)
	}
	viaFunc, err := dist.NewScaled(base, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if viaMethod.Mean() != viaFunc.Mean() || viaMethod.SecondMoment() != viaFunc.SecondMoment() {
		t.Error("Scaled method and NewScaled disagree")
	}
	a, b := rng.New(3), rng.New(3)
	for i := 0; i < 100; i++ {
		if viaMethod.Sample(a) != viaFunc.Sample(b) {
			t.Fatal("scaled samplers diverged")
		}
	}
}

// TestScaledPreservesDivergence: +Inf inverse moments stay +Inf under
// capacity scaling.
func TestScaledPreservesDivergence(t *testing.T) {
	exp, _ := dist.NewExponential(1)
	s, err := dist.NewScaled(exp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(s.InverseMoment(), 1) {
		t.Fatalf("scaled exponential E[1/X] = %v, want +Inf", s.InverseMoment())
	}
}
