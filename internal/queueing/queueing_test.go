package queueing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"psd/internal/dist"
)

func relErr(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestPKWaitMM1Consistency(t *testing.T) {
	// For exponential service, P-K reduces to the M/M/1 waiting time.
	mu := 2.0
	d, _ := dist.NewExponential(mu)
	for _, lambda := range []float64{0.1, 0.5, 1.0, 1.9} {
		pk, err := PKWait(lambda, d)
		if err != nil {
			t.Fatalf("lambda=%v: %v", lambda, err)
		}
		mm1, err := MM1Wait(lambda, mu)
		if err != nil {
			t.Fatal(err)
		}
		if relErr(pk, mm1) > 1e-12 {
			t.Errorf("lambda=%v: PK=%v MM1=%v", lambda, pk, mm1)
		}
	}
}

func TestPKWaitMD1KnownValue(t *testing.T) {
	// M/D/1: E[W] = ρ·x̄ / (2(1−ρ)). With x̄=1, λ=0.5: 0.5/(2·0.5) = 0.5.
	d, _ := dist.NewDeterministic(1)
	w, err := PKWait(0.5, d)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(w, 0.5) > 1e-12 {
		t.Fatalf("M/D/1 wait = %v, want 0.5", w)
	}
}

func TestPKWaitUnstable(t *testing.T) {
	d, _ := dist.NewDeterministic(1)
	if _, err := PKWait(1.0, d); !errors.Is(err, ErrUnstable) {
		t.Fatalf("rho=1 should be unstable, got %v", err)
	}
	if _, err := PKWait(2.0, d); !errors.Is(err, ErrUnstable) {
		t.Fatal("rho=2 should be unstable")
	}
}

func TestPKWaitInvalidInputs(t *testing.T) {
	d, _ := dist.NewDeterministic(1)
	if _, err := PKWait(-1, d); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := PKWaitRate(0.5, d, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := PKWaitRate(0.5, d, math.Inf(1)); err == nil {
		t.Error("infinite rate accepted")
	}
}

// TestPKWaitRateLemma2 confirms that applying P-K to the rate-r server
// equals applying it to the explicitly scaled distribution — Lemma 2.
func TestPKWaitRateLemma2(t *testing.T) {
	base := dist.PaperDefault()
	f := func(rawRate, rawLoad float64) bool {
		rate := 0.1 + math.Mod(math.Abs(rawRate), 1)*0.9
		load := 0.05 + math.Mod(math.Abs(rawLoad), 1)*0.85 // rho in (0.05, 0.9)
		lambda := load * rate / base.Mean()
		direct, err1 := PKWaitRate(lambda, base, rate)
		scaled, err2 := base.Scaled(rate)
		if err2 != nil {
			return false
		}
		viaScaled, err3 := PKWait(lambda, scaled)
		if err1 != nil || err3 != nil {
			return false
		}
		return relErr(direct, viaScaled) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem1MatchesLemma1OnScaledDist verifies Theorem 1 as the
// composition of Lemma 1 and Lemma 2: slowdown on a rate-r task server
// equals the unit-rate slowdown of the scaled service distribution.
func TestTheorem1MatchesLemma1OnScaledDist(t *testing.T) {
	base := dist.PaperDefault()
	f := func(rawRate, rawLoad float64) bool {
		rate := 0.1 + math.Mod(math.Abs(rawRate), 1)*0.9
		load := 0.05 + math.Mod(math.Abs(rawLoad), 1)*0.85
		lambda := load * rate / base.Mean()
		s1, err1 := TaskServerSlowdown(lambda, base, rate)
		scaled, _ := base.Scaled(rate)
		s2, err2 := ExpectedSlowdown(lambda, scaled)
		if err1 != nil || err2 != nil {
			return false
		}
		return relErr(s1, s2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedSlowdownPaperDefaultValue(t *testing.T) {
	// Hand-computed reference for BP(0.1, 100, 1.5) at rho = 0.5:
	// E[X] ≈ 0.290548, E[X²] ≈ 0.918712, E[1/X] ≈ 6.00036
	// λ = 0.5/E[X]; E[S] = λ·E[X²]·E[1/X]/(2·0.5).
	d := dist.PaperDefault()
	lambda := 0.5 / d.Mean()
	want := lambda * d.SecondMoment() * d.InverseMoment() / (2 * 0.5)
	got, err := ExpectedSlowdown(lambda, d)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(got, want) > 1e-12 {
		t.Fatalf("slowdown = %v, want %v", got, want)
	}
	// Magnitude sanity: roughly 9.5 for these parameters.
	if got < 8 || got > 11 {
		t.Fatalf("slowdown %v outside expected ballpark [8, 11]", got)
	}
}

func TestExpectedSlowdownDivergesForExponential(t *testing.T) {
	d, _ := dist.NewExponential(1)
	if _, err := ExpectedSlowdown(0.5, d); !errors.Is(err, ErrDivergent) {
		t.Fatalf("exponential slowdown should diverge, got %v", err)
	}
}

func TestTaskServerSlowdownZeroArrivals(t *testing.T) {
	d := dist.PaperDefault()
	s, err := TaskServerSlowdown(0, d, 0.5)
	if err != nil || s != 0 {
		t.Fatalf("zero-lambda slowdown = %v err=%v", s, err)
	}
}

func TestTaskServerSlowdownUnstable(t *testing.T) {
	d := dist.PaperDefault()
	lambda := 0.6 / d.Mean() // demand 0.6
	if _, err := TaskServerSlowdown(lambda, d, 0.5); !errors.Is(err, ErrUnstable) {
		t.Fatal("demand > rate should be unstable")
	}
	if _, err := TaskServerSlowdown(lambda, d, 0.6); !errors.Is(err, ErrUnstable) {
		t.Fatal("demand == rate should be unstable")
	}
}

// TestSlowdownMonotoneInLoad: expected slowdown strictly increases with
// arrival rate (paper property 1 at the single-queue level).
func TestSlowdownMonotoneInLoad(t *testing.T) {
	d := dist.PaperDefault()
	prev := -1.0
	for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.95} {
		lambda := rho / d.Mean()
		s, err := ExpectedSlowdown(lambda, d)
		if err != nil {
			t.Fatal(err)
		}
		if s <= prev {
			t.Fatalf("slowdown not increasing at rho=%v: %v <= %v", rho, s, prev)
		}
		prev = s
	}
}

// TestSlowdownShapeSensitivity mirrors §4.5: smaller α (burstier) gives
// larger slowdown; larger upper bound gives larger slowdown.
func TestSlowdownShapeSensitivity(t *testing.T) {
	prev := math.Inf(1)
	for _, alpha := range []float64{1.1, 1.3, 1.5, 1.7, 1.9} {
		d := dist.MustBoundedPareto(0.1, 100, alpha)
		lambda := 0.7 / d.Mean()
		s, err := ExpectedSlowdown(lambda, d)
		if err != nil {
			t.Fatal(err)
		}
		if s >= prev {
			t.Fatalf("slowdown not decreasing in alpha at %v: %v >= %v", alpha, s, prev)
		}
		prev = s
	}
	prev = 0
	for _, p := range []float64{100, 1000, 10000} {
		d := dist.MustBoundedPareto(0.1, p, 1.5)
		lambda := 0.7 / d.Mean()
		s, err := ExpectedSlowdown(lambda, d)
		if err != nil {
			t.Fatal(err)
		}
		if s <= prev {
			t.Fatalf("slowdown not increasing in p at %v: %v <= %v", p, s, prev)
		}
		prev = s
	}
}

func TestMD1SlowdownMatchesGeneralFormula(t *testing.T) {
	// Theorem 1 with a Deterministic distribution must agree with Eq. 15.
	xbar := 2.5
	det, _ := dist.NewDeterministic(xbar)
	f := func(rawRate, rawLoad float64) bool {
		rate := 0.2 + math.Mod(math.Abs(rawRate), 1)*0.8
		load := 0.05 + math.Mod(math.Abs(rawLoad), 1)*0.85
		lambda := load * rate / xbar
		general, err1 := TaskServerSlowdown(lambda, det, rate)
		special, err2 := MD1Slowdown(lambda, xbar, rate)
		if err1 != nil || err2 != nil {
			return false
		}
		return relErr(general, special) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMD1SlowdownValidation(t *testing.T) {
	if _, err := MD1Slowdown(0.5, 0, 1); err == nil {
		t.Error("accepted zero job size")
	}
	if _, err := MD1Slowdown(0.5, 3, 1); !errors.Is(err, ErrUnstable) {
		t.Error("overload not detected")
	}
	if s, err := MD1Slowdown(0, 1, 1); err != nil || s != 0 {
		t.Error("zero arrivals should give zero slowdown")
	}
}

func TestMM1WaitValidation(t *testing.T) {
	if _, err := MM1Wait(2, 2); !errors.Is(err, ErrUnstable) {
		t.Error("lambda=mu should be unstable")
	}
	if _, err := MM1Wait(1, 0); err == nil {
		t.Error("zero mu accepted")
	}
	w, err := MM1Wait(1, 2)
	if err != nil || relErr(w, 0.5) > 1e-12 {
		t.Errorf("MM1Wait(1,2) = %v, want 0.5", w)
	}
}

func TestSlowdownConstant(t *testing.T) {
	d := dist.PaperDefault()
	c, err := SlowdownConstant(d)
	if err != nil {
		t.Fatal(err)
	}
	want := d.SecondMoment() * d.InverseMoment() / 2
	if relErr(c, want) > 1e-12 {
		t.Fatalf("C = %v, want %v", c, want)
	}
	exp, _ := dist.NewExponential(1)
	if _, err := SlowdownConstant(exp); !errors.Is(err, ErrDivergent) {
		t.Fatal("C should diverge for exponential")
	}
}

// TestSlowdownScaleInvariance: slowdown is dimensionless — scaling all job
// sizes by c and the arrival rate by 1/c leaves E[S] unchanged.
func TestSlowdownScaleInvariance(t *testing.T) {
	base := dist.PaperDefault()
	lambda := 0.6 / base.Mean()
	s0, err := ExpectedSlowdown(lambda, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{0.1, 2, 10} {
		scaled, _ := dist.NewScaled(base, 1/c) // sizes ×c
		s, err := ExpectedSlowdown(lambda/c, scaled)
		if err != nil {
			t.Fatal(err)
		}
		if relErr(s, s0) > 1e-9 {
			t.Errorf("scale %v: slowdown %v != %v", c, s, s0)
		}
	}
}

func BenchmarkTaskServerSlowdown(b *testing.B) {
	d := dist.PaperDefault()
	lambda := 0.5 / d.Mean()
	var sink float64
	for i := 0; i < b.N; i++ {
		s, _ := TaskServerSlowdown(lambda, d, 0.7)
		sink += s
	}
	_ = sink
}

// TestTaskServerSlowdownMomentsMatchesDistributionForm: the moments form
// of Theorem 1 is the distribution form's own arithmetic, so the two
// agree bit for bit — and on which error they return — for every dist
// family, including laws whose E[1/X] diverges, across stable, idle,
// saturated and invalid (λ, rate). A stable value is also the bits of
// λ·E[X²]·E[1/X] / (2·(rate − λ·E[X])) written out, the expression the
// closed-form sweep's results have always been.
func TestTaskServerSlowdownMomentsMatchesDistributionForm(t *testing.T) {
	must := func(d dist.Distribution, err error) dist.Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	bp := dist.PaperDefault()
	laws := []dist.Distribution{
		bp,
		dist.MustBoundedPareto(1, 1e3, 1),
		must(dist.NewDeterministic(0.3)),
		must(dist.NewExponential(2)),
		must(dist.NewUniform(0.1, 0.5)),
		must(dist.NewLognormal(-1.5, 0.8)),
		must(dist.NewHyperExp2(0.3, 4)),
		must(dist.NewEmpirical([]float64{0.2, 0.5, 0.1, 0.7})),
		must(dist.NewScaled(bp, 0.4)),
	}
	for _, d := range laws {
		for _, lr := range [][2]float64{{0, 0.5}, {0.5, 1}, {1.7, 0.6}, {3, 0.5}, {10, 0.25}, {-1, 1}, {1, 0}, {1, math.Inf(1)}} {
			lambda, rate := lr[0], lr[1]
			want, wantErr := TaskServerSlowdown(lambda, d, rate)
			got, err := TaskServerSlowdownMoments(lambda, d.Mean(), d.SecondMoment(), d.InverseMoment(), rate)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s λ=%v rate=%v: moments form %v, distribution form %v", d, lambda, rate, got, want)
			}
			for _, sentinel := range []error{ErrUnstable, ErrDivergent} {
				if errors.Is(err, sentinel) != errors.Is(wantErr, sentinel) {
					t.Errorf("%s λ=%v rate=%v: moments form error %v, distribution form %v", d, lambda, rate, err, wantErr)
				}
			}
			if (err == nil) != (wantErr == nil) {
				t.Errorf("%s λ=%v rate=%v: moments form error %v, distribution form %v", d, lambda, rate, err, wantErr)
			}
			if ref := lambda * d.SecondMoment() * d.InverseMoment() / (2 * (rate - lambda*d.Mean())); err == nil && lambda > 0 && math.Float64bits(got) != math.Float64bits(ref) {
				t.Errorf("%s λ=%v rate=%v: %v, want the written-out Theorem 1's %v", d, lambda, rate, got, ref)
			}
		}
	}
}
