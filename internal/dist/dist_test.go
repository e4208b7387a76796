package dist_test

import (
	"math"
	"strings"
	"testing"

	"psd/internal/dist"
)

func TestConstructorValidation(t *testing.T) {
	cases := []struct {
		name string
		make func() (dist.Distribution, error)
	}{
		{"deterministic zero", func() (dist.Distribution, error) { return dist.NewDeterministic(0) }},
		{"deterministic negative", func() (dist.Distribution, error) { return dist.NewDeterministic(-1) }},
		{"exponential zero rate", func() (dist.Distribution, error) { return dist.NewExponential(0) }},
		{"exponential NaN rate", func() (dist.Distribution, error) { return dist.NewExponential(math.NaN()) }},
		{"uniform zero lower", func() (dist.Distribution, error) { return dist.NewUniform(0, 1) }},
		{"uniform inverted", func() (dist.Distribution, error) { return dist.NewUniform(2, 1) }},
		{"uniform degenerate", func() (dist.Distribution, error) { return dist.NewUniform(1, 1) }},
		{"lognormal Inf mu", func() (dist.Distribution, error) { return dist.NewLognormal(math.Inf(1), 1) }},
		{"lognormal zero sigma", func() (dist.Distribution, error) { return dist.NewLognormal(0, 0) }},
		{"hyperexp scv below 1", func() (dist.Distribution, error) { return dist.NewHyperExp2(1, 0.5) }},
		{"hyperexp zero mean", func() (dist.Distribution, error) { return dist.NewHyperExp2(0, 2) }},
		{"hyperexp scv degenerate", func() (dist.Distribution, error) { return dist.NewHyperExp2(1, 1e17) }},
		{"empirical empty", func() (dist.Distribution, error) { return dist.NewEmpirical(nil) }},
		{"empirical negative size", func() (dist.Distribution, error) { return dist.NewEmpirical([]float64{1, -2}) }},
		{"empirical zero size", func() (dist.Distribution, error) { return dist.NewEmpirical([]float64{1, 0}) }},
		{"scaled nil", func() (dist.Distribution, error) { return dist.NewScaled(nil, 1) }},
		{"scaled zero rate", func() (dist.Distribution, error) { return dist.NewScaled(dist.PaperDefault(), 0) }},
		{"deterministic second moment overflows", func() (dist.Distribution, error) { return dist.NewDeterministic(1e200) }},
		{"exponential second moment overflows", func() (dist.Distribution, error) { return dist.NewExponential(1e-200) }},
		{"uniform second moment overflows", func() (dist.Distribution, error) { return dist.NewUniform(1, 1e200) }},
		{"lognormal mean overflows", func() (dist.Distribution, error) { return dist.NewLognormal(400, 30) }},
		{"scaled second moment overflows", func() (dist.Distribution, error) {
			return dist.NewScaled(must(dist.NewDeterministic(1e150)), 1e-150)
		}},
	}
	for _, tc := range cases {
		if _, err := tc.make(); err == nil {
			t.Errorf("%s: constructor accepted invalid input", tc.name)
		}
	}
}

// TestDivergenceContract documents which laws have no finite E[1/X] —
// the condition queueing.ErrDivergent exists to report: a density with
// mass at (or heavily concentrated near) zero size makes expected
// slowdown infinite.
func TestDivergenceContract(t *testing.T) {
	divergent := []dist.Distribution{
		must(dist.NewExponential(1)),
		must(dist.NewHyperExp2(1, 4)),
	}
	for _, d := range divergent {
		if !math.IsInf(d.InverseMoment(), 1) {
			t.Errorf("%s: E[1/X] = %v, want +Inf", d, d.InverseMoment())
		}
	}
	finite := []dist.Distribution{
		dist.PaperDefault(),
		must(dist.NewDeterministic(1)),
		must(dist.NewUniform(0.5, 2)),
		must(dist.NewLognormal(0, 1)),
		must(dist.NewEmpirical([]float64{1, 2})),
	}
	for _, d := range finite {
		if inv := d.InverseMoment(); math.IsInf(inv, 1) || !(inv > 0) {
			t.Errorf("%s: E[1/X] = %v, want finite positive", d, inv)
		}
	}
}

func TestHyperExp2DegeneratesToExponential(t *testing.T) {
	h, err := dist.NewHyperExp2(2, 1) // scv = 1
	if err != nil {
		t.Fatal(err)
	}
	e := must(dist.NewExponential(0.5)) // mean 2
	if relErr(h.Mean(), e.Mean()) > 1e-12 || relErr(h.SecondMoment(), e.SecondMoment()) > 1e-12 {
		t.Errorf("H2(scv=1) moments (%v, %v) != exponential (%v, %v)",
			h.Mean(), h.SecondMoment(), e.Mean(), e.SecondMoment())
	}
}

func TestHyperExp2HitsTargetSCV(t *testing.T) {
	for _, scv := range []float64{1, 1.5, 4, 25, 100} {
		h, err := dist.NewHyperExp2(3, scv)
		if err != nil {
			t.Fatalf("scv=%v: %v", scv, err)
		}
		gotSCV := h.SecondMoment()/(h.Mean()*h.Mean()) - 1
		if relErr(gotSCV, scv) > 1e-12 {
			t.Errorf("scv=%v: fit achieved %v", scv, gotSCV)
		}
		if relErr(h.Mean(), 3) > 1e-12 {
			t.Errorf("scv=%v: mean %v, want 3", scv, h.Mean())
		}
	}
}

func TestEmpiricalExactMoments(t *testing.T) {
	trace := []float64{0.5, 1, 2, 4}
	d, err := dist.NewEmpirical(trace)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := (0.5 + 1 + 2 + 4) / 4.0
	wantSecond := (0.25 + 1 + 4 + 16) / 4.0
	wantInv := (2 + 1 + 0.5 + 0.25) / 4.0
	if relErr(d.Mean(), wantMean) > 1e-15 ||
		relErr(d.SecondMoment(), wantSecond) > 1e-15 ||
		relErr(d.InverseMoment(), wantInv) > 1e-15 {
		t.Errorf("moments (%v, %v, %v), want (%v, %v, %v)",
			d.Mean(), d.SecondMoment(), d.InverseMoment(), wantMean, wantSecond, wantInv)
	}
}

// TestEmpiricalCopiesTrace: mutating the caller's slice after
// construction must not change the law.
func TestEmpiricalCopiesTrace(t *testing.T) {
	trace := []float64{1, 2, 3}
	d, err := dist.NewEmpirical(trace)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Mean()
	trace[0] = 1000
	if d.Mean() != before {
		t.Error("empirical law aliased the caller's slice")
	}
}

func TestStringNamesFamily(t *testing.T) {
	for want, d := range map[string]dist.Distribution{
		"BoundedPareto": dist.PaperDefault(),
		"Deterministic": must(dist.NewDeterministic(1)),
		"Exponential":   must(dist.NewExponential(1)),
		"Uniform":       must(dist.NewUniform(1, 2)),
		"Lognormal":     must(dist.NewLognormal(0, 1)),
		"HyperExp2":     must(dist.NewHyperExp2(1, 2)),
		"Empirical":     must(dist.NewEmpirical([]float64{1})),
		"Scaled":        must(dist.NewScaled(dist.PaperDefault(), 2)),
	} {
		if !strings.Contains(d.String(), want) {
			t.Errorf("String %q does not name %s", d, want)
		}
	}
}
