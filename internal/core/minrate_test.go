package core

import (
	"math"
	"testing"
)

func minrateWorkload(t *testing.T) Workload {
	t.Helper()
	// Simple synthetic moments: E[X]=1, E[X²]=2, E[1/X]=1.5.
	w := Workload{MeanSize: 1, SecondMoment: 2, InverseMoment: 1.5}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMinRatePassthroughBitIdentical pins the wrapper's transparency
// contract: when no base rate falls below the floor, the wrapped
// allocation is bit-for-bit the base allocation — sim/live parity
// depends on this.
func TestMinRatePassthroughBitIdentical(t *testing.T) {
	w := minrateWorkload(t)
	classes := []Class{{Delta: 1, Lambda: 0.3}, {Delta: 2, Lambda: 0.2}, {Delta: 4, Lambda: 0.1}}
	base, err := PSD{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := MinRate{Base: PSD{}, Min: 1e-3}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Rates {
		if base.Rates[i] != wrapped.Rates[i] {
			t.Fatalf("class %d rate %.17g != base %.17g (must be bit-identical when floor unbound)",
				i, wrapped.Rates[i], base.Rates[i])
		}
		if base.ExpectedSlowdowns[i] != wrapped.ExpectedSlowdowns[i] {
			t.Fatalf("class %d slowdown prediction diverged on passthrough", i)
		}
	}
}

// TestMinRateLiftsStarvedClass: a class with λ=0 gets zero rate from
// PSD; the wrapper must lift it to the floor, keep Σr = 1, and keep
// every loaded class strictly above its demand.
func TestMinRateLiftsStarvedClass(t *testing.T) {
	w := minrateWorkload(t)
	classes := []Class{{Delta: 1, Lambda: 0.5}, {Delta: 2, Lambda: 0}}
	const min = 1e-3
	a, err := MinRate{Base: PSD{}, Min: min}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rates[1] != min {
		t.Fatalf("starved class rate = %v, want exactly the floor %v", a.Rates[1], min)
	}
	sum := a.Rates[0] + a.Rates[1]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("rates sum to %v after redistribution, want 1", sum)
	}
	if !(a.Rates[0] > classes[0].Lambda*w.MeanSize) {
		t.Fatalf("donor rate %v not strictly above its demand %v", a.Rates[0], classes[0].Lambda*w.MeanSize)
	}
	// Predictions were recomputed for the adjusted vector: the donor's
	// slowdown must be the Theorem 1 value under its shaved rate.
	want, err := SlowdownUnderRates(classes, w, a.Rates)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExpectedSlowdowns[0] != want[0] {
		t.Fatalf("slowdown prediction %v not recomputed under adjusted rates (want %v)",
			a.ExpectedSlowdowns[0], want[0])
	}
}

// TestMinRateInfeasibleFloorLiftsPartway: when n·Min ≥ 1 or the donors'
// slack cannot cover the deficit, the starved class is raised part of
// the way — by half the donor's slack above its demand — rather than
// left at 0, and when no class has slack to give the base allocation
// comes through untouched.
func TestMinRateInfeasibleFloorLiftsPartway(t *testing.T) {
	w := minrateWorkload(t)
	for _, tc := range []struct {
		name   string
		lambda float64 // the donor's; the other class is idle
		min    float64
	}{
		{"floor over capacity", 0.5, 0.6}, // 0.6 × 2 classes > capacity 1
		{"slack short", 0.98, 0.05},       // ρ near 1 leaves the donor 0.02
	} {
		classes := []Class{{Delta: 1, Lambda: tc.lambda}, {Delta: 2, Lambda: 0}}
		base, err := PSD{}.Allocate(classes, w)
		if err != nil {
			t.Fatal(err)
		}
		if base.Rates[1] != 0 {
			t.Fatalf("%s: PSD gives the idle class %v, want 0", tc.name, base.Rates[1])
		}
		a, err := MinRate{Base: PSD{}, Min: tc.min}.Allocate(classes, w)
		if err != nil {
			t.Fatal(err)
		}
		demand := tc.lambda * w.MeanSize
		if want := (base.Rates[0] - demand) / 2; math.Abs(a.Rates[1]-want) > 1e-15 {
			t.Errorf("%s: idle class rate %v, want half the donor's slack %v", tc.name, a.Rates[1], want)
		}
		if !(a.Rates[0] > demand) || math.Abs(a.Rates[0]+a.Rates[1]-1) > 1e-12 {
			t.Errorf("%s: rates %v: donor not above its demand %v or sum not 1", tc.name, a.Rates, demand)
		}
	}
	// No donor: the equal split leaves both classes under the floor.
	classes := []Class{{Delta: 1, Lambda: 0.4}, {Delta: 2, Lambda: 0}}
	a, err := MinRate{Base: EqualShare{}, Min: 0.6}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rates[0] != 0.5 || a.Rates[1] != 0.5 {
		t.Fatalf("rates %v with no donor, want the base equal split", a.Rates)
	}
}

// TestMinRateDisabledAndErrors covers the degenerate configurations.
func TestMinRateDisabledAndErrors(t *testing.T) {
	w := minrateWorkload(t)
	classes := []Class{{Delta: 1, Lambda: 0.5}, {Delta: 2, Lambda: 0}}
	base, err := PSD{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MinRate{Base: PSD{}, Min: 0}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rates[1] != base.Rates[1] {
		t.Fatalf("Min=0 must disable the floor: rate %v != base %v", a.Rates[1], base.Rates[1])
	}
	if _, err := (MinRate{Min: 0.1}).Allocate(classes, w); err == nil {
		t.Fatal("nil base allocator must error")
	}
	if got := (MinRate{Base: PSD{}, Min: 0.1}).Name(); got != "psd+minrate" {
		t.Fatalf("Name() = %q", got)
	}
	// Base errors (infeasible load) propagate.
	over := []Class{{Delta: 1, Lambda: 2}}
	if _, err := (MinRate{Base: PSD{}, Min: 0.1}).Allocate(over, w); err == nil {
		t.Fatal("infeasible base load must propagate the error")
	}
}

// TestMinRateNeverInstallsZero pins the floor's fallback when it cannot
// be met: δ = (1, 2, 4), class 1 idle (λ̂ = 0) and the other two sharing
// ρ̂ near 1. At ρ̂ = 0.9995 the deficit exceeds the donors' slack; at
// ρ̂ = 0.999 the two are equal in exact arithmetic, so the redistribution
// would shave the donors down to their demand. Either way every class
// must keep a strictly positive rate, every donor a rate strictly above
// its demand λ̂E[X], and the rates must still sum to 1.
func TestMinRateNeverInstallsZero(t *testing.T) {
	w := minrateWorkload(t)
	for _, rho := range []float64{0.999, 0.9995, 0.99999} {
		classes := []Class{{Delta: 1}, {Delta: 2, Lambda: rho / 2}, {Delta: 4, Lambda: rho / 2}}
		a, err := MinRate{Base: PSD{}, Min: 1e-3}.Allocate(classes, w)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i, r := range a.Rates {
			sum += r
			if !(r > 0) {
				t.Errorf("ρ̂ = %v: class %d rate %v, want > 0 (rates %v)", rho, i+1, r, a.Rates)
			}
			if d := classes[i].Lambda * w.MeanSize; i > 0 && !(r > d) {
				t.Errorf("ρ̂ = %v: donor class %d rate %.17g not above its demand %.17g", rho, i+1, r, d)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("ρ̂ = %v: rates %v sum to %v, want 1", rho, a.Rates, sum)
		}
		want, err := SlowdownUnderRates(classes, w, a.Rates)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if a.ExpectedSlowdowns[i] != want[i] {
				t.Errorf("ρ̂ = %v: class %d prediction %v, want %v under the installed rates", rho, i+1, a.ExpectedSlowdowns[i], want[i])
			}
		}
	}
}
