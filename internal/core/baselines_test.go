package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestEqualShare(t *testing.T) {
	w := paperWorkload(t)
	classes := equalLoadClasses([]float64{1, 2}, 0.6, w)
	alloc, err := EqualShare{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Rates[0] != 0.5 || alloc.Rates[1] != 0.5 {
		t.Fatalf("rates = %v, want [0.5 0.5]", alloc.Rates)
	}
	// Equal loads + equal rates ⇒ identical slowdowns: no differentiation.
	if relErr(alloc.ExpectedSlowdowns[0], alloc.ExpectedSlowdowns[1]) > 1e-12 {
		t.Fatalf("equal share should not differentiate: %v", alloc.ExpectedSlowdowns)
	}
}

func TestEqualShareOverloadedClass(t *testing.T) {
	w := paperWorkload(t)
	// Class 0 alone demands 0.6 > 0.5 share.
	classes := []Class{
		{Delta: 1, Lambda: 0.6 / w.MeanSize},
		{Delta: 2, Lambda: 0.1 / w.MeanSize},
	}
	if _, err := (EqualShare{}).Allocate(classes, w); err == nil {
		t.Fatal("equal share should reject class demand above its share")
	}
}

func TestDemandProportionalEqualizesSlowdowns(t *testing.T) {
	w := paperWorkload(t)
	f := func(rawRho, rawSkew float64) bool {
		rho := 0.1 + math.Mod(math.Abs(rawRho), 1)*0.8
		skew := 0.1 + math.Mod(math.Abs(rawSkew), 1)*0.8
		classes := []Class{
			{Delta: 1, Lambda: rho * skew / w.MeanSize},
			{Delta: 4, Lambda: rho * (1 - skew) / w.MeanSize},
		}
		alloc, err := DemandProportional{}.Allocate(classes, w)
		if err != nil {
			return false
		}
		// Demand-proportional rates equalize utilization, hence E[S].
		return relErr(alloc.ExpectedSlowdowns[0], alloc.ExpectedSlowdowns[1]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDemandProportionalZeroLoad(t *testing.T) {
	w := paperWorkload(t)
	classes := []Class{{Delta: 1, Lambda: 0}, {Delta: 2, Lambda: 0}}
	alloc, err := DemandProportional{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(alloc.Rates[0], 0.5) > 1e-12 {
		t.Fatalf("zero-load split = %v", alloc.Rates)
	}
}

// TestPDDAchievesDelayRatios verifies the PDD baseline solves its own
// objective: P-K waiting times under the computed rates are in ratio δ.
func TestPDDAchievesDelayRatios(t *testing.T) {
	w := paperWorkload(t)
	f := func(rawRho, rawD2 float64) bool {
		rho := 0.1 + math.Mod(math.Abs(rawRho), 1)*0.8
		d2 := 1.5 + math.Mod(math.Abs(rawD2), 1)*6
		classes := equalLoadClasses([]float64{1, d2}, rho, w)
		alloc, err := PDD{}.Allocate(classes, w)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, r := range alloc.Rates {
			sum += r
		}
		if math.Abs(sum-1) > 1e-6 {
			return false
		}
		// E[W_i] = λ_iE[X²]/(2 r_i (r_i − λ_iE[X]))
		wait := func(i int) float64 {
			c := classes[i]
			r := alloc.Rates[i]
			return c.Lambda * w.SecondMoment / (2 * r * (r - c.Lambda*w.MeanSize))
		}
		return relErr(wait(1)/wait(0), d2) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPDDSlowdownRatiosSkewed confirms the paper's argument: the PDD
// allocation yields slowdown ratios of δ₂·r₂/(δ₁·r₁) ≠ δ₂/δ₁ whenever the
// rates differ, so PDD cannot provide PSD.
func TestPDDSlowdownRatiosSkewed(t *testing.T) {
	w := paperWorkload(t)
	classes := equalLoadClasses([]float64{1, 4}, 0.6, w)
	alloc, err := PDD{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	slowRatio := alloc.ExpectedSlowdowns[1] / alloc.ExpectedSlowdowns[0]
	wantSkewed := 4 * alloc.Rates[1] / alloc.Rates[0]
	if relErr(slowRatio, wantSkewed) > 1e-4 {
		t.Fatalf("slowdown ratio %v, expected skewed %v", slowRatio, wantSkewed)
	}
	if relErr(slowRatio, 4) < 0.01 {
		t.Fatalf("PDD accidentally achieved the PSD target ratio %v — rates %v", slowRatio, alloc.Rates)
	}
}

func TestPDDAllIdle(t *testing.T) {
	w := paperWorkload(t)
	classes := []Class{{Delta: 1, Lambda: 0}, {Delta: 2, Lambda: 0}}
	alloc, err := PDD{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(alloc.Rates[0]+alloc.Rates[1], 1) > 1e-9 {
		t.Fatalf("idle PDD rates = %v", alloc.Rates)
	}
}

func TestPDDWithIdleClass(t *testing.T) {
	w := paperWorkload(t)
	classes := []Class{
		{Delta: 1, Lambda: 0.4 / w.MeanSize},
		{Delta: 2, Lambda: 0},
	}
	alloc, err := PDD{}.Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Rates[0] < 0.999 {
		t.Fatalf("active class should absorb idle capacity, rates = %v", alloc.Rates)
	}
}

// TestAllAllocatorsStableRates: every allocator returns rates that keep
// every active class stable and sum to ≤ 1 (+ε). The registry supplies
// the policy zoo, so a newly registered policy is covered automatically;
// fixed shares ride along as the demand-blind outsider.
func TestAllAllocatorsStableRates(t *testing.T) {
	w := paperWorkload(t)
	allocators := []Allocator{fixedShares{2.0 / 3, 1.0 / 3}}
	for _, p := range Policies() {
		allocators = append(allocators, p.New())
	}
	for _, rho := range []float64{0.2, 0.5, 0.8} {
		classes := equalLoadClasses([]float64{1, 2}, rho, w)
		for _, a := range allocators {
			alloc, err := a.Allocate(classes, w)
			if err != nil {
				// Fixed shares (2/3, 1/3): class 1 gets 1/3 and
				// demands rho/2; stable when rho/2 < 1/3, i.e. rho < 2/3.
				continue
			}
			sum := 0.0
			for i, r := range alloc.Rates {
				sum += r
				if classes[i].Lambda > 0 && r <= classes[i].Lambda*w.MeanSize {
					// Fixed shares may legitimately starve a class;
					// the prediction must then be +Inf, not bogus.
					if !math.IsInf(alloc.ExpectedSlowdowns[i], 1) {
						t.Errorf("%s rho=%v class %d starved but slowdown=%v",
							a.Name(), rho, i, alloc.ExpectedSlowdowns[i])
					}
				}
			}
			if sum > 1+1e-9 {
				t.Errorf("%s rho=%v rates sum to %v > 1", a.Name(), rho, sum)
			}
		}
	}
}

// fixedShares hands out the same rates whatever the demand: an operator
// who provisions shares once and never adapts.
type fixedShares []float64

func (fixedShares) Name() string { return "fixed" }

func (f fixedShares) Allocate(classes []Class, w Workload) (Allocation, error) {
	rho, err := validateClasses(classes, w)
	if err != nil {
		return Allocation{}, err
	}
	rates := append([]float64(nil), f...)
	sl, err := SlowdownUnderRates(classes, w, rates)
	if err != nil {
		return Allocation{}, err
	}
	return Allocation{Rates: rates, ExpectedSlowdowns: sl, Utilization: rho}, nil
}

// tickClassDeltas are the class counts the allocator gate and benchmark
// run at: the paper's 3 classes and the zoo's 8.
var tickClassDeltas = [][]float64{{1, 2, 3}, {1, 2, 3, 4, 5, 6, 7, 8}}

// TestAllocateIntoNoAlloc is the gate behind InPlaceAllocator's promise:
// once dst has capacity, a control tick's allocation touches no heap, for
// every registered policy.
func TestAllocateIntoNoAlloc(t *testing.T) {
	w := paperWorkload(t)
	for _, p := range Policies() {
		ipa := p.New().(InPlaceAllocator) // Register enforces the assertion
		for _, deltas := range tickClassDeltas {
			classes := equalLoadClasses(deltas, 0.7, w)
			var dst Allocation
			allocs := testing.AllocsPerRun(100, func() {
				if err := ipa.AllocateInto(&dst, classes, w); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s, %d classes: %v allocs per AllocateInto, want 0", p.Name, len(deltas), allocs)
			}
		}
	}
}

// TestAllocateIntoRefusesWithoutAllocating extends the zero-allocation
// gate to the refusal paths a control loop meets tick after tick under
// overload: every registered policy × {feasible, ρ ≥ 1, one class over
// its 1/n equal share at ρ < 1} allocates nothing per call, over 100
// repeated calls and over one block of 10 000 (AllocsPerRun truncates
// its average, so the block is what catches a handful per call), and
// every refusal is an ErrInfeasible.
func TestAllocateIntoRefusesWithoutAllocating(t *testing.T) {
	const block = 10_000
	w := paperWorkload(t)
	deltas := []float64{1, 2, 4}
	inputs := []struct {
		name    string
		classes []Class
	}{
		{"feasible", equalLoadClasses(deltas, 0.6, w)},
		{"overloaded", equalLoadClasses(deltas, 1.2, w)},
		{"over-equal-share", []Class{
			{Delta: 1, Lambda: 0.5 / w.MeanSize},
			{Delta: 2, Lambda: 0.05 / w.MeanSize},
			{Delta: 4, Lambda: 0.05 / w.MeanSize},
		}},
	}
	for _, name := range Names() {
		p, _ := Lookup(name)
		ipa := p.New().(InPlaceAllocator)
		for _, in := range inputs {
			var dst Allocation
			err := ipa.AllocateInto(&dst, in.classes, w) // sizes dst
			if err != nil && !errors.Is(err, ErrInfeasible) {
				t.Errorf("%s/%s: refusal %v is not ErrInfeasible", name, in.name, err)
			}
			if name == "equal" && in.name != "feasible" && err == nil {
				t.Errorf("equal/%s: allocated, want a refusal", in.name)
			}
			call := func() { _ = ipa.AllocateInto(&dst, in.classes, w) }
			if avg := testing.AllocsPerRun(100, call); avg != 0 {
				t.Errorf("%s/%s: %v allocs per AllocateInto, want 0", name, in.name, avg)
			}
			total := testing.AllocsPerRun(1, func() {
				for i := 0; i < block; i++ {
					call()
				}
			})
			if total > 0.01*block {
				t.Errorf("%s/%s: %v allocs over %d calls, want ≤ %v", name, in.name, total, block, 0.01*block)
			}
		}
	}
}

// BenchmarkAllocateInto times every registered policy on the path the
// control tick takes (AllocateInto into a retained Allocation).
func BenchmarkAllocateInto(b *testing.B) {
	w := paperWorkload(b)
	for _, p := range Policies() {
		for _, deltas := range tickClassDeltas {
			classes := equalLoadClasses(deltas, 0.7, w)
			b.Run(fmt.Sprintf("%s/%d", p.Name, len(deltas)), func(b *testing.B) {
				al := p.New()
				var dst Allocation
				for b.Loop() {
					if err := AllocateInto(al, &dst, classes, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
