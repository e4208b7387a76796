package admission

import (
	"math"
	"testing"
)

func TestUtilizationBoundValidation(t *testing.T) {
	if _, err := NewUtilizationBound(0, 100); err == nil {
		t.Error("accepted bound 0")
	}
	if _, err := NewUtilizationBound(1.2, 100); err == nil {
		t.Error("accepted bound > 1")
	}
	if _, err := NewUtilizationBound(0.9, 0); err == nil {
		t.Error("accepted tau 0")
	}
}

func TestUtilizationBoundRejectsOverload(t *testing.T) {
	u, err := NewUtilizationBound(0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Offer load 1.0 (size 1 every time unit): about half must be shed.
	admitted := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if u.Admit(0, 1, float64(i)) {
			admitted++
		}
	}
	frac := float64(admitted) / n
	if math.Abs(frac-0.5) > 0.08 {
		t.Fatalf("admitted fraction %v, want ≈ bound 0.5", frac)
	}
}

func TestUtilizationBoundAdmitsUnderload(t *testing.T) {
	u, _ := NewUtilizationBound(0.9, 100)
	// Offer load 0.5: everything fits under the bound.
	rejected := 0
	for i := 0; i < 2000; i++ {
		if !u.Admit(0, 0.5, float64(i)) {
			rejected++
		}
	}
	if rejected > 0 {
		t.Fatalf("rejected %d requests at load 0.5 under bound 0.9", rejected)
	}
}

func TestUtilizationBoundDecays(t *testing.T) {
	u, _ := NewUtilizationBound(0.5, 10)
	// Saturate the integrator…
	for i := 0; i < 100; i++ {
		u.Admit(0, 1, float64(i))
	}
	if u.Admit(0, 1, 100) {
		// May or may not admit right at the boundary; force saturation:
		for i := 101; i < 120; i++ {
			u.Admit(0, 5, float64(i))
		}
	}
	levelBefore := u.level
	// …then go idle for many time constants: the estimate must decay.
	if !u.Admit(0, 1, 400) {
		t.Fatal("controller did not recover after idle period")
	}
	if residual := u.level - 1; !(residual < levelBefore/100) {
		t.Fatalf("level did not decay: %v -> %v before the new admit", levelBefore, residual)
	}
}

func TestTokenBucketValidation(t *testing.T) {
	if _, err := NewTokenBucket(nil, 1); err == nil {
		t.Error("accepted empty rates")
	}
	if _, err := NewTokenBucket([]float64{0.5, 0}, 1); err == nil {
		t.Error("accepted zero rate")
	}
	if _, err := NewTokenBucket([]float64{0.5}, 0); err == nil {
		t.Error("accepted zero burst")
	}
}

func TestTokenBucketRateEnforcement(t *testing.T) {
	tb, err := NewTokenBucket([]float64{0.3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Offer size-1 requests every time unit (load 1.0) against rate 0.3:
	// roughly 30% should pass once the initial burst drains.
	admitted := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if tb.Admit(0, 1, float64(i)) {
			admitted++
		}
	}
	frac := float64(admitted) / n
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("admitted fraction %v, want ≈ 0.3", frac)
	}
}

func TestTokenBucketIsolatesClasses(t *testing.T) {
	tb, _ := NewTokenBucket([]float64{0.4, 0.4}, 1)
	// Class 0 floods; class 1 offers load 0.2 and must be untouched.
	rejected1 := 0
	now := 0.0
	for i := 0; i < 4000; i++ {
		now += 0.5
		tb.Admit(0, 5, now) // flood
		if i%4 == 0 {       // class 1: size 0.4 every 2 tu = load 0.2
			if !tb.Admit(1, 0.4, now) {
				rejected1++
			}
		}
	}
	if rejected1 > 0 {
		t.Fatalf("flooding class 0 caused %d class-1 rejections", rejected1)
	}
}

func TestTokenBucketBurstCap(t *testing.T) {
	tb, _ := NewTokenBucket([]float64{1}, 3)
	// After a long idle period credit is capped at burst, not unbounded.
	if !tb.Admit(0, 3, 1e6) {
		t.Fatal("full burst should be admitted")
	}
	if tb.tokens[0] != 0 {
		t.Fatalf("tokens after a full burst = %v, want 0 (credit capped at 3)", tb.tokens[0])
	}
	if tb.Admit(0, 3, 1e6) {
		t.Fatal("second burst immediately after should be rejected")
	}
}

func TestTokenBucketBadClass(t *testing.T) {
	tb, _ := NewTokenBucket([]float64{1}, 1)
	if tb.Admit(5, 0.1, 0) || tb.Admit(-1, 0.1, 0) {
		t.Fatal("out-of-range class admitted")
	}
}

func TestTokenBucketRefund(t *testing.T) {
	tb, _ := NewTokenBucket([]float64{1e-9, 1e-9}, 10)
	if !tb.Admit(0, 8, 0) {
		t.Fatal("size-8 should fit burst 10")
	}
	tb.Refund(0, 8, 0)
	if got := tb.tokens[0]; got != 10 {
		t.Fatalf("tokens after refund = %v, want 10", got)
	}
	tb.Refund(0, 99, 0) // over-refund is capped at burst
	if got := tb.tokens[0]; got != 10 {
		t.Fatalf("tokens after over-refund = %v, want cap 10", got)
	}
	tb.Refund(7, 1, 0) // out-of-range class is a no-op
}

func TestUtilizationBoundRefund(t *testing.T) {
	u, _ := NewUtilizationBound(0.5, 100)
	if !u.Admit(0, 40, 0) {
		t.Fatal("size-40 should pass bound 0.5·tau 100")
	}
	if u.Admit(0, 40, 0) {
		t.Fatal("second size-40 should exceed the bound")
	}
	u.Refund(0, 40, 0)
	if !u.Admit(0, 40, 0) {
		t.Fatal("refunded credit should re-admit the same demand")
	}
	u.Refund(0, 1e9, 0) // over-refund clamps at zero level
	if u.level != 0 {
		t.Fatalf("level after over-refund = %v, want 0", u.level)
	}
}
