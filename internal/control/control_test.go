package control

import (
	"math"
	"testing"
	"testing/quick"
)

func relErr(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// estimatorLoop builds a Loop whose estimator the tests below drive; the
// allocator only runs after the estimate, so its outcome is ignored.
func estimatorLoop(t *testing.T, classes int, kind EstimatorKind, history int, alpha, window float64) *Loop {
	t.Helper()
	deltas := make([]float64, classes)
	for i := range deltas {
		deltas[i] = float64(i + 1)
	}
	cfg := loopConfig(deltas)
	cfg.Window = window
	cfg.Estimator = kind
	cfg.HistoryWindows = history
	cfg.EWMAAlpha = alpha
	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

// observe closes one estimation window on lp.
func observe(t *testing.T, lp *Loop, counts, work []float64) {
	t.Helper()
	if _, err := lp.Tick(TickInput{Counts: counts, Work: work}); err == ErrDimension {
		t.Fatal(err)
	}
}

func lambdas(lp *Loop) []float64 {
	out := make([]float64, lp.Classes())
	lp.LambdasInto(out)
	return out
}

func loads(lp *Loop) []float64 {
	out := make([]float64, lp.Classes())
	lp.LoadsInto(out)
	return out
}

func TestWindowEstimatorBasics(t *testing.T) {
	e := estimatorLoop(t, 2, Window, 3, 0, 1000)
	if l := lambdas(e); l[0] != 0 || l[1] != 0 {
		t.Fatalf("empty estimator lambdas = %v", l)
	}
	observe(t, e, []float64{100, 50}, []float64{30, 15})
	l := lambdas(e)
	if relErr(l[0], 0.1) > 1e-12 || relErr(l[1], 0.05) > 1e-12 {
		t.Fatalf("lambdas = %v", l)
	}
	if w := loads(e); relErr(w[0], 0.03) > 1e-12 {
		t.Fatalf("loads = %v", w)
	}
}

func TestWindowEstimatorAveragesHistory(t *testing.T) {
	e := estimatorLoop(t, 1, Window, 5, 0, 1000)
	for _, c := range []float64{100, 200, 300, 400, 500} {
		observe(t, e, []float64{c}, []float64{c})
	}
	// Mean of last 5 windows: 300 arrivals per 1000 tu.
	if l := lambdas(e); relErr(l[0], 0.3) > 1e-12 {
		t.Fatalf("lambda = %v, want 0.3", l[0])
	}
	// Sixth window evicts the first.
	observe(t, e, []float64{600}, []float64{600})
	if l := lambdas(e); relErr(l[0], 0.4) > 1e-12 {
		t.Fatalf("lambda after eviction = %v, want 0.4", l[0])
	}
}

func TestWindowEstimatorPartialFill(t *testing.T) {
	e := estimatorLoop(t, 1, Window, 5, 0, 100)
	observe(t, e, []float64{10}, []float64{10})
	observe(t, e, []float64{20}, []float64{20})
	// Two windows only: mean over 200 tu = 15/100.
	if l := lambdas(e); relErr(l[0], 0.15) > 1e-12 {
		t.Fatalf("partial-fill lambda = %v, want 0.15", l[0])
	}
}

func TestWindowEstimatorValidation(t *testing.T) {
	for name, mut := range map[string]func(*LoopConfig){
		"zero classes":     func(c *LoopConfig) { c.Deltas = nil },
		"negative history": func(c *LoopConfig) { c.HistoryWindows = -1 },
		"zero window":      func(c *LoopConfig) { c.Window = 0 },
	} {
		cfg := loopConfig([]float64{1})
		cfg.Window = 1000
		mut(&cfg)
		if _, err := NewLoop(cfg); err == nil {
			t.Errorf("accepted %s", name)
		}
	}
	e := estimatorLoop(t, 2, Window, 5, 0, 1000)
	if _, err := e.Tick(TickInput{Counts: []float64{1}, Work: []float64{1, 2}}); err != ErrDimension {
		t.Error("dimension mismatch not detected")
	}
}

func TestEWMAEstimatorConvergence(t *testing.T) {
	e := estimatorLoop(t, 1, EWMA, 0, 0.3, 1000)
	// Constant input converges exactly to the input rate.
	for i := 0; i < 50; i++ {
		observe(t, e, []float64{250}, []float64{75})
	}
	if l := lambdas(e); relErr(l[0], 0.25) > 1e-9 {
		t.Fatalf("EWMA lambda = %v, want 0.25", l[0])
	}
	if w := loads(e); relErr(w[0], 0.075) > 1e-9 {
		t.Fatalf("EWMA load = %v, want 0.075", w[0])
	}
}

func TestEWMAPrimesOnFirstWindow(t *testing.T) {
	e := estimatorLoop(t, 1, EWMA, 0, 0.1, 100)
	observe(t, e, []float64{40}, []float64{10})
	// First observation primes directly (no decay from zero).
	if l := lambdas(e); relErr(l[0], 0.4) > 1e-12 {
		t.Fatalf("primed lambda = %v, want 0.4", l[0])
	}
}

func TestEWMAReactsFasterThanWindow(t *testing.T) {
	// After a step change, EWMA(α=0.5) should be closer to the new level
	// than a 5-window mean after two windows.
	ew := estimatorLoop(t, 1, EWMA, 0, 0.5, 100)
	win := estimatorLoop(t, 1, Window, 5, 0, 100)
	for i := 0; i < 5; i++ {
		observe(t, ew, []float64{10}, []float64{10})
		observe(t, win, []float64{10}, []float64{10})
	}
	for i := 0; i < 2; i++ {
		observe(t, ew, []float64{100}, []float64{100})
		observe(t, win, []float64{100}, []float64{100})
	}
	newLevel := 1.0
	gapEwma := math.Abs(lambdas(ew)[0] - newLevel)
	gapWin := math.Abs(lambdas(win)[0] - newLevel)
	if gapEwma >= gapWin {
		t.Fatalf("EWMA gap %v not smaller than window gap %v", gapEwma, gapWin)
	}
}

func TestEWMAValidation(t *testing.T) {
	// A zero alpha takes the default; negative and > 1 are refused.
	for _, alpha := range []float64{-0.1, 1.5, math.NaN()} {
		cfg := loopConfig([]float64{1})
		cfg.Estimator = EWMA
		cfg.EWMAAlpha = alpha
		if _, err := NewLoop(cfg); err == nil {
			t.Errorf("accepted alpha=%v", alpha)
		}
	}
}

// newRatioController arms a zero RatioController, the way Loop does.
func newRatioController(target []float64, gain, maxTrim float64) (*RatioController, error) {
	r := new(RatioController)
	return r, r.ResetTargets(target, gain, maxTrim)
}

func TestRatioControllerConvergesOnBiasedPlant(t *testing.T) {
	// Plant: measured ratio = 0.6 × (δeff ratio) — a systematically
	// biased system. The controller must trim δeff so the measured ratio
	// hits the target of 2.
	rc, err := newRatioController([]float64{1, 2}, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	var measuredRatio float64
	for i := 0; i < 60; i++ {
		deltas := deltasOf(rc)
		measuredRatio = 0.6 * deltas[1] / deltas[0]
		if err := rc.Update([]float64{1, measuredRatio}); err != nil {
			t.Fatal(err)
		}
	}
	if relErr(measuredRatio, 2) > 0.02 {
		t.Fatalf("measured ratio converged to %v, want 2", measuredRatio)
	}
}

func TestRatioControllerClamps(t *testing.T) {
	rc, _ := newRatioController([]float64{1, 2}, 1, 3)
	// Feed absurd measurements driving δeff to the clamp.
	for i := 0; i < 50; i++ {
		_ = rc.Update([]float64{1, 1000})
	}
	d := deltasOf(rc)
	if d[1] < 2.0/3-1e-9 {
		t.Fatalf("delta2 %v fell below clamp %v", d[1], 2.0/3)
	}
	for i := 0; i < 100; i++ {
		_ = rc.Update([]float64{1, 0.001})
	}
	d = deltasOf(rc)
	if d[1] > 6+1e-9 {
		t.Fatalf("delta2 %v above clamp 6", d[1])
	}
}

func TestRatioControllerSkipsMissingData(t *testing.T) {
	rc, _ := newRatioController([]float64{1, 2}, 0.5, 4)
	before := deltasOf(rc)
	_ = rc.Update([]float64{math.NaN(), 5}) // no reference signal
	_ = rc.Update([]float64{1, math.NaN()}) // no class-1 signal
	_ = rc.Update([]float64{1, 0})          // zero measurement
	after := deltasOf(rc)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("deltas changed on missing data: %v -> %v", before, after)
		}
	}
}

// deltasOf copies rc's effective δ vector.
func deltasOf(rc *RatioController) []float64 {
	d := make([]float64, len(rc.eff))
	rc.DeltasInto(d)
	return d
}

func TestRatioControllerReset(t *testing.T) {
	rc, _ := newRatioController([]float64{1, 2}, 1, 4)
	_ = rc.Update([]float64{1, 10})
	// Re-arming for the same targets (what Loop.Reset does) restores them.
	if err := rc.ResetTargets([]float64{1, 2}, 1, 4); err != nil {
		t.Fatal(err)
	}
	d := deltasOf(rc)
	if d[0] != 1 || d[1] != 2 {
		t.Fatalf("reset deltas = %v", d)
	}
}

func TestRatioControllerValidation(t *testing.T) {
	if _, err := newRatioController(nil, 0.5, 4); err == nil {
		t.Error("accepted empty targets")
	}
	if _, err := newRatioController([]float64{1, -2}, 0.5, 4); err == nil {
		t.Error("accepted negative delta")
	}
	if _, err := newRatioController([]float64{1, 2}, 0, 4); err == nil {
		t.Error("accepted zero gain")
	}
	if _, err := newRatioController([]float64{1, 2}, 0.5, 1); err == nil {
		t.Error("accepted maxTrim=1")
	}
	rc, _ := newRatioController([]float64{1, 2}, 0.5, 4)
	if err := rc.Update([]float64{1}); err != ErrDimension {
		t.Error("dimension mismatch not detected")
	}
}

// TestControllerIdentityPlantIsStable: when the plant already delivers the
// target ratio, the controller must not drift.
func TestControllerIdentityPlantIsStable(t *testing.T) {
	f := func(rawGain float64) bool {
		gain := 0.05 + math.Mod(math.Abs(rawGain), 1)*0.95
		rc, err := newRatioController([]float64{1, 3}, gain, 4)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			// Plant: measured ratio exactly tracks target.
			if err := rc.Update([]float64{1, 3}); err != nil {
				return false
			}
		}
		d := deltasOf(rc)
		return relErr(d[1], 3) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
