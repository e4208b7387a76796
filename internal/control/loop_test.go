package control

import (
	"testing"

	"psd/internal/core"
)

// testWorkload returns the paper's BP(0.1, 100, 1.5) moment set without
// importing dist (values from dist's closed forms, pinned in its tests).
func testWorkload() core.Workload {
	return core.Workload{
		MeanSize:      0.29052235414299771,
		SecondMoment:  0.91871235028592835,
		InverseMoment: 6.0001895529171403,
	}
}

func loopConfig(deltas []float64) LoopConfig {
	return LoopConfig{
		Deltas:    deltas,
		Window:    100,
		Allocator: core.PSD{},
		Workload:  testWorkload(),
	}
}

func TestLoopValidation(t *testing.T) {
	base := loopConfig([]float64{1, 2})
	cases := []struct {
		name string
		mut  func(*LoopConfig)
	}{
		{"no classes", func(c *LoopConfig) { c.Deltas = nil }},
		{"bad delta", func(c *LoopConfig) { c.Deltas = []float64{1, -2} }},
		{"zero window", func(c *LoopConfig) { c.Window = 0 }},
		{"bad estimator", func(c *LoopConfig) { c.Estimator = EstimatorKind(7) }},
		{"bad history", func(c *LoopConfig) { c.HistoryWindows = -1 }},
		{"bad alpha", func(c *LoopConfig) { c.EWMAAlpha = 1.5 }},
		{"no allocator", func(c *LoopConfig) { c.Allocator = nil }},
		{"bad workload", func(c *LoopConfig) { c.Workload = core.Workload{} }},
		{"bad gain", func(c *LoopConfig) { c.Feedback = true; c.FeedbackGain = 2 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := NewLoop(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewLoop(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestLoopTickInputValidation: malformed TickInput must fail with
// ErrDimension instead of panicking, and must leave the estimator state
// untouched.
func TestLoopTickInputValidation(t *testing.T) {
	lp, err := NewLoop(loopConfig([]float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	bad := []TickInput{
		{Counts: []float64{1, 2}},                                                         // Work missing
		{Counts: []float64{1, 2}, Work: []float64{1}},                                     // short Work
		{Counts: []float64{1}, Work: []float64{1}},                                        // short Counts
		{Counts: []float64{1, 2}, Work: []float64{1, 2}, OracleLambdas: []float64{1}},     // short oracle
		{Counts: []float64{1, 2}, Work: []float64{1, 2}, MeasuredSlowdowns: []float64{1}}, // short slows
		{Counts: []float64{1, 2}, Work: []float64{1, 2}, Shed: []float64{1}},              // short shed
	}
	for i, in := range bad {
		if _, err := lp.Tick(in); err != ErrDimension {
			t.Errorf("bad input %d: err = %v, want ErrDimension", i, err)
		}
	}
	l := make([]float64, 2)
	lp.LambdasInto(l)
	if l[0] != 0 || l[1] != 0 {
		t.Fatalf("rejected input advanced the estimator: %v", l)
	}
}

// TestLoopWindowEstimatesMatchEstimator pins the Loop's flat-ring window
// estimator against the paper's window mean written out here — the mean
// of the last History windows, summed in ring-slot order — on the same
// window sequence, exactly.
func TestLoopWindowEstimatesMatchEstimator(t *testing.T) {
	const history, window = 3, 100.0
	cfg := loopConfig([]float64{1, 2})
	cfg.HistoryWindows = history
	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqs := [][2][]float64{
		{{10, 4}, {6, 2}},
		{{20, 8}, {12, 4}},
		{{5, 2}, {3, 1}},
		{{40, 16}, {24, 8}}, // evicts the first window
		{{1, 1}, {0.5, 0.5}},
	}
	var ringCounts, ringWork [2][history]float64
	got := make([]float64, 2)
	gotLoads := make([]float64, 2)
	for k, wn := range seqs {
		if _, err := lp.Tick(TickInput{Counts: wn[0], Work: wn[1]}); err != nil {
			t.Fatal(err)
		}
		filled := min(k+1, history)
		lp.LambdasInto(got)
		lp.LoadsInto(gotLoads)
		for i := range got {
			ringCounts[i][k%history] = wn[0][i]
			ringWork[i][k%history] = wn[1][i]
			var sumL, sumW float64
			for slot := 0; slot < filled; slot++ {
				sumL += ringCounts[i][slot]
				sumW += ringWork[i][slot]
			}
			span := window * float64(filled)
			if wantL, wantW := sumL/span, sumW/span; got[i] != wantL || gotLoads[i] != wantW {
				t.Fatalf("window %d class %d: loop lambda %v load %v, window mean %v and %v",
					k, i, got[i], gotLoads[i], wantL, wantW)
			}
		}
	}
}

// TestLoopEWMAEstimatesMatchEstimator does the same for EWMA mode against
// the recursion estimate ← estimate + α·(rate − estimate), primed by the
// first window.
func TestLoopEWMAEstimatesMatchEstimator(t *testing.T) {
	const alpha, window = 0.4, 100.0
	cfg := loopConfig([]float64{1, 2})
	cfg.Estimator = EWMA
	cfg.EWMAAlpha = alpha
	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 2)
	want := make([]float64, 2)
	for k := 0; k < 8; k++ {
		counts := []float64{float64(10 + k*3), float64(5 + k)}
		work := []float64{counts[0] * 0.6, counts[1] * 0.6}
		if _, err := lp.Tick(TickInput{Counts: counts, Work: work}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if rate := counts[i] / window; k == 0 {
				want[i] = rate
			} else {
				want[i] += alpha * (rate - want[i])
			}
		}
		lp.LambdasInto(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tick %d: EWMA loop lambdas %v vs recursion %v", k, got, want)
			}
		}
	}
}

// TestLoopObservePathMatchesCountsPath: feeding arrivals through Observe
// and ticking with a nil TickInput must equal handing the same totals as
// explicit window counts.
func TestLoopObservePathMatchesCountsPath(t *testing.T) {
	a, err := NewLoop(loopConfig([]float64{1, 4}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLoop(loopConfig([]float64{1, 4}))
	if err != nil {
		t.Fatal(err)
	}
	sizes := [][]float64{{0.5, 0.7, 1.1}, {2.0, 0.3}}
	counts := make([]float64, 2)
	work := make([]float64, 2)
	for c, ss := range sizes {
		for _, s := range ss {
			a.Observe(c, s)
			counts[c]++
			work[c] += s
		}
	}
	ra, errA := a.Tick(TickInput{})
	rb, errB := b.Tick(TickInput{Counts: counts, Work: work})
	if (errA == nil) != (errB == nil) {
		t.Fatalf("errors diverged: %v vs %v", errA, errB)
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("rates diverged: %v vs %v", ra, rb)
		}
	}
	// The Observe accumulators must have been consumed by the tick.
	a.Observe(0, 1)
	r2, err := a.Tick(TickInput{})
	if err != nil {
		t.Fatal(err)
	}
	var want [2]float64
	copy(want[:], r2)
	r3, err := b.Tick(TickInput{Counts: []float64{1, 0}, Work: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if want[0] != r3[0] || want[1] != r3[1] {
		t.Fatalf("open-window accumulators leaked across ticks: %v vs %v", want, r3)
	}
}

// TestLoopRatesMatchDirectAllocator: a Tick's output must be exactly what
// the allocator returns for the estimator's lambdas and the target deltas.
func TestLoopRatesMatchDirectAllocator(t *testing.T) {
	lp, err := NewLoop(loopConfig([]float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	counts := []float64{30, 20}
	work := []float64{18, 12}
	rates, err := lp.Tick(TickInput{Counts: counts, Work: work})
	if err != nil {
		t.Fatal(err)
	}
	lambdas := make([]float64, 2)
	lp.LambdasInto(lambdas)
	want, err := (core.PSD{}).Allocate([]core.Class{
		{Delta: 1, Lambda: lambdas[0]}, {Delta: 2, Lambda: lambdas[1]},
	}, testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if rates[i] != want.Rates[i] {
			t.Fatalf("rates %v, want %v", rates, want.Rates)
		}
	}
}

func TestLoopInfeasibleTickReturnsError(t *testing.T) {
	lp, err := NewLoop(loopConfig([]float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	// 10 arrivals/tu at E[X] ≈ 0.61 ⇒ ρ̂ ≈ 6: infeasible.
	if _, err := lp.Tick(TickInput{Counts: []float64{1000, 0}, Work: []float64{600, 0}}); err == nil {
		t.Fatal("infeasible estimate not rejected")
	}
	// The estimator must still have advanced (live servers keep previous
	// rates but the window is gone).
	l := make([]float64, 2)
	lp.LambdasInto(l)
	if l[0] == 0 {
		t.Fatal("estimator did not advance on infeasible tick")
	}
}

func TestLoopEstimateFromWork(t *testing.T) {
	cfg := loopConfig([]float64{1, 1})
	cfg.EstimateFromWork = true
	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Equal counts, skewed work: from-work estimation must allocate more
	// to the heavy class.
	rates, err := lp.Tick(TickInput{Counts: []float64{10, 10}, Work: []float64{30, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !(rates[0] > rates[1]) {
		t.Fatalf("work-based estimation ignored work skew: %v", rates)
	}
}

func TestLoopOracleOverride(t *testing.T) {
	lp, err := NewLoop(loopConfig([]float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	oracle := []float64{0.4, 0.2}
	rates, err := lp.Tick(TickInput{Counts: []float64{1, 1}, Work: []float64{0.5, 0.5}, OracleLambdas: oracle})
	if err != nil {
		t.Fatal(err)
	}
	want, err := (core.PSD{}).Allocate([]core.Class{
		{Delta: 1, Lambda: 0.4}, {Delta: 2, Lambda: 0.2},
	}, testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if rates[i] != want.Rates[i] {
			t.Fatalf("oracle rates %v, want %v", rates, want.Rates)
		}
	}
}

func TestLoopFeedbackTrimsDeltas(t *testing.T) {
	cfg := loopConfig([]float64{1, 2})
	cfg.Feedback = true
	cfg.FeedbackGain = 0.5
	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eff := make([]float64, 2)
	lp.EffectiveDeltasInto(eff)
	if eff[0] != 1 || eff[1] != 2 {
		t.Fatalf("initial effective deltas %v", eff)
	}
	// Class 1 measures 10× class 0 against a target ratio of 2: the
	// controller must trim δeff below target.
	if _, err := lp.Tick(TickInput{
		Counts:            []float64{10, 10},
		Work:              []float64{6, 6},
		MeasuredSlowdowns: []float64{1, 10},
	}); err != nil {
		t.Fatal(err)
	}
	lp.EffectiveDeltasInto(eff)
	if !(eff[1] < 2) {
		t.Fatalf("effective delta not trimmed: %v", eff)
	}
	// A nil measurement vector skips the controller update.
	before := eff[1]
	if _, err := lp.Tick(TickInput{Counts: []float64{10, 10}, Work: []float64{6, 6}}); err != nil {
		t.Fatal(err)
	}
	lp.EffectiveDeltasInto(eff)
	if eff[1] != before {
		t.Fatalf("controller updated without measurements: %v -> %v", before, eff[1])
	}
}

// TestLoopResetReuse: a reset Loop must be observationally identical to a
// fresh one, including across shape changes.
func TestLoopResetReuse(t *testing.T) {
	lp, err := NewLoop(loopConfig([]float64{1, 2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if _, err := lp.Tick(TickInput{Counts: []float64{9, 6, 3}, Work: []float64{5, 4, 2}, MeasuredSlowdowns: nil}); err != nil {
			t.Fatal(err)
		}
	}
	// Shrink to 2 classes and replay a sequence on both the reused arena
	// and a fresh Loop.
	if err := lp.Reset(loopConfig([]float64{1, 8})); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewLoop(loopConfig([]float64{1, 8}))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 7; k++ {
		counts := []float64{float64(12 + k), float64(7 + k)}
		work := []float64{counts[0] * 0.6, counts[1] * 0.6}
		ra, errA := lp.Tick(TickInput{Counts: counts, Work: work})
		rf, errF := fresh.Tick(TickInput{Counts: counts, Work: work})
		if (errA == nil) != (errF == nil) {
			t.Fatalf("tick %d: errors diverged %v vs %v", k, errA, errF)
		}
		for i := range ra {
			if ra[i] != rf[i] {
				t.Fatalf("tick %d: reused arena diverged from fresh loop: %v vs %v", k, ra, rf)
			}
		}
	}
	if lp.Classes() != 2 {
		t.Fatalf("classes = %d after reset", lp.Classes())
	}
}

// eightDeltas is the 8-class differentiation ladder the block allocation
// gates tick.
var eightDeltas = []float64{1, 2, 3, 4, 6, 8, 12, 16}

// tickBlockAllocs ticks lp `ticks` times as one measured run, with counts,
// work and measured slowdowns that vary per tick and class, and returns the
// mallocs of the whole block (after one warm-up block). AllocsPerRun
// divides by its run count in integers, so a gate over n runs passes up to
// n−1 allocations; a single run over a block truncates nothing, and a gate
// at 0.01 × ticks holds the loop to 0.01 allocs/tick.
func tickBlockAllocs(t *testing.T, lp *Loop, deltas []float64, ticks int) float64 {
	t.Helper()
	nc := len(deltas)
	counts := make([]float64, nc)
	work := make([]float64, nc)
	slows := make([]float64, nc)
	meanSize := testWorkload().MeanSize
	k := 0
	return testing.AllocsPerRun(1, func() {
		for end := k + ticks; k < end; k++ {
			for i := range counts {
				counts[i] = float64(200 + (k*7+i*13)%120)
				work[i] = counts[i] * meanSize
				slows[i] = deltas[i] * float64(1+(k+i)%3)
			}
			if _, err := lp.Tick(TickInput{Counts: counts, Work: work, MeasuredSlowdowns: slows}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestLoopTickAllocFree gates the loop's zero-allocation contract on the
// steady-state tick (both estimator kinds, feedback on): 0 allocs/tick
// over 200 repeated 4-class ticks, and at most 0.01 allocs/tick over a
// block of 10 000 varying 8-class ticks.
func TestLoopTickAllocFree(t *testing.T) {
	for _, kind := range []EstimatorKind{Window, EWMA} {
		cfg := loopConfig([]float64{1, 2, 4, 8})
		cfg.Estimator = kind
		cfg.Feedback = true
		lp, err := NewLoop(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts := []float64{20, 15, 10, 5}
		work := []float64{12, 9, 6, 3}
		slows := []float64{1, 2, 4, 8}
		in := TickInput{Counts: counts, Work: work, MeasuredSlowdowns: slows}
		if _, err := lp.Tick(in); err != nil { // warm the allocation buffers
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(200, func() {
			if _, err := lp.Tick(in); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%v: %.2f allocs/tick, want 0", kind, avg)
		}

		cfg = loopConfig(eightDeltas)
		cfg.Window = 1000
		cfg.Estimator = kind
		cfg.Feedback = true
		if lp, err = NewLoop(cfg); err != nil {
			t.Fatal(err)
		}
		const ticks = 10_000
		if n := tickBlockAllocs(t, lp, eightDeltas, ticks); n > 0.01*ticks {
			t.Errorf("%v: %.0f allocations over %d 8-class ticks, want ≤ %.0f", kind, n, ticks, 0.01*ticks)
		}
	}
}

func TestLoopAllocateDeclared(t *testing.T) {
	lp, err := NewLoop(loopConfig([]float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	a, err := lp.AllocateDeclared([]float64{0.3, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := (core.PSD{}).Allocate([]core.Class{
		{Delta: 1, Lambda: 0.3}, {Delta: 2, Lambda: 0.3},
	}, testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rates {
		if a.Rates[i] != want.Rates[i] || a.ExpectedSlowdowns[i] != want.ExpectedSlowdowns[i] {
			t.Fatalf("declared allocation %+v, want %+v", a, want)
		}
	}
	if _, err := lp.AllocateDeclared([]float64{9, 9}); err == nil {
		t.Fatal("declared overload not rejected")
	}
}

func TestEstimatorKindParsing(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want EstimatorKind
	}{{"window", Window}, {"ewma", EWMA}} {
		k, err := ParseEstimatorKind(tc.s)
		if err != nil || k != tc.want {
			t.Errorf("ParseEstimatorKind(%q) = %v, %v", tc.s, k, err)
		}
		if k.String() != tc.s {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
	if _, err := ParseEstimatorKind("bogus"); err == nil {
		t.Error("accepted bogus estimator name")
	}
	if EstimatorKind(9).Valid() {
		t.Error("kind 9 reported valid")
	}
}
