package control

import (
	"fmt"
	"math"
	"testing"

	"psd/internal/admission"
	"psd/internal/core"
	"psd/internal/obs"
)

// guardLoop builds a feedback loop with a recorder, pre-warmed with one
// clean window so it holds a last-good estimate and rate vector.
func guardLoop(t *testing.T) (*Loop, *obs.FlightRecorder, []float64) {
	t.Helper()
	rec, err := obs.NewFlightRecorder(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := loopConfig([]float64{1, 2})
	cfg.Feedback = true
	cfg.Recorder = rec
	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := lp.Tick(TickInput{
		Counts:            []float64{40, 40},
		Work:              []float64{12, 12},
		MeasuredSlowdowns: []float64{1.5, 3.2},
	})
	if err != nil {
		t.Fatalf("clean warmup tick failed: %v", err)
	}
	return lp, rec, append([]float64(nil), rates...)
}

// TestLoopGuardsCorruptInputs: every corrupt TickInput field variant must
// be discarded (last-good estimates kept, allocation bit-identical to the
// previous tick's), counted in InputRejected, and flagged in the flight
// record — never an error, never estimator poison.
func TestLoopGuardsCorruptInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		in   TickInput
	}{
		{"NaN count", TickInput{Counts: []float64{nan, 40}, Work: []float64{12, 12}}},
		{"negative count", TickInput{Counts: []float64{-3, 40}, Work: []float64{12, 12}}},
		{"+Inf count", TickInput{Counts: []float64{inf, 40}, Work: []float64{12, 12}}},
		{"NaN work", TickInput{Counts: []float64{40, 40}, Work: []float64{nan, 12}}},
		{"negative work", TickInput{Counts: []float64{40, 40}, Work: []float64{12, -1}}},
		{"+Inf work", TickInput{Counts: []float64{40, 40}, Work: []float64{12, inf}}},
		{"negative slowdown", TickInput{Counts: []float64{40, 40}, Work: []float64{12, 12},
			MeasuredSlowdowns: []float64{-2, 3}}},
		{"-Inf slowdown", TickInput{Counts: []float64{40, 40}, Work: []float64{12, 12},
			MeasuredSlowdowns: []float64{1.5, math.Inf(-1)}}},
		{"NaN oracle", TickInput{Counts: []float64{40, 40}, Work: []float64{12, 12},
			OracleLambdas: []float64{nan, 1}}},
		{"negative oracle", TickInput{Counts: []float64{40, 40}, Work: []float64{12, 12},
			OracleLambdas: []float64{1, -1}}},
		{"NaN shed", TickInput{Counts: []float64{40, 40}, Work: []float64{12, 12},
			Shed: []float64{nan, 1}}},
		{"negative shed", TickInput{Counts: []float64{40, 40}, Work: []float64{12, 12},
			Shed: []float64{1, -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lp, rec, lastGood := guardLoop(t)
			lambdasBefore := make([]float64, 2)
			lp.LambdasInto(lambdasBefore)

			rates, err := lp.Tick(tc.in)
			if err != nil {
				t.Fatalf("corrupt input errored (%v); want last-good fallback", err)
			}
			if got := lp.InputRejected(); got != 1 {
				t.Fatalf("InputRejected = %d, want 1", got)
			}
			ticks := rec.Snapshot()
			last := ticks[len(ticks)-1]
			if last.Flags&obs.FlagInputRejected == 0 {
				t.Fatalf("flight record flags %08b missing FlagInputRejected", last.Flags)
			}
			if ticks[0].Flags&obs.FlagInputRejected != 0 {
				t.Fatalf("clean warmup tick flagged rejected")
			}

			// Window-level corruption keeps the estimator at last-good and
			// therefore the allocation bit-identical; corruption confined to
			// slowdowns/oracle/shed never poisons the estimator either way.
			lambdasAfter := make([]float64, 2)
			lp.LambdasInto(lambdasAfter)
			corruptWindow := !validVec(tc.in.Counts) || !validVec(tc.in.Work)
			if corruptWindow {
				for i := range lambdasAfter {
					if lambdasAfter[i] != lambdasBefore[i] {
						t.Fatalf("corrupt window reached the estimator: lambdas %v -> %v", lambdasBefore, lambdasAfter)
					}
				}
				for i := range rates {
					if rates[i] != lastGood[i] {
						t.Fatalf("rates diverged from last-good: %v, want %v", rates, lastGood)
					}
				}
			}
			for i, l := range lambdasAfter {
				if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
					t.Fatalf("estimator poisoned: lambda[%d] = %v", i, l)
				}
			}
			for i, r := range rates {
				if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
					t.Fatalf("allocation poisoned: rate[%d] = %v", i, r)
				}
			}

			// The next clean tick recovers: valid estimates, no new reject.
			if _, err := lp.Tick(TickInput{Counts: []float64{40, 40}, Work: []float64{12, 12}}); err != nil {
				t.Fatalf("post-corruption clean tick failed: %v", err)
			}
			if got := lp.InputRejected(); got != 1 {
				t.Fatalf("clean tick counted as rejected: InputRejected = %d", got)
			}
		})
	}
}

// TestLoopGuardFuzzTable hammers the guards with a table of randomized
// corrupt windows mixed with clean ones: the estimator must only ever
// advance on clean windows and the rejected count must match exactly.
func TestLoopGuardFuzzTable(t *testing.T) {
	lp, _, _ := guardLoop(t)
	poisons := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e300}
	wantRejected := uint64(0)
	for i := 0; i < 64; i++ {
		counts := []float64{40, 40}
		work := []float64{12, 12}
		corrupt := i%3 != 0 // interleave clean ticks
		if corrupt {
			p := poisons[i%len(poisons)]
			if i%2 == 0 {
				counts[i%2] = p
			} else {
				work[i%2] = p
			}
			wantRejected++
		}
		if _, err := lp.Tick(TickInput{Counts: counts, Work: work}); err != nil {
			t.Fatalf("tick %d errored: %v", i, err)
		}
		lambdas := make([]float64, 2)
		lp.LambdasInto(lambdas)
		for c, l := range lambdas {
			if !(l >= 0) || math.IsInf(l, 0) {
				t.Fatalf("tick %d: lambda[%d] = %v poisoned", i, c, l)
			}
		}
	}
	if got := lp.InputRejected(); got != wantRejected {
		t.Fatalf("InputRejected = %d, want %d", got, wantRejected)
	}
}

// TestLoopDeltaScaleDegradesAllocation drives the degradation ladder
// through Tick: at level 0 a downgrading loop is bit-identical to plain
// PSD, and once rung k of class c is engaged its rates equal, bit for
// bit, those of a plain loop configured at δ_c × Multipliers[k-1].
func TestLoopDeltaScaleDegradesAllocation(t *testing.T) {
	overload := TickInput{Counts: []float64{4000, 4000}, Work: []float64{4000, 4000}}
	clean := TickInput{Counts: []float64{40, 40}, Work: []float64{12, 12}}
	mults := []float64{2, 4}
	cfg := loopConfig([]float64{1, 2})
	cfg.HistoryWindows = 1 // each tick estimates from its own window only
	cfg.Allocator = core.Downgrading{}
	cfg.Ladder = admission.LadderConfig{Multipliers: mults, EngageAfter: 1}
	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ticksAt := func(deltas []float64) []float64 {
		t.Helper()
		ref := loopConfig(deltas)
		ref.HistoryWindows = 1
		plain, err := NewLoop(ref)
		if err != nil {
			t.Fatal(err)
		}
		rates, err := plain.Tick(clean)
		if err != nil {
			t.Fatal(err)
		}
		return rates
	}
	same := func(when string, got, want []float64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: rates %v, want %v", when, got, want)
			}
		}
	}

	got, err := lp.Tick(clean)
	if err != nil {
		t.Fatal(err)
	}
	same("level 0", got, ticksAt([]float64{1, 2}))
	for k, m := range mults {
		if _, err := lp.Tick(overload); err == nil {
			t.Fatal("overload tick unexpectedly feasible")
		}
		if lv := lp.DegradationLevel(1); lv != k+1 || lp.DegradationLevel(0) != 0 {
			t.Fatalf("after %d overload ticks: levels %d/%d, want 0/%d", k+1, lp.DegradationLevel(0), lv, k+1)
		}
		if got, err = lp.Tick(clean); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("rung %d", k+1), got, ticksAt([]float64{1, 2 * m}))
	}
	if !lp.LadderMaxedOut() || lp.GateHeldOpen() {
		t.Fatalf("two rungs on one degradable class: maxed %v, gate held %v; want true/false",
			lp.LadderMaxedOut(), lp.GateHeldOpen())
	}
}

// TestLoopResetClearsRetainedAllocation: after a Reset, a first FAILED
// tick must flight-record NaN rates, not the previous configuration's
// last-good rate vector (the stale-state regression this PR fixes).
func TestLoopResetClearsRetainedAllocation(t *testing.T) {
	rec, err := obs.NewFlightRecorder(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := loopConfig([]float64{1, 2})
	cfg.Recorder = rec
	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lp.Tick(TickInput{Counts: []float64{40, 40}, Work: []float64{12, 12}}); err != nil {
		t.Fatalf("warmup tick failed: %v", err)
	}

	if err := lp.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if got := lp.InputRejected(); got != 0 {
		t.Fatalf("InputRejected survived Reset: %d", got)
	}
	// First post-Reset tick is infeasible (rho >= 1): the recorded rates
	// must be NaN — no allocation has succeeded in this lifetime.
	if _, err := lp.Tick(TickInput{Counts: []float64{4000, 4000}, Work: []float64{4000, 4000}}); err == nil {
		t.Fatal("overload tick unexpectedly feasible")
	}
	ticks := rec.Snapshot()
	last := ticks[len(ticks)-1]
	if last.Flags&obs.FlagAllocFailure == 0 {
		t.Fatalf("failed tick not flagged: %08b", last.Flags)
	}
	for i, r := range last.Rates {
		if !math.IsNaN(r) {
			t.Fatalf("post-Reset failed tick recorded stale rate[%d] = %v, want NaN", i, r)
		}
	}
	_ = core.ErrInfeasible
}
