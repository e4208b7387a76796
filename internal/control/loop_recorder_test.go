package control

import (
	"math"
	"testing"

	"psd/internal/obs"
)

// TestLoopRecorderRecordsTicks: with a flight recorder attached, every
// Tick — feasible or not — must leave one record carrying exactly what
// the allocator saw and produced, stamped on the control clock
// (ticks·Window).
func TestLoopRecorderRecordsTicks(t *testing.T) {
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

	rates1, err := lp.Tick(TickInput{Counts: []float64{10, 4}, Work: []float64{2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want1 := append([]float64(nil), rates1...)
	lam := make([]float64, 2)
	lp.LambdasInto(lam)

	// Infeasible window: the loop errors, keeps the previous allocation.
	if _, err := lp.Tick(TickInput{Counts: []float64{1000, 0}, Work: []float64{600, 0}}); err == nil {
		t.Fatal("infeasible tick accepted")
	}

	ticks := rec.Snapshot()
	if len(ticks) != 2 {
		t.Fatalf("recorded %d ticks, want 2", len(ticks))
	}
	t0, t1 := ticks[0], ticks[1]
	if t0.Seq != 0 || t0.Time != 100 || t1.Seq != 1 || t1.Time != 200 {
		t.Fatalf("control-clock stamps wrong: %+v / %+v", t0, t1)
	}
	if t0.Flags != 0 {
		t.Fatalf("feasible tick flagged %b", t0.Flags)
	}
	for i := range want1 {
		if t0.Rates[i] != want1[i] {
			t.Fatalf("tick 0 rates %v, want %v", t0.Rates, want1)
		}
		if t0.Lambdas[i] != lam[i] {
			t.Fatalf("tick 0 lambdas %v, want %v", t0.Lambdas, lam)
		}
		if t0.EffDeltas[i] != cfg.Deltas[i] {
			t.Fatalf("tick 0 eff deltas %v, want %v", t0.EffDeltas, cfg.Deltas)
		}
		if !math.IsNaN(t0.Slowdowns[i]) {
			t.Fatalf("tick 0 slowdowns %v, want NaN (none measured)", t0.Slowdowns)
		}
		// Failed tick: flag set, previous rates retained in the record.
		if t1.Rates[i] != want1[i] {
			t.Fatalf("failed tick rates %v, want retained %v", t1.Rates, want1)
		}
	}
	if t1.Flags&obs.FlagAllocFailure == 0 {
		t.Fatalf("failed tick not flagged: %b", t1.Flags)
	}
}

// TestLoopRecorderOracleLambdas: on an oracle tick the record must carry
// the oracle values — what the allocator actually saw — not the
// estimator's.
func TestLoopRecorderOracleLambdas(t *testing.T) {
	rec, err := obs.NewFlightRecorder(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := loopConfig([]float64{1, 2})
	cfg.Recorder = rec
	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := []float64{0.4, 0.2}
	if _, err := lp.Tick(TickInput{Counts: []float64{1, 1}, Work: []float64{0.5, 0.5}, OracleLambdas: oracle}); err != nil {
		t.Fatal(err)
	}
	got := rec.Snapshot()[0].Lambdas
	for i := range oracle {
		if got[i] != oracle[i] {
			t.Fatalf("recorded lambdas %v, want oracle %v", got, oracle)
		}
	}
}

// TestLoopResetReusesRecorder: Reset must clear the recorder's history
// and re-dimension it to the new class count, retaining capacity.
func TestLoopResetReusesRecorder(t *testing.T) {
	rec, err := obs.NewFlightRecorder(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := loopConfig([]float64{1, 2})
	cfg.Recorder = rec
	var lp Loop
	if err := lp.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := lp.Tick(TickInput{Counts: []float64{1, 1}, Work: []float64{0.1, 0.1}}); err != nil {
		t.Fatal(err)
	}
	cfg3 := loopConfig([]float64{1, 2, 4})
	cfg3.Recorder = rec
	if err := lp.Reset(cfg3); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 0 || rec.Classes() != 3 || rec.Capacity() != 32 {
		t.Fatalf("after reset: len %d classes %d capacity %d, want 0/3/32", rec.Len(), rec.Classes(), rec.Capacity())
	}
	if _, err := lp.Tick(TickInput{Counts: []float64{1, 1, 1}, Work: []float64{0.1, 0.1, 0.1}}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot()[0]; got.Seq != 0 || len(got.Rates) != 3 {
		t.Fatalf("post-reset record = %+v", got)
	}
}

// TestLoopTickAllocFreeWithRecorder extends the loop's zero-allocation
// guarantee to the instrumented path: a Tick that also flight-records
// must not allocate, neither repeated on one 2-class input nor over a
// block of 10 000 varying 8-class ticks (at most 0.01 allocs/tick).
func TestLoopTickAllocFreeWithRecorder(t *testing.T) {
	rec, err := obs.NewFlightRecorder(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := loopConfig([]float64{1, 2})
	cfg.Feedback = true
	cfg.FeedbackGain = 0.3
	cfg.Recorder = rec
	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := TickInput{
		Counts:            []float64{10, 4},
		Work:              []float64{2, 1},
		MeasuredSlowdowns: []float64{1.5, 3.2},
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := lp.Tick(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented Tick allocates %v per call", allocs)
	}

	if rec, err = obs.NewFlightRecorder(len(eightDeltas), 256); err != nil {
		t.Fatal(err)
	}
	cfg = loopConfig(eightDeltas)
	cfg.Window = 1000
	cfg.Feedback = true
	cfg.Recorder = rec
	if lp, err = NewLoop(cfg); err != nil {
		t.Fatal(err)
	}
	const ticks = 10_000
	if n := tickBlockAllocs(t, lp, eightDeltas, ticks); n > 0.01*ticks {
		t.Fatalf("instrumented 8-class Tick: %.0f allocations over %d ticks, want ≤ %.0f", n, ticks, 0.01*ticks)
	}
}
