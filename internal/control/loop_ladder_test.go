package control

import (
	"math"
	"testing"

	"psd/internal/admission"
	"psd/internal/core"
)

// ladderConfig is loopConfig under the downgrading policy.
func ladderConfig(deltas []float64) LoopConfig {
	cfg := loopConfig(deltas)
	cfg.Allocator = core.Downgrading{}
	return cfg
}

// TestLoopArmsLadderOnlyWhenDowngrading: Reset arms the ladder iff the
// allocator is downgrading (a MinRate shell included) and clears it for
// any other policy.
func TestLoopArmsLadderOnlyWhenDowngrading(t *testing.T) {
	cases := []struct {
		alloc core.Allocator
		armed bool
	}{
		{core.PSD{}, false},
		{core.Downgrading{}, true},
		{core.MinRate{Base: core.Downgrading{}, Min: 1e-3}, true},
		{core.MinRate{Base: core.PSD{}, Min: 1e-3}, false},
	}
	lp := new(Loop)
	for _, tc := range cases {
		cfg := loopConfig([]float64{1, 2})
		cfg.Allocator = tc.alloc
		if err := lp.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if got := lp.GateHeldOpen(); got != tc.armed {
			t.Errorf("%s: gate held open = %v, want %v", tc.alloc.Name(), got, tc.armed)
		}
	}
}

// TestLoopLadderResetReuse: Reset keeps the ladder it holds (at level 0)
// while the deltas and ladder config are unchanged, rebuilds it when
// either changes, and rejects an invalid ladder config.
func TestLoopLadderResetReuse(t *testing.T) {
	cfg := ladderConfig([]float64{1, 2})
	cfg.Ladder = admission.LadderConfig{Multipliers: []float64{2}, EngageAfter: 1}
	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	held := lp.ladder
	if _, err := lp.Tick(TickInput{Counts: []float64{4000, 4000}, Work: []float64{4000, 4000}}); err == nil {
		t.Fatal("overload tick unexpectedly feasible")
	}
	if !lp.LadderMaxedOut() {
		t.Fatal("setup: ladder not maxed out")
	}
	if err := lp.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if lp.ladder != held || lp.LadderEngaged() || !lp.GateHeldOpen() {
		t.Fatalf("unchanged reset: reused %v, engaged %v, gate held %v; want true/false/true",
			lp.ladder == held, lp.LadderEngaged(), lp.GateHeldOpen())
	}

	cfg.Ladder.Multipliers = []float64{2, 4}
	if err := lp.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if lp.ladder == held {
		t.Fatal("changed ladder config reused the old ladder")
	}
	held = lp.ladder
	cfg.Deltas = []float64{1, 3}
	if err := lp.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if lp.ladder == held {
		t.Fatal("changed deltas reused the old ladder")
	}

	cfg.Ladder.Multipliers = []float64{0.5}
	if err := lp.Reset(cfg); err == nil {
		t.Fatal("accepted a ladder rung below 1")
	}
}

// TestLoopLadderAllocFree gates the zero-allocation contract with the
// ladder armed: a Tick that steps the ladder both ways, and a Reset with
// unchanged deltas (the replication arena's path).
func TestLoopLadderAllocFree(t *testing.T) {
	cfg := ladderConfig([]float64{1, 2, 4, 8})
	cfg.Feedback = true
	cfg.HistoryWindows = 1
	cfg.Ladder = admission.LadderConfig{EngageAfter: 1, RecoverAfter: 1}
	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ρ̂ = Σ work / Window: 0.97 engages, 0.40 recovers.
	hot := TickInput{Counts: []float64{1, 1, 1, 1}, Work: []float64{25, 24, 24, 24}, MeasuredSlowdowns: []float64{1, 2, 4, 8}}
	cold := TickInput{Counts: []float64{1, 1, 1, 1}, Work: []float64{10, 10, 10, 10}, MeasuredSlowdowns: []float64{1, 2, 4, 8}}
	steps := 0
	avg := testing.AllocsPerRun(200, func() {
		in := hot
		if steps%4 >= 2 {
			in = cold
		}
		steps++
		if _, err := lp.Tick(in); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("armed ladder: %.2f allocs/tick, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := lp.Reset(cfg); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Reset with unchanged deltas: %.2f allocs, want 0", avg)
	}
}

// fuzzValues are the per-byte decodings of a tick field: corrupt values
// (NaN, ±Inf, negatives) and a spread of positive magnitudes from idle
// to saturating.
var fuzzValues = [16]float64{
	math.NaN(), math.Inf(1), math.Inf(-1), -1,
	0.25, 1, 2, 3, 5, 8, 12, 20, 40, 120, 1e3, 1e300,
}

// FuzzLoopTick drives a psd loop, a downgrading loop and a psd loop
// floored at 1e-3 (Floored, core.MinRate) in lockstep through
// byte-decoded tick scripts (counts, work, slowdowns, oracle λ and shed
// work, corrupt values included; a mask bit idles class 1 for the
// floored loop, the case its floor is for) and checks the tick's
// contract: no panic; successful rates finite, positive and summing to
// at most 1;
// InputRejected counting exactly the corrupt ticks; the ladder moving at
// most one rung per tick; the gate held open exactly while the ladder
// has a rung left; and the downgrading loop bit-identical to psd until
// its ladder first engages.
func FuzzLoopTick(f *testing.F) {
	f.Add([]byte{0, 0x07, 8, 8, 8, 5, 5, 5, 5, 6, 7, 0, 0, 0})
	f.Add([]byte{0x03, 0x03, 12, 12, 12, 15, 15, 15, 0, 4, 5, 9, 9, 9, 0x03, 4, 4, 4, 4, 4, 4, 5, 6, 7, 5, 5, 5})
	f.Add([]byte{0x05, 0x01, 13, 12, 11, 13, 12, 11, 2, 3, 1, 0, 0, 0, 0x00, 0, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	// Engage on an infeasible tick, then send negative slowdowns: dropped
	// unseen while degraded, so only the psd loop counts them.
	f.Add([]byte{0x01, 0x01, 12, 12, 12, 12, 12, 12, 5, 5, 5, 0, 0, 0, 0x01, 5, 5, 5, 5, 5, 5, 3, 3, 3, 0, 0, 0})
	// Class 1 idle for the floored loop while the others' ρ̂ reaches
	// 0.9999 over three windows: more than the donors' slack is owed to
	// the floor, the case in which MinRate once kept PSD's rate 0.
	f.Add([]byte{0x00, 0x08, 5, 12, 12, 5, 5, 5, 0, 0, 0, 0, 0, 0, 0x08, 5, 11, 6, 5, 5, 5, 0, 0, 0, 0, 0, 0, 0x08, 5, 5, 4, 5, 5, 5, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const nc = 3
		opts := data[0]
		data = data[1:]
		base := LoopConfig{
			Deltas:           []float64{1, 2, 4},
			Window:           10,
			Allocator:        core.PSD{},
			Workload:         testWorkload(),
			Feedback:         opts&1 != 0,
			EstimateFromWork: opts&4 != 0,
			Ladder:           admission.LadderConfig{Multipliers: []float64{2, 4}, EngageAfter: 1 + int(opts>>3&1), RecoverAfter: 1 + int(opts>>4&3)},
		}
		if opts&2 != 0 {
			base.Estimator = EWMA
		}
		plain, err := NewLoop(base)
		if err != nil {
			t.Fatal(err)
		}
		base.Allocator = core.Downgrading{}
		down, err := NewLoop(base)
		if err != nil {
			t.Fatal(err)
		}
		base.Allocator = Floored(core.PSD{}, 1e-3)
		floored, err := NewLoop(base)
		if err != nil {
			t.Fatal(err)
		}
		corruptVec := func(v []float64) bool {
			for _, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
					return true
				}
			}
			return false
		}
		corruptSlowdowns := func(v []float64) bool {
			for _, x := range v {
				if !math.IsNaN(x) && (math.IsInf(x, 0) || x < 0) {
					return true
				}
			}
			return false
		}
		levels := func(lp *Loop) int {
			sum := 0
			for c := 0; c < nc; c++ {
				sum += lp.DegradationLevel(c)
			}
			return sum
		}
		checkRates := func(tick int, rates []float64) {
			sum := 0.0
			for i, r := range rates {
				if !(r > 0) || math.IsInf(r, 0) {
					t.Fatalf("tick %d: rate[%d] = %v", tick, i, r)
				}
				sum += r
			}
			if sum > 1+1e-12 {
				t.Fatalf("tick %d: rates %v sum to %v > 1", tick, rates, sum)
			}
		}
		var wantPlain, wantDown uint64
		engagedOnce := false
		for tick := 0; len(data) >= 1+4*nc; tick++ {
			mask := data[0]
			vec := func(k int) []float64 {
				v := make([]float64, nc)
				for i := range v {
					v[i] = fuzzValues[data[1+k*nc+i]&15]
				}
				return v
			}
			in := TickInput{Counts: vec(0), Work: vec(1)}
			if mask&1 != 0 {
				in.MeasuredSlowdowns = vec(2)
			}
			if mask&2 != 0 {
				in.OracleLambdas = vec(3)
			}
			if mask&4 != 0 {
				in.Shed = vec(1) // the work vector doubles as shed work
			}
			data = data[1+4*nc:]

			corrupt := corruptVec(in.Counts) || corruptVec(in.Work) || corruptVec(in.OracleLambdas) || corruptVec(in.Shed)
			slowCorrupt := corruptSlowdowns(in.MeasuredSlowdowns)
			if corrupt || slowCorrupt {
				wantPlain++
			}
			// The downgrading loop drops the slowdowns unseen while degraded.
			if corrupt || (slowCorrupt && !down.LadderEngaged()) {
				wantDown++
			}
			before := levels(down)

			pr, perr := plain.Tick(in)
			dr, derr := down.Tick(in)
			fin := in
			if mask&8 != 0 {
				idle := func(v []float64) []float64 {
					if v == nil {
						return nil
					}
					return append([]float64{0}, v[1:]...)
				}
				fin.Counts, fin.Work, fin.OracleLambdas = idle(in.Counts), idle(in.Work), idle(in.OracleLambdas)
			}
			fr, ferr := floored.Tick(fin)

			if perr == nil {
				checkRates(tick, pr)
			}
			if derr == nil {
				checkRates(tick, dr)
			}
			if ferr == nil {
				checkRates(tick, fr)
			}
			if got := plain.InputRejected(); got != wantPlain {
				t.Fatalf("tick %d: psd InputRejected = %d, want %d", tick, got, wantPlain)
			}
			if got := down.InputRejected(); got != wantDown {
				t.Fatalf("tick %d: downgrade InputRejected = %d, want %d", tick, got, wantDown)
			}
			if step := levels(down) - before; step < -1 || step > 1 {
				t.Fatalf("tick %d: ladder moved %d rungs", tick, step)
			}
			if down.GateHeldOpen() == down.LadderMaxedOut() {
				t.Fatalf("tick %d: gate held %v with ladder maxed %v", tick, down.GateHeldOpen(), down.LadderMaxedOut())
			}
			if plain.GateHeldOpen() || plain.LadderEngaged() || plain.LadderMaxedOut() || levels(plain) != 0 {
				t.Fatalf("tick %d: psd loop reports a ladder", tick)
			}
			if !engagedOnce {
				if (perr == nil) != (derr == nil) {
					t.Fatalf("tick %d at level 0: psd err %v, downgrade err %v", tick, perr, derr)
				}
				for i := range pr {
					if math.Float64bits(pr[i]) != math.Float64bits(dr[i]) {
						t.Fatalf("tick %d at level 0: downgrade rates %v != psd %v", tick, dr, pr)
					}
				}
			}
			engagedOnce = engagedOnce || down.LadderEngaged()
		}
	})
}

// TestLoopLadderReadsOfferedLoad: a starved server admits only ρ̂ 0.26
// of work while its full queues refuse work far above capacity. The
// ladder reads offered load, admitted plus shed, and must engage within
// EngageAfter ticks; the allocator keeps the admitted λ̂. Without Shed
// the same admitted windows read as light load and never engage.
func TestLoopLadderReadsOfferedLoad(t *testing.T) {
	cfg := ladderConfig([]float64{1, 2})
	cfg.Ladder = admission.LadderConfig{EngageAfter: 2, EngageRho: 0.9}
	admitted := TickInput{Counts: []float64{62, 28}, Work: []float64{18, 8}} // ρ̂ = 26/100
	starved := admitted
	starved.Shed = []float64{500, 500} // 10× capacity refused at the door

	lp, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick <= cfg.Ladder.EngageAfter; tick++ {
		if _, err := lp.Tick(starved); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
	}
	if !lp.LadderEngaged() {
		t.Fatalf("ladder not engaged after %d starved ticks", cfg.Ladder.EngageAfter)
	}
	lambdas := make([]float64, 2)
	lp.LambdasInto(lambdas)
	if lambdas[0] != 0.62 || lambdas[1] != 0.28 {
		t.Errorf("λ̂ = %v, want the admitted 0.62, 0.28", lambdas)
	}

	if err := lp.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 10; tick++ {
		if _, err := lp.Tick(admitted); err != nil {
			t.Fatal(err)
		}
	}
	if lp.LadderEngaged() {
		t.Error("admitted ρ̂ 0.26 with nothing shed engaged the ladder")
	}

	// A corrupt Shed is dropped (and counted): it engages nothing.
	bad := admitted
	bad.Shed = []float64{math.NaN(), 500}
	for tick := 0; tick < 3; tick++ {
		if _, err := lp.Tick(bad); err != nil {
			t.Fatal(err)
		}
	}
	if lp.LadderEngaged() {
		t.Error("a NaN shed vector engaged the ladder")
	}
}
