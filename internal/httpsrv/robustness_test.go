package httpsrv

import (
	"testing"
	"time"

	"psd/internal/admission"
	"psd/internal/chaos"
	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/obs"
)

// rejectAll is the worst-case admission controller: with a ladder in
// front of it, any admitted request proves the degrade-before-shed gate.
type rejectAll struct{}

func (rejectAll) Admit(class int, size, now float64) bool { return false }
func (rejectAll) Name() string                            { return "rejectall" }

// overloadTick injects an infeasible window on every class and runs one
// manual reallocation (the Window: 1e9 configs never tick on their own).
func overloadTick(s *Server) {
	for _, cr := range s.classes {
		cr.injectWindow(4e9, 4e9) // λ̂ ⇒ ρ̂ >> 1
	}
	s.reallocate()
}

// healthyTick injects a small feasible window and reallocates.
func healthyTick(s *Server) {
	for _, cr := range s.classes {
		cr.injectWindow(10, 5)
	}
	s.reallocate()
}

// TestWatchdogDiscardsStaleWindow drives the stale-tick path
// deterministically: a reallocation arriving long past the threshold
// must freeze pacing at the last-good rates, discard the overlong
// window instead of feeding it to the estimator, and leave a counted,
// flagged trace.
func TestWatchdogDiscardsStaleWindow(t *testing.T) {
	// WatchdogFactor < 0 keeps the external monitor goroutine off: this
	// test drives the in-tick stale path alone, and overriding staleAfter
	// below must not race a concurrent monitor read.
	s, err := New(Config{Deltas: []float64{1, 2}, TimeUnit: time.Millisecond, Window: 1e9, WatchdogFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The overlong window is class-1 heavy; if it leaked into the
	// estimator the later clean class-0 window could not claim ~all rate.
	s.classes[1].injectWindow(40, 20)
	s.staleAfter = 50 * time.Millisecond
	s.lastTickNano.Store(time.Now().Add(-time.Second).UnixNano())
	before := s.Rates()

	s.reallocate()

	after := s.Rates()
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("stale tick moved rates: %v -> %v", before, after)
		}
	}
	doc := s.Snapshot()
	if doc.WatchdogStaleTicks != 1 || !doc.WatchdogStalled {
		t.Fatalf("stale tick not accounted: staleTicks=%d stalled=%v", doc.WatchdogStaleTicks, doc.WatchdogStalled)
	}
	if doc.Reallocations != 0 {
		t.Fatalf("stale tick counted as a reallocation: %d", doc.Reallocations)
	}
	recs := s.rec.Snapshot()
	last := recs[len(recs)-1]
	if last.Flags&obs.FlagStaleTick == 0 {
		t.Fatalf("stale tick not flight-recorded: flags %08b", last.Flags)
	}
	for i, r := range last.Rates {
		if r != before[i] {
			t.Fatalf("freeze record rates %v, want frozen %v", last.Rates, before)
		}
	}

	// A prompt clean window (class-0 heavy) must clear the stall and feed
	// ONLY itself: class 0 claims nearly all capacity, proving the stale
	// class-1 window was discarded rather than folded into history.
	s.classes[0].injectWindow(40, 20)
	s.reallocate()
	doc = s.Snapshot()
	if doc.WatchdogStalled {
		t.Fatal("stalled gauge not cleared by a prompt tick")
	}
	if doc.WatchdogStaleTicks != 1 {
		t.Fatalf("prompt tick counted as stale: %d", doc.WatchdogStaleTicks)
	}
	rates := s.Rates()
	if !(rates[0] > 0.9) {
		t.Fatalf("rates %v after clean class-0 window: stale class-1 window leaked into the estimator", rates)
	}

	// With the ladder engaged, the freeze record must carry the same
	// ladder-scaled δ vector the effective-delta gauge publishes.
	s, err = New(Config{
		Deltas: []float64{1, 2}, TimeUnit: time.Millisecond, Window: 1e9, WatchdogFactor: -1,
		Spec: control.Spec{Allocator: core.Downgrading{}, Ladder: admission.LadderConfig{EngageAfter: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	overloadTick(s)
	if doc := s.Snapshot(); doc.Classes[1].DegradationLevel != 1 {
		t.Fatalf("setup: ladder level %d after an overload tick, want 1", doc.Classes[1].DegradationLevel)
	}
	s.staleAfter = 50 * time.Millisecond
	s.lastTickNano.Store(time.Now().Add(-time.Second).UnixNano())
	s.reallocate()
	recs = s.rec.Snapshot()
	last = recs[len(recs)-1]
	if last.Flags&obs.FlagStaleTick == 0 {
		t.Fatalf("stale tick not flight-recorded: flags %08b", last.Flags)
	}
	for i, c := range s.Snapshot().Classes {
		if last.EffDeltas[i] != c.EffectiveDelta {
			t.Fatalf("class %d: freeze record delta %v, effective-delta gauge %v", i, last.EffDeltas[i], c.EffectiveDelta)
		}
	}
	if last.EffDeltas[1] != 4 {
		t.Fatalf("freeze record delta %v, want base 2 x rung 2 = 4 for class 1", last.EffDeltas)
	}
}

// TestWatchdogCatchesStalledLoop runs the watchdog goroutine for real: a
// DropProb=1 injector swallows every reallocation tick, so the monitor
// must flag the stall from outside, and disarming chaos must let the
// loop recover and the flag clear.
func TestWatchdogCatchesStalledLoop(t *testing.T) {
	inj, err := chaos.New(chaos.Config{Seed: 1, DropProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Deltas:         []float64{1, 2},
		TimeUnit:       time.Millisecond,
		Window:         20, // 20ms period
		WatchdogFactor: 2,  // stale after 40ms
		Chaos:          inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	waitFor := func(cond func(MetricsDocument) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond(s.Snapshot()) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s: %+v", what, s.Snapshot())
	}

	waitFor(func(d MetricsDocument) bool { return d.WatchdogStalled && d.WatchdogStaleTicks >= 1 },
		"watchdog to flag the dropped-tick stall")
	found := false
	for _, r := range s.rec.Snapshot() {
		if r.Flags&obs.FlagStaleTick != 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no FlagStaleTick flight record during the stall")
	}

	inj.Disarm()
	waitFor(func(d MetricsDocument) bool { return !d.WatchdogStalled }, "recovery after disarming chaos")
	if drops := inj.Counts().DroppedTicks; drops < 1 {
		t.Fatalf("DroppedTicks = %d, want >= 1", drops)
	}
}

// TestLadderDegradesBeforeShedding is the deterministic degrade-first
// contract: with a worst-case (reject-everything) admission controller
// behind the ladder, requests keep flowing until every rung is engaged,
// the effective δ targets visibly step down the ladder, and recovery
// climbs back with hysteresis until the gate is open again.
func TestLadderDegradesBeforeShedding(t *testing.T) {
	s, err := New(Config{
		Deltas:   []float64{1, 2},
		TimeUnit: time.Millisecond,
		Window:   1e9,
		Spec: control.Spec{
			Allocator: core.Downgrading{},
			// Depth-1 history so a healthy window replaces the overload
			// estimate immediately; deeper histories only stretch the
			// recovery timeline.
			HistoryWindows: 1,
			Ladder: admission.LadderConfig{
				Multipliers:  []float64{2, 4},
				EngageAfter:  1,
				RecoverAfter: 2,
			},
		},
		Admission: rejectAll{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	assertAdmit := func(wantOK bool, when string) {
		t.Helper()
		ok, charged := s.admit(0, 1)
		if ok != wantOK {
			t.Fatalf("%s: admit = %v, want %v", when, ok, wantOK)
		}
		if ok && charged {
			t.Fatalf("%s: ladder-bypassed admission was charged to the controller", when)
		}
	}

	assertAdmit(true, "nominal")

	// Rung 1: class 1 (the non-reference class) degrades, gate stays open.
	overloadTick(s)
	doc := s.Snapshot()
	if doc.Classes[1].DegradationLevel != 1 || doc.Classes[0].DegradationLevel != 0 {
		t.Fatalf("after 1 overload tick: levels %d/%d, want 0/1",
			doc.Classes[0].DegradationLevel, doc.Classes[1].DegradationLevel)
	}
	if doc.LadderShedding {
		t.Fatal("shedding with rungs still available")
	}
	if got := doc.Classes[1].EffectiveDelta; got != 4 {
		t.Fatalf("class 1 effective delta = %v, want base 2 x rung 2 = 4", got)
	}
	assertAdmit(true, "rung 1")

	// Rung 2: maxed out — only now may the admission controller shed.
	overloadTick(s)
	doc = s.Snapshot()
	if doc.Classes[1].DegradationLevel != 2 {
		t.Fatalf("after 2 overload ticks: level %d, want 2", doc.Classes[1].DegradationLevel)
	}
	if !doc.LadderShedding {
		t.Fatal("ladder maxed but shed gate closed")
	}
	if got := doc.Classes[1].EffectiveDelta; got != 8 {
		t.Fatalf("class 1 effective delta = %v, want base 2 x rung 4 = 8", got)
	}
	assertAdmit(false, "maxed out")

	// Recovery: RecoverAfter=2 healthy ticks per rung, one rung at a time;
	// the shed gate closes the moment the ladder is off the top rung.
	healthyTick(s)
	healthyTick(s)
	doc = s.Snapshot()
	if doc.Classes[1].DegradationLevel != 1 || doc.LadderShedding {
		t.Fatalf("first recovery step: level %d shedding %v, want 1/false",
			doc.Classes[1].DegradationLevel, doc.LadderShedding)
	}
	assertAdmit(true, "recovering")
	healthyTick(s)
	healthyTick(s)
	doc = s.Snapshot()
	if doc.Classes[1].DegradationLevel != 0 {
		t.Fatalf("full recovery: level %d, want 0", doc.Classes[1].DegradationLevel)
	}
	if got := doc.Classes[1].EffectiveDelta; got != 2 {
		t.Fatalf("recovered effective delta = %v, want base 2", got)
	}
}

// TestReconfiguredServerStartsLadderNominal is the reconfiguration
// regression: a server built from the Config of one whose ladder maxed
// out must start at level 0 with the degrade-before-shed gate held open.
func TestReconfiguredServerStartsLadderNominal(t *testing.T) {
	cfg := Config{
		Deltas:    []float64{1, 2},
		TimeUnit:  time.Millisecond,
		Window:    1e9,
		Admission: rejectAll{},
		Spec: control.Spec{
			Allocator: core.Downgrading{},
			Ladder:    admission.LadderConfig{Multipliers: []float64{2}, EngageAfter: 1},
		},
	}
	old, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	overloadTick(old) // max out: 1 degradable class x 1 rung
	maxed := old.Snapshot().LadderShedding
	old.Close()
	if !maxed {
		t.Fatal("setup: ladder not maxed")
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	doc := s.Snapshot()
	if doc.LadderShedding || doc.Classes[1].DegradationLevel != 0 {
		t.Fatalf("new server inherited stale degradation: %+v", doc)
	}
	if ok, _ := s.admit(0, 1); !ok {
		t.Fatal("new server started shedding off a stale ladder")
	}
}

// TestDowngradeAllocatorArmsLadder: core.Downgrading alone arms the
// ladder on the live server, exactly as in the simulator, and the
// server's levels and shed gate step on the same ticks as a bare control
// loop fed the same windows.
func TestDowngradeAllocatorArmsLadder(t *testing.T) {
	deltas := []float64{1, 2}
	s, err := New(Config{Deltas: deltas, Spec: control.Spec{Allocator: core.Downgrading{}}, TimeUnit: time.Millisecond, Window: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lp, err := control.NewLoop(control.LoopConfig{
		Deltas:    deltas,
		Window:    1e9,
		Allocator: core.MinRate{Base: core.Downgrading{}, Min: minPaceRate},
		Workload:  s.workload,
	})
	if err != nil {
		t.Fatal(err)
	}
	engagedAt, shedAt := -1, -1
	for k := 0; k < 12; k++ {
		overloadTick(s)
		_, _ = lp.Tick(control.TickInput{Counts: []float64{4e9, 4e9}, Work: []float64{4e9, 4e9}})
		doc := s.Snapshot()
		for i, c := range doc.Classes {
			if c.DegradationLevel != lp.DegradationLevel(i) {
				t.Fatalf("tick %d class %d: live level %d, loop level %d", k, i, c.DegradationLevel, lp.DegradationLevel(i))
			}
		}
		if doc.LadderShedding != lp.LadderMaxedOut() || s.ladderHold.Load() != lp.GateHeldOpen() {
			t.Fatalf("tick %d: live shedding %v / gate held %v, loop %v / %v",
				k, doc.LadderShedding, s.ladderHold.Load(), lp.LadderMaxedOut(), lp.GateHeldOpen())
		}
		if engagedAt < 0 && doc.Classes[1].DegradationLevel > 0 {
			engagedAt = k
		}
		if shedAt < 0 && doc.LadderShedding {
			shedAt = k
		}
	}
	if engagedAt < 0 || shedAt <= engagedAt {
		t.Fatalf("downgrade never degraded before shedding: engaged at tick %d, shedding at tick %d", engagedAt, shedAt)
	}
}

// TestChaosWorkerStallInflatesDelay: a StallProb=1 injector must show up
// as queueing delay on a served request and in the fault counts, and
// disarming must stop it.
func TestChaosWorkerStallInflatesDelay(t *testing.T) {
	inj, err := chaos.New(chaos.Config{Seed: 1, StallProb: 1, StallDur: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := fastServer(t, Config{Deltas: []float64{1}, Chaos: inj})

	var resp Response
	getJSON(t, ts.URL+"/?class=0&size=1", &resp)
	if resp.DelayMs < 25 {
		t.Fatalf("stalled request delay %vms, want >= ~30ms", resp.DelayMs)
	}
	if c := inj.Counts().Stalls; c < 1 {
		t.Fatalf("Stalls = %d, want >= 1", c)
	}

	inj.Disarm()
	getJSON(t, ts.URL+"/?class=0&size=1", &resp)
	if resp.DelayMs >= 25 {
		t.Fatalf("disarmed injector still stalling: delay %vms", resp.DelayMs)
	}
}

// TestChaosCorruptTickRejected wires CorruptProb=1 through a real
// reallocation: the poisoned window must be rejected and counted, rates
// must hold, and the rejection must reach both the metrics document and
// the flight recorder.
func TestChaosCorruptTickRejected(t *testing.T) {
	inj, err := chaos.New(chaos.Config{Seed: 3, CorruptProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Deltas: []float64{1, 2}, TimeUnit: time.Millisecond, Window: 1e9, Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	before := s.Rates()
	for _, cr := range s.classes {
		cr.injectWindow(40, 20)
	}
	s.reallocate()

	doc := s.Snapshot()
	if doc.TickInputRejected != 1 {
		t.Fatalf("TickInputRejected = %d, want 1", doc.TickInputRejected)
	}
	after := s.Rates()
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("corrupt tick moved rates: %v -> %v", before, after)
		}
	}
	recs := s.rec.Snapshot()
	if last := recs[len(recs)-1]; last.Flags&obs.FlagInputRejected == 0 {
		t.Fatalf("corrupt tick not flagged in the flight record: %08b", last.Flags)
	}

	// Disarmed, the same injector must leave a clean tick untouched.
	inj.Disarm()
	s.classes[0].injectWindow(40, 20)
	s.reallocate()
	doc = s.Snapshot()
	if doc.TickInputRejected != 1 {
		t.Fatalf("clean tick rejected: %d", doc.TickInputRejected)
	}
	if rates := s.Rates(); !(rates[0] > 0.9) {
		t.Fatalf("clean skewed window not allocated: %v", rates)
	}
}

// TestClockJumpSkewsAdmissionClock: injected jumps shift nowUnits by
// exactly the jump magnitude (the admission controllers' guards against
// non-monotone clocks are exercised in the admission package).
func TestClockJumpSkewsAdmissionClock(t *testing.T) {
	s, err := New(Config{Deltas: []float64{1}, TimeUnit: time.Millisecond, Window: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.nowUnits()
	s.addClockSkew(-500)
	s.addClockSkew(125)
	after := s.nowUnits()
	// Elapsed wall clock between the two reads only moves the clock
	// forward; the skew must account for the rest.
	if diff := after - before; diff < -376 || diff > -340 {
		t.Fatalf("clock skew moved nowUnits by %v, want about -375", diff)
	}
}
