package admission

import (
	"math"
	"testing"
)

func mustLadder(t *testing.T, cfg LadderConfig, deltas []float64) *Ladder {
	t.Helper()
	ld, err := NewLadder(cfg, deltas)
	if err != nil {
		t.Fatal(err)
	}
	return ld
}

// overload drives n overloaded observations.
func overload(ld *Ladder, n int) {
	for i := 0; i < n; i++ {
		ld.Observe(1.2, true)
	}
}

func TestNewLadderValidation(t *testing.T) {
	deltas := []float64{1, 2, 4}
	cases := []struct {
		name string
		cfg  LadderConfig
		ds   []float64
	}{
		{"no classes", LadderConfig{}, nil},
		{"rung not above 1", LadderConfig{Multipliers: []float64{1}}, deltas},
		{"rungs not ascending", LadderConfig{Multipliers: []float64{4, 2}}, deltas},
		{"infinite rung", LadderConfig{Multipliers: []float64{2, math.Inf(1)}}, deltas},
		{"NaN rung", LadderConfig{Multipliers: []float64{math.NaN()}}, deltas},
		{"negative engage streak", LadderConfig{EngageAfter: -1}, deltas},
		{"recover above engage", LadderConfig{EngageRho: 0.8, RecoverRho: 0.9}, deltas},
		{"NaN recover rho", LadderConfig{RecoverRho: math.NaN()}, deltas},
		{"order out of range", LadderConfig{Order: []int{0, 3}}, deltas},
		{"order repeats class", LadderConfig{Order: []int{1, 1}}, deltas},
		{"single class, no order", LadderConfig{}, []float64{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewLadder(tc.cfg, tc.ds); err == nil {
				t.Fatalf("NewLadder(%+v, %v) accepted invalid config", tc.cfg, tc.ds)
			}
		})
	}

	// Explicit order may include the reference class if the operator says so.
	ld := mustLadder(t, LadderConfig{Order: []int{0}, EngageAfter: 1}, deltas)
	overload(ld, 1)
	if got := ld.Level(0); got != 1 {
		t.Fatalf("explicit order {0}: reference class level %d, want 1", got)
	}
}

// TestLadderDefaultOrder: default degrade order is highest base δ first,
// and the reference (lowest-δ) class is never degraded.
func TestLadderDefaultOrder(t *testing.T) {
	ld := mustLadder(t, LadderConfig{Multipliers: []float64{2}, EngageAfter: 1}, []float64{1, 4, 2})

	overload(ld, 1)
	if got := []int{ld.Level(0), ld.Level(1), ld.Level(2)}; got[1] != 1 || got[0] != 0 || got[2] != 0 {
		t.Fatalf("first step degraded levels %v, want class 1 (highest delta) only", got)
	}
	overload(ld, 1)
	if got := []int{ld.Level(0), ld.Level(1), ld.Level(2)}; got[2] != 1 || got[0] != 0 {
		t.Fatalf("second step degraded levels %v, want class 2 next, reference untouched", got)
	}
	if !ld.MaxedOut() {
		t.Fatal("ladder with 2 degradable classes x 1 rung not maxed after 2 steps")
	}
	// Reference class stays nominal no matter how long the overload lasts.
	overload(ld, 10)
	if ld.Level(0) != 0 {
		t.Fatalf("reference class degraded to %d", ld.Level(0))
	}
}

// TestLadderDepthFirst: a class walks through ALL its rungs before the
// next class in the order is touched.
func TestLadderDepthFirst(t *testing.T) {
	ld := mustLadder(t, LadderConfig{Multipliers: []float64{2, 4, 8}, EngageAfter: 1}, []float64{1, 2, 4})
	scale := make([]float64, 3)

	wantLevels := [][3]int{{0, 0, 1}, {0, 0, 2}, {0, 0, 3}, {0, 1, 3}, {0, 2, 3}, {0, 3, 3}}
	for step, want := range wantLevels {
		overload(ld, 1)
		got := [3]int{ld.Level(0), ld.Level(1), ld.Level(2)}
		if got != want {
			t.Fatalf("after step %d: levels %v, want %v", step+1, got, want)
		}
	}
	if !ld.MaxedOut() {
		t.Fatal("not maxed out after walking the full sequence")
	}
	ld.ScaleInto(scale)
	if scale[0] != 1 || scale[1] != 8 || scale[2] != 8 {
		t.Fatalf("ScaleInto at max = %v, want [1 8 8]", scale)
	}
}

// TestLadderEngageHysteresis: EngageAfter consecutive overloaded ticks
// are needed per step, and any in-band or healthy tick restarts the count.
func TestLadderEngageHysteresis(t *testing.T) {
	ld := mustLadder(t, LadderConfig{EngageAfter: 3}, []float64{1, 2})

	overload(ld, 2)
	if ld.Engaged() {
		t.Fatal("engaged before EngageAfter overloaded ticks")
	}
	ld.Observe(0.90, false) // in-band: resets the streak
	overload(ld, 2)
	if ld.Engaged() {
		t.Fatal("in-band tick did not reset the overload streak")
	}
	if changed := ld.Observe(1.0, false); !changed {
		t.Fatal("third consecutive overloaded tick did not step")
	}
	if ld.Level(1) != 1 {
		t.Fatalf("Level(1) = %d, want 1", ld.Level(1))
	}
}

// TestLadderRecoveryHysteresis: recovery needs RecoverAfter consecutive
// healthy ticks, climbs one rung at a time, and in-band ticks hold level.
func TestLadderRecoveryHysteresis(t *testing.T) {
	ld := mustLadder(t, LadderConfig{Multipliers: []float64{2, 4}, EngageAfter: 1, RecoverAfter: 3}, []float64{1, 2})
	overload(ld, 2) // level 2: fully degraded
	if ld.Level(1) != 2 || !ld.MaxedOut() {
		t.Fatalf("setup: Level(1) = %d, MaxedOut = %v", ld.Level(1), ld.MaxedOut())
	}

	ld.Observe(0.5, false)
	ld.Observe(0.5, false)
	ld.Observe(0.92, false) // in-band: holds level, restarts the healthy streak
	if ld.Level(1) != 2 {
		t.Fatalf("level moved on an in-band tick: %d", ld.Level(1))
	}
	for i := 0; i < 3; i++ {
		ld.Observe(0.5, false)
	}
	if ld.Level(1) != 1 {
		t.Fatalf("after RecoverAfter healthy ticks: Level(1) = %d, want 1", ld.Level(1))
	}
	if ld.MaxedOut() {
		t.Fatal("still maxed out after one recovery step")
	}
	for i := 0; i < 3; i++ {
		ld.Observe(0.5, false)
	}
	if ld.Level(1) != 0 || ld.Engaged() {
		t.Fatalf("full recovery: Level(1) = %d, Engaged = %v", ld.Level(1), ld.Engaged())
	}
	// Recovering past level 0 is a no-op.
	for i := 0; i < 6; i++ {
		ld.Observe(0.5, false)
	}
	if ld.Level(1) != 0 {
		t.Fatalf("recovered below level 0: %d", ld.Level(1))
	}
}

// TestLadderInfeasibleAlwaysOverloaded: an infeasible allocation counts
// as overloaded regardless of rho, including NaN rho.
func TestLadderInfeasibleAlwaysOverloaded(t *testing.T) {
	ld := mustLadder(t, LadderConfig{EngageAfter: 1}, []float64{1, 2})
	ld.Observe(math.NaN(), true)
	if !ld.Engaged() {
		t.Fatal("infeasible tick with NaN rho did not engage")
	}
	// NaN rho without infeasibility is in-band: never healthy, never overloaded.
	ld2 := mustLadder(t, LadderConfig{EngageAfter: 1, RecoverAfter: 1}, []float64{1, 2})
	overload(ld2, 1)
	ld2.Observe(math.NaN(), false)
	if ld2.Level(1) != 1 {
		t.Fatalf("NaN rho changed the level: %d", ld2.Level(1))
	}
}

// TestLadderScaleIntoAndReset: ScaleInto reflects levels exactly and
// Reset returns to nominal with streaks cleared.
func TestLadderScaleIntoAndReset(t *testing.T) {
	ld := mustLadder(t, LadderConfig{Multipliers: []float64{3, 9}, EngageAfter: 1}, []float64{1, 2})
	scale := make([]float64, 2)

	ld.ScaleInto(scale)
	if scale[0] != 1 || scale[1] != 1 {
		t.Fatalf("nominal ScaleInto = %v, want [1 1]", scale)
	}
	overload(ld, 1)
	ld.ScaleInto(scale)
	if scale[0] != 1 || scale[1] != 3 {
		t.Fatalf("level-1 ScaleInto = %v, want [1 3]", scale)
	}
	overload(ld, 1)
	ld.ScaleInto(scale)
	if scale[1] != 9 {
		t.Fatalf("level-2 ScaleInto = %v, want [1 9]", scale)
	}

	ld.Reset()
	if ld.Engaged() || ld.Level(1) != 0 {
		t.Fatalf("Reset left Engaged=%v Level(1)=%d", ld.Engaged(), ld.Level(1))
	}
	ld.ScaleInto(scale)
	if scale[0] != 1 || scale[1] != 1 {
		t.Fatalf("post-Reset ScaleInto = %v, want [1 1]", scale)
	}
	// Reset also clears a pending overload streak: one more overloaded
	// tick must not immediately step with EngageAfter=2 semantics.
	ld2 := mustLadder(t, LadderConfig{EngageAfter: 2}, []float64{1, 2})
	overload(ld2, 1)
	ld2.Reset()
	overload(ld2, 1)
	if ld2.Engaged() {
		t.Fatal("Reset did not clear the overload streak")
	}
}

func TestLadderLevelBounds(t *testing.T) {
	ld := mustLadder(t, LadderConfig{}, []float64{1, 2})
	if ld.Level(-1) != 0 || ld.Level(2) != 0 {
		t.Fatal("out-of-range Level() not 0")
	}
}
