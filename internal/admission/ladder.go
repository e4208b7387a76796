package admission

import (
	"fmt"
	"math"
	"sort"
)

// LadderConfig parametrizes a graceful-degradation Ladder (Fricker et
// al., "Allocation Schemes of Resources with Downgrading"): under
// sustained overload the server *degrades* a class's grade — raises its
// effective δ target, letting it tolerate proportionally more slowdown —
// before any request is shed. Degradation steps down one rung at a time
// through (class, multiplier) pairs, and climbs back up with hysteresis
// once the overload clears, so the ladder never flaps at the threshold.
type LadderConfig struct {
	// Multipliers are the per-class degradation rungs, strictly
	// ascending, each > 1: a class at degradation level k has its
	// effective δ scaled by Multipliers[k-1] (level 0 = nominal).
	// Default {2, 4, 8}.
	Multipliers []float64
	// Order lists the classes in degradation order (first entry degrades
	// first). Default: every class except the reference (lowest-δ) class,
	// highest base δ first — the classes already contracted to tolerate
	// the most slowdown absorb the overload first, and the reference
	// class that anchors the ratios is never degraded.
	Order []int
	// EngageAfter is how many consecutive overloaded observations arm one
	// downward step (default 2).
	EngageAfter int
	// RecoverAfter is how many consecutive healthy observations arm one
	// upward step (default 6) — the hysteresis asymmetry: degrade fast,
	// recover slow.
	RecoverAfter int
	// EngageRho is the utilization at or above which an observation
	// counts as overloaded (default 0.95); an infeasible allocation
	// always does.
	EngageRho float64
	// RecoverRho is the utilization at or below which an observation
	// counts as healthy (default 0.85, must be ≤ EngageRho). Between the
	// two thresholds the ladder holds its level and both streaks reset.
	RecoverRho float64
}

func (c LadderConfig) withDefaults() LadderConfig {
	if c.Multipliers == nil {
		c.Multipliers = []float64{2, 4, 8}
	}
	if c.EngageAfter == 0 {
		c.EngageAfter = 2
	}
	if c.RecoverAfter == 0 {
		c.RecoverAfter = 6
	}
	if c.EngageRho == 0 {
		c.EngageRho = 0.95
	}
	if c.RecoverRho == 0 {
		c.RecoverRho = 0.85
	}
	return c
}

// Ladder is the degradation state machine. It is driven once per control
// tick (Observe) and read by the tick path (ScaleInto, MaxedOut, Level);
// it is not safe for concurrent use — the owner serializes it alongside
// its control loop and publishes the decisions through atomics/gauges.
type Ladder struct {
	cfg     LadderConfig
	classes int

	// seq is the flattened depth-first degrade sequence: seq[0..] are the
	// (class, level) steps in the order they engage; pos is how many have
	// engaged (pos == len(seq) ⇒ maxed out, shedding may begin).
	seq []ladderStep
	pos int

	level []int // per-class degradation level (0 = nominal)

	overStreak    int
	healthyStreak int
}

type ladderStep struct {
	class int
	level int // 1-based rung
}

// NewLadder validates cfg against the base δ vector and builds the
// ladder at level 0.
func NewLadder(cfg LadderConfig, deltas []float64) (*Ladder, error) {
	cfg = cfg.withDefaults()
	nc := len(deltas)
	if nc == 0 {
		return nil, fmt.Errorf("admission: ladder needs at least one class")
	}
	if len(cfg.Multipliers) == 0 {
		return nil, fmt.Errorf("admission: ladder needs at least one multiplier rung")
	}
	prev := 1.0
	for i, m := range cfg.Multipliers {
		if !(m > prev) || math.IsInf(m, 0) {
			return nil, fmt.Errorf("admission: ladder multipliers must be finite, > 1, strictly ascending; rung %d = %v after %v", i, m, prev)
		}
		prev = m
	}
	if !(cfg.EngageAfter >= 1) || !(cfg.RecoverAfter >= 1) {
		return nil, fmt.Errorf("admission: ladder streaks must be >= 1 (engage %d, recover %d)", cfg.EngageAfter, cfg.RecoverAfter)
	}
	if !(cfg.EngageRho > 0) || math.IsInf(cfg.EngageRho, 0) || math.IsNaN(cfg.RecoverRho) || !(cfg.RecoverRho <= cfg.EngageRho) || cfg.RecoverRho < 0 {
		return nil, fmt.Errorf("admission: ladder thresholds need 0 <= recover %v <= engage %v", cfg.RecoverRho, cfg.EngageRho)
	}
	if cfg.Order == nil {
		// Default order: all classes except the reference (argmin δ, ties
		// to the lowest index), highest base δ first (ties: higher index
		// first, the "lower grade" by convention).
		ref := 0
		for i := 1; i < nc; i++ {
			if deltas[i] < deltas[ref] {
				ref = i
			}
		}
		order := make([]int, 0, nc-1)
		for i := 0; i < nc; i++ {
			if i != ref {
				order = append(order, i)
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			if deltas[order[a]] != deltas[order[b]] {
				return deltas[order[a]] > deltas[order[b]]
			}
			return order[a] > order[b]
		})
		cfg.Order = order
	} else {
		cfg.Order = append([]int(nil), cfg.Order...)
		seen := make([]bool, nc)
		for _, c := range cfg.Order {
			if c < 0 || c >= nc {
				return nil, fmt.Errorf("admission: ladder order class %d out of range [0, %d)", c, nc)
			}
			if seen[c] {
				return nil, fmt.Errorf("admission: ladder order repeats class %d", c)
			}
			seen[c] = true
		}
	}
	if len(cfg.Order) == 0 {
		return nil, fmt.Errorf("admission: ladder order is empty (single-class config needs an explicit order)")
	}
	cfg.Multipliers = append([]float64(nil), cfg.Multipliers...)

	ld := &Ladder{cfg: cfg, classes: nc, level: make([]int, nc)}
	ld.seq = make([]ladderStep, 0, len(cfg.Order)*len(cfg.Multipliers))
	for _, class := range cfg.Order {
		for r := 1; r <= len(cfg.Multipliers); r++ {
			ld.seq = append(ld.seq, ladderStep{class: class, level: r})
		}
	}
	return ld, nil
}

// Observe feeds one control tick's utilization estimate (ρ = Σ offered
// loads) and allocation feasibility into the state machine, stepping at
// most one rung per call. It reports whether any class's level changed.
func (ld *Ladder) Observe(rho float64, infeasible bool) (changed bool) {
	overloaded := infeasible || (!math.IsNaN(rho) && rho >= ld.cfg.EngageRho)
	healthy := !infeasible && !math.IsNaN(rho) && rho <= ld.cfg.RecoverRho
	switch {
	case overloaded:
		ld.healthyStreak = 0
		ld.overStreak++
		if ld.overStreak >= ld.cfg.EngageAfter && ld.pos < len(ld.seq) {
			step := ld.seq[ld.pos]
			ld.level[step.class] = step.level
			ld.pos++
			ld.overStreak = 0
			return true
		}
	case healthy:
		ld.overStreak = 0
		ld.healthyStreak++
		if ld.healthyStreak >= ld.cfg.RecoverAfter && ld.pos > 0 {
			ld.pos--
			step := ld.seq[ld.pos]
			ld.level[step.class] = step.level - 1
			ld.healthyStreak = 0
			return true
		}
	default:
		// Between the thresholds: hold the level, restart both streaks.
		ld.overStreak = 0
		ld.healthyStreak = 0
	}
	return false
}

// Level returns class i's current degradation level (0 = nominal,
// len(Multipliers) = fully degraded).
func (ld *Ladder) Level(class int) int {
	if class < 0 || class >= ld.classes {
		return 0
	}
	return ld.level[class]
}

// MaxedOut reports whether every rung is engaged — the point past which
// degradation has nothing left to give and shedding becomes legitimate.
func (ld *Ladder) MaxedOut() bool { return ld.pos == len(ld.seq) }

// Engaged reports whether any class is currently degraded.
func (ld *Ladder) Engaged() bool { return ld.pos > 0 }

// ScaleInto fills dst (one entry per class) with the per-class
// effective-δ multipliers: 1 for a nominal class, Multipliers[level-1]
// otherwise — the factors control.Loop applies to its effective δ.
func (ld *Ladder) ScaleInto(dst []float64) {
	for i := 0; i < ld.classes; i++ {
		if ld.level[i] == 0 {
			dst[i] = 1
		} else {
			dst[i] = ld.cfg.Multipliers[ld.level[i]-1]
		}
	}
}

// Reset returns every class to level 0 and clears both streaks (the
// server-reconfiguration path: a fresh config must not inherit a stale
// degradation state).
func (ld *Ladder) Reset() {
	ld.pos = 0
	ld.overStreak = 0
	ld.healthyStreak = 0
	for i := range ld.level {
		ld.level[i] = 0
	}
}
