package control

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"psd/internal/admission"
	"psd/internal/core"
	"psd/internal/obs"
)

// EstimatorKind selects the Loop's load-smoothing strategy.
type EstimatorKind int

const (
	// Window is the paper's §4.1 estimator: the estimate for the next
	// window is the mean over the last HistoryWindows windows.
	Window EstimatorKind = iota
	// EWMA smooths with an exponentially weighted moving average, which
	// reacts faster to load shifts at equal steady-state noise (effective
	// memory ≈ 2/α − 1 windows).
	EWMA
)

// String implements fmt.Stringer.
func (k EstimatorKind) String() string {
	switch k {
	case Window:
		return "window"
	case EWMA:
		return "ewma"
	default:
		return fmt.Sprintf("estimator(%d)", int(k))
	}
}

// ParseEstimatorKind maps a flag value ("window" | "ewma") to its kind.
func ParseEstimatorKind(s string) (EstimatorKind, error) {
	switch s {
	case "window":
		return Window, nil
	case "ewma":
		return EWMA, nil
	default:
		return 0, fmt.Errorf("control: unknown estimator %q (want window or ewma)", s)
	}
}

// Valid reports whether k names a known estimator.
func (k EstimatorKind) Valid() bool { return k == Window || k == EWMA }

// LoopConfig parametrizes one control Loop. Zero optional fields take the
// paper's defaults on Reset (Spec.ApplyDefaults). Callers that hold a
// Spec build it with Spec.LoopConfig.
type LoopConfig struct {
	// Deltas are the per-class target differentiation parameters; the
	// slice is copied, and its length fixes the class count.
	Deltas []float64
	// Window is the estimation period in time units (> 0, required).
	Window float64
	// Estimator, HistoryWindows and EWMAAlpha are the Spec fields.
	Estimator      EstimatorKind
	HistoryWindows int
	EWMAAlpha      float64
	// Allocator computes the rate split (required): Spec.Allocator,
	// floored at Spec.MinRate.
	Allocator core.Allocator
	// Workload supplies the job-size moments the allocator needs.
	Workload core.Workload
	// EstimateFromWork, Feedback, FeedbackGain and FeedbackMaxTrim are the
	// Spec fields.
	EstimateFromWork bool
	Feedback         bool
	FeedbackGain     float64
	FeedbackMaxTrim  float64
	// Recorder, when non-nil, receives one flight record per Tick — the
	// λ̂ the allocator saw, the rates in force afterwards, the measured
	// slowdowns fed to the controller, the effective δ vector, and
	// failure/clamp flags. Reset re-dimensions the recorder to the class
	// count (retaining its capacity) and clears its history, so one
	// recorder tracks one Loop lifetime. Recording is allocation-free;
	// every Loop consumer (simulator and live server) shares this hook.
	Recorder *obs.FlightRecorder
	// Ladder is the Spec field: Reset arms the ladder iff Allocator is
	// downgrading.
	Ladder admission.LadderConfig
}

// TickInput carries one closed estimation window into Loop.Tick. The zero
// value is valid for consumers that feed observations through
// Loop.Observe and run open-loop.
type TickInput struct {
	// Counts and Work are the closed window's per-class arrival counts
	// and total work. Nil Counts means "use the Loop's own Observe
	// accumulators" (the simulator path); non-nil slices must have the
	// Loop's class count (the live-server path, which harvests per-class
	// runtime counters at the tick).
	Counts []float64
	Work   []float64
	// MeasuredSlowdowns feeds the feedback controller the window's
	// measured per-class mean slowdowns (NaN where a class had no
	// completions). Nil skips the controller update for this tick; it is
	// ignored entirely when the Loop runs open-loop.
	MeasuredSlowdowns []float64
	// OracleLambdas, when non-nil, replaces the estimator's arrival-rate
	// estimates handed to the allocator (the §4.4 estimation-error
	// ablation).
	OracleLambdas []float64
}

// validVec reports whether every entry of v is finite and ≥ 0 — the
// shape every window observation (counts, work) and oracle λ must have.
func validVec(v []float64) bool {
	for _, x := range v {
		// !(x >= 0) catches NaN as well as negatives.
		if !(x >= 0) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// validSlowdowns reports whether v is a legal measured-slowdown vector:
// NaN entries are legitimate (a class without completions), but negative
// or infinite slowdowns are corruption.
func validSlowdowns(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) {
			continue
		}
		if x < 0 || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Loop is the shared estimate→control→allocate engine: one Tick closes an
// estimation window, updates the (optional) ratio-feedback controller,
// re-runs the allocator in place and, under a downgrading allocator,
// steps the degradation ladder (Fricker et al.: scale δ up one rung at a
// time under overload; only a maxed-out ladder lets the admission gate
// shed). It is the single control plane behind both the simulator
// (internal/simsrv, every server model) and the live HTTP server
// (internal/httpsrv), so the two cannot drift: each only reads the
// ladder's state back (GateHeldOpen, LadderEngaged, DegradationLevel,
// LadderMaxedOut).
//
// A Loop is a reusable arena: Reset re-dimensions it for a new
// configuration reusing all retained buffers, and a steady-state Tick
// performs no heap allocation (gated by TestLoopTickAllocFree and
// httpsrv's BenchmarkReallocate). A Loop is not safe for
// concurrent use; callers serialize access (the simulator is
// single-goroutine, httpsrv wraps it in a mutex).
type Loop struct {
	deltas   []float64 // target δ (copied from config)
	window   float64
	workload core.Workload
	spec     Spec // cfg's knobs, defaulted (the ladder is below)

	classes int

	// Estimator cores; only the configured kind is consulted.
	ring windowRing
	ewma ewmaState

	// Current (open) window accumulators for the Observe path.
	curCount []float64
	curWork  []float64

	ctrl RatioController // active iff feedback

	// Degradation ladder, non-nil iff the allocator is downgrading.
	// ladderCfg is the config it was built from (with lp.deltas, the
	// reuse key across Resets); scale holds its per-class δ multipliers.
	ladder    *admission.Ladder
	ladderCfg admission.LadderConfig
	scale     []float64

	// Flight recording (nil when not configured).
	rec   *obs.FlightRecorder
	ticks uint64 // completed Tick calls since Reset

	// Input-guard state: rejected counts ticks that carried at least one
	// corrupt field (NaN/Inf/negative counts, work, slowdowns or oracle
	// λ); tickFlags carries the current tick's flag bits into the flight
	// record.
	rejected  uint64
	tickFlags uint8

	// Per-tick scratch.
	effDeltas    []float64
	lambdas      []float64
	loads        []float64
	allocClasses []core.Class
	alloc        core.Allocation
}

// NewLoop builds and arms a Loop.
func NewLoop(cfg LoopConfig) (*Loop, error) {
	lp := new(Loop)
	if err := lp.Reset(cfg); err != nil {
		return nil, err
	}
	return lp, nil
}

// Reset re-arms the Loop for cfg, reusing every retained buffer. A reset
// Loop is observationally identical to a freshly constructed one.
func (lp *Loop) Reset(cfg LoopConfig) error {
	if cfg.Allocator == nil {
		return fmt.Errorf("control: loop needs an allocator")
	}
	// The knobs take the defaults and checks of every Spec caller.
	knobs := Spec{Allocator: cfg.Allocator, Estimator: cfg.Estimator, HistoryWindows: cfg.HistoryWindows,
		EWMAAlpha: cfg.EWMAAlpha, EstimateFromWork: cfg.EstimateFromWork, Feedback: cfg.Feedback,
		FeedbackGain: cfg.FeedbackGain, FeedbackMaxTrim: cfg.FeedbackMaxTrim}
	knobs.ApplyDefaults()
	if err := knobs.Validate(); err != nil {
		return err
	}
	nc := len(cfg.Deltas)
	if nc == 0 {
		return fmt.Errorf("control: loop needs at least one class")
	}
	for i, d := range cfg.Deltas {
		if !(d > 0) || math.IsInf(d, 0) {
			return fmt.Errorf("control: loop delta[%d] = %v must be positive and finite", i, d)
		}
	}
	if !(cfg.Window > 0) {
		return fmt.Errorf("control: loop window %v must be positive", cfg.Window)
	}
	if err := cfg.Workload.Validate(); err != nil {
		return err
	}
	// A retained ladder is reused at level 0 when neither the deltas nor
	// its config changed: a replication arena re-arms without allocating.
	ladder := lp.ladder
	lp.ladder = nil
	if core.IsDowngrading(cfg.Allocator) {
		if ladder != nil && slices.Equal(lp.deltas, cfg.Deltas) && sameLadderConfig(lp.ladderCfg, cfg.Ladder) {
			ladder.Reset()
		} else {
			var err error
			if ladder, err = admission.NewLadder(cfg.Ladder, cfg.Deltas); err != nil {
				return err
			}
			lp.ladderCfg = cfg.Ladder
			lp.ladderCfg.Multipliers = slices.Clone(cfg.Ladder.Multipliers)
			lp.ladderCfg.Order = slices.Clone(cfg.Ladder.Order)
		}
		lp.ladder = ladder
	}

	lp.window, lp.workload, lp.spec = cfg.Window, cfg.Workload, knobs
	lp.classes = nc

	lp.deltas = resizeFloats(lp.deltas, nc)
	copy(lp.deltas, cfg.Deltas)

	lp.ring.reset(nc, knobs.HistoryWindows, lp.window)
	lp.ewma.reset(nc, knobs.EWMAAlpha, lp.window)
	lp.curCount = resizeFloats(lp.curCount, nc)
	lp.curWork = resizeFloats(lp.curWork, nc)
	for i := 0; i < nc; i++ {
		lp.curCount[i] = 0
		lp.curWork[i] = 0
	}

	lp.effDeltas = resizeFloats(lp.effDeltas, nc)
	lp.lambdas = resizeFloats(lp.lambdas, nc)
	lp.loads = resizeFloats(lp.loads, nc)
	lp.scale = resizeFloats(lp.scale, nc)
	if cap(lp.allocClasses) < nc {
		lp.allocClasses = make([]core.Class, nc)
	} else {
		lp.allocClasses = lp.allocClasses[:nc]
	}

	if cfg.Feedback {
		if err := lp.ctrl.ResetTargets(lp.deltas, knobs.FeedbackGain, knobs.FeedbackMaxTrim); err != nil {
			return err
		}
	}
	lp.rec = cfg.Recorder
	lp.ticks = 0
	lp.rejected = 0
	lp.tickFlags = 0
	// Drop the retained allocation (keeping capacity): a reconfigured
	// Loop must never report the previous configuration's last-good rate
	// vector — an early failed tick would otherwise flight-record and
	// hand out stale rates dimensioned for the old class set.
	lp.alloc.Rates = lp.alloc.Rates[:0]
	lp.alloc.ExpectedSlowdowns = lp.alloc.ExpectedSlowdowns[:0]
	lp.alloc.Utilization = 0
	if lp.rec != nil {
		capacity := lp.rec.Capacity()
		if capacity < 1 {
			capacity = 256
		}
		lp.rec.Reset(nc, capacity)
	}
	return nil
}

// Classes returns the configured class count.
func (lp *Loop) Classes() int { return lp.classes }

// InputRejected returns how many Ticks since Reset carried at least one
// corrupt input field (discarded and replaced by last-good state).
func (lp *Loop) InputRejected() uint64 { return lp.rejected }

// Observe accumulates one arrival of the given size into the open
// estimation window (the simulator path; live servers usually batch their
// own counters and pass them via TickInput.Counts instead).
func (lp *Loop) Observe(class int, size float64) {
	lp.curCount[class]++
	lp.curWork[class] += size
}

// observeWindow folds one closed window's per-class counts and work into
// the configured estimator core.
func (lp *Loop) observeWindow(counts, work []float64) {
	switch lp.spec.Estimator {
	case Window:
		lp.ring.observe(counts, work)
	case EWMA:
		lp.ewma.observe(counts, work)
	}
}

// LambdasInto fills dst with the current per-class arrival-rate estimates
// (zero before the first closed window). len(dst) must be Classes().
func (lp *Loop) LambdasInto(dst []float64) {
	switch lp.spec.Estimator {
	case Window:
		lp.ring.lambdasInto(dst)
	case EWMA:
		copy(dst, lp.ewma.lambdas)
	}
}

// LoadsInto fills dst with the current per-class offered-load estimates
// (work units per time unit).
func (lp *Loop) LoadsInto(dst []float64) {
	switch lp.spec.Estimator {
	case Window:
		lp.ring.loadsInto(dst)
	case EWMA:
		copy(dst, lp.ewma.loads)
	}
}

// EffectiveDeltasInto fills dst with the δ vector the next Tick hands to
// the allocator: the targets, trimmed by the feedback controller when it
// is active, then scaled by the degradation ladder when it is armed.
func (lp *Loop) EffectiveDeltasInto(dst []float64) {
	copy(dst, lp.deltas)
	if lp.spec.Feedback {
		lp.ctrl.DeltasInto(dst)
	}
	if lp.ladder != nil {
		lp.ladder.ScaleInto(lp.scale)
		for i := range dst {
			dst[i] *= lp.scale[i]
		}
	}
}

// GateHeldOpen reports whether the admission gate must admit everything:
// the ladder is armed and still has a rung to give (degrade before shed).
func (lp *Loop) GateHeldOpen() bool { return lp.ladder != nil && !lp.ladder.MaxedOut() }

// LadderEngaged reports whether any class is currently degraded.
func (lp *Loop) LadderEngaged() bool { return lp.ladder != nil && lp.ladder.Engaged() }

// LadderMaxedOut reports whether every rung is engaged, the point past
// which the admission gate may shed (always false without a ladder).
func (lp *Loop) LadderMaxedOut() bool { return lp.ladder != nil && lp.ladder.MaxedOut() }

// DegradationLevel returns class i's ladder level (0 = nominal, and
// always 0 without a ladder).
func (lp *Loop) DegradationLevel(class int) int {
	if lp.ladder == nil {
		return 0
	}
	return lp.ladder.Level(class)
}

// Tick runs one control period: close the estimation window (from
// in.Counts/Work, or from the Observe accumulators when in.Counts is
// nil), update the feedback controller from in.MeasuredSlowdowns, re-run
// the allocator and, with the ladder armed, feed it this tick's ρ̂ = Σ
// offered loads and the allocation's feasibility. While the ladder is
// engaged the measured slowdowns are dropped before the input guards see
// them: the ratio controller would trim toward exactly the base targets
// the ladder is scaling away from. On success it returns the new rate
// vector — a Loop-owned scratch slice, valid until the next Tick/Reset,
// which the caller applies (flooring, scheduler weights, pacing) as its
// server model requires. On error (typically core.ErrInfeasible under a
// transient ρ̂ ≥ 1, or ErrDimension for malformed input, which leaves
// the estimator untouched) the caller should keep its previous rates.
func (lp *Loop) Tick(in TickInput) ([]float64, error) {
	if in.Counts != nil && (len(in.Counts) != lp.classes || len(in.Work) != lp.classes) {
		return nil, ErrDimension
	}
	if in.MeasuredSlowdowns != nil && len(in.MeasuredSlowdowns) != lp.classes {
		return nil, ErrDimension
	}
	if in.OracleLambdas != nil && len(in.OracleLambdas) != lp.classes {
		return nil, ErrDimension
	}
	counts, work := in.Counts, in.Work
	if counts == nil {
		counts, work = lp.curCount, lp.curWork
	}
	// Input guards: a corrupt window (NaN/Inf/negative counts or work)
	// must not reach the estimator core — once folded in, a poisoned
	// window skews λ̂ for the full history depth (forever under EWMA).
	// The whole window is discarded and the estimator keeps its last-good
	// state; the tick is flagged and counted, but still allocates.
	lp.tickFlags = 0
	if validVec(counts) && validVec(work) {
		lp.observeWindow(counts, work)
	} else {
		lp.tickFlags |= obs.FlagInputRejected
	}
	if in.Counts == nil {
		for i := 0; i < lp.classes; i++ {
			lp.curCount[i] = 0
			lp.curWork[i] = 0
		}
	}
	slowdowns := in.MeasuredSlowdowns
	if lp.LadderEngaged() {
		slowdowns = nil
	}
	if slowdowns != nil && !validSlowdowns(slowdowns) {
		// Corrupt measurements must not steer the feedback trim; drop the
		// vector (the controller simply skips this window's update).
		slowdowns = nil
		lp.tickFlags |= obs.FlagInputRejected
	}
	oracle := in.OracleLambdas
	if oracle != nil && !validVec(oracle) {
		oracle = nil
		lp.tickFlags |= obs.FlagInputRejected
	}
	if lp.tickFlags&obs.FlagInputRejected != 0 {
		lp.rejected++
	}

	if lp.spec.Feedback && slowdowns != nil {
		_ = lp.ctrl.Update(slowdowns)
	}
	lp.EffectiveDeltasInto(lp.effDeltas)

	lp.LambdasInto(lp.lambdas)
	if lp.spec.EstimateFromWork {
		lp.LoadsInto(lp.loads)
		for i := range lp.lambdas {
			lp.lambdas[i] = lp.loads[i] / lp.workload.MeanSize
		}
	}
	for i := 0; i < lp.classes; i++ {
		l := lp.lambdas[i]
		if oracle != nil {
			l = oracle[i]
		}
		lp.lambdas[i] = l // scratch now holds what the allocator sees
		lp.allocClasses[i] = core.Class{Delta: lp.effDeltas[i], Lambda: l}
	}
	err := core.AllocateInto(lp.spec.Allocator, &lp.alloc, lp.allocClasses, lp.workload)
	if lp.rec != nil {
		lp.recordTick(slowdowns, err)
	}
	lp.ticks++
	if lp.ladder != nil {
		lp.LoadsInto(lp.loads)
		rho := 0.0
		for _, l := range lp.loads {
			rho += l
		}
		lp.ladder.Observe(rho, errors.Is(err, core.ErrInfeasible))
	}
	if err != nil {
		return nil, err
	}
	return lp.alloc.Rates, nil
}

// recordTick appends one flight record. Timestamps are ticks·Window — the
// control clock, identical for every Loop consumer, which is what lets
// the flight-recorder parity test demand bit-identical records between a
// bare Loop and the live server. On a failed tick the recorded rates are
// the retained previous allocation (the allocator leaves them untouched
// on error), or NaN before any allocation succeeded.
func (lp *Loop) recordTick(slowdowns []float64, allocErr error) {
	flags := lp.tickFlags
	rates := lp.alloc.Rates
	if len(rates) != lp.classes {
		rates = nil
	}
	if allocErr != nil {
		flags |= obs.FlagAllocFailure
	} else {
		for _, r := range rates {
			if r <= 0 {
				flags |= obs.FlagNonPositiveRate
				break
			}
		}
	}
	lp.rec.Record(float64(lp.ticks+1)*lp.window, flags, lp.lambdas, rates, slowdowns, lp.effDeltas)
}

// AllocateDeclared runs the allocator against the target δ vector and the
// given (declared/true) arrival rates, bypassing the estimator and
// controller — the provisioning step before any window has closed, and
// the Eq. 18 model prediction under true demand. The returned Allocation
// is Loop-owned scratch shared with Tick, valid until the next
// Tick/AllocateDeclared/Reset.
func (lp *Loop) AllocateDeclared(lambdas []float64) (*core.Allocation, error) {
	for i := 0; i < lp.classes; i++ {
		lp.allocClasses[i] = core.Class{Delta: lp.deltas[i], Lambda: lambdas[i]}
	}
	if err := core.AllocateInto(lp.spec.Allocator, &lp.alloc, lp.allocClasses, lp.workload); err != nil {
		return nil, err
	}
	return &lp.alloc, nil
}

// sameLadderConfig reports whether a and b build the same ladder: equal
// scalars and element-wise equal slices, a nil slice (the default) only
// matching nil.
func sameLadderConfig(a, b admission.LadderConfig) bool {
	return a.EngageAfter == b.EngageAfter && a.RecoverAfter == b.RecoverAfter &&
		a.EngageRho == b.EngageRho && a.RecoverRho == b.RecoverRho &&
		(a.Multipliers == nil) == (b.Multipliers == nil) && slices.Equal(a.Multipliers, b.Multipliers) &&
		(a.Order == nil) == (b.Order == nil) && slices.Equal(a.Order, b.Order)
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
