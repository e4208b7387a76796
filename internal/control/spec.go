package control

import (
	"fmt"

	"psd/internal/admission"
	"psd/internal/core"
	"psd/internal/obs"
)

// Spec is the caller-settable part of a LoopConfig, embedded by both
// simsrv.Config and httpsrv.Config so one value gives the same control on
// either side. Each side supplies the rest — δ targets, window, workload
// moments, flight recorder — to Spec.LoopConfig.
type Spec struct {
	// Allocator computes the per-window rate split (default core.PSD).
	Allocator core.Allocator
	// Estimator selects the load smoothing: Window (the paper's §4.1) or
	// EWMA, which reacts faster after load shifts.
	Estimator EstimatorKind
	// HistoryWindows is the Window estimator's depth (default 5, §4.1).
	HistoryWindows int
	// EWMAAlpha is the EWMA smoothing factor in (0, 1] (default 0.3).
	EWMAAlpha float64
	// EstimateFromWork derives the allocator's arrival rates from measured
	// work (λ̂_i = load_i / E[X]) instead of request counts. Pair it with a
	// size-biased admission policy (e.g. a utilization bound, which sheds
	// large jobs first): it decouples the admitted count and work rates,
	// and count-based ρ̂ then reads phantom overload.
	EstimateFromWork bool
	// Feedback enables the RatioController trim of the δ vector from
	// measured per-window slowdown ratios (the paper's future work).
	Feedback bool
	// FeedbackGain is the controller gain in (0, 1] (default 0.3).
	FeedbackGain float64
	// FeedbackMaxTrim bounds each effective δ within
	// [target/MaxTrim, target·MaxTrim] (default 8).
	FeedbackMaxTrim float64
	// MinRate is the per-class allocation floor in capacity fractions
	// (Floored wraps the Allocator in core.MinRate). Zero takes the
	// caller's default — none in the simulator, 1e-3 on the live server;
	// negative disables the floor.
	MinRate float64
	// Ladder dimensions the Fricker-style degradation ladder, which the
	// Loop arms iff Allocator is downgrading: under sustained overload the
	// effective δ targets step up its rungs before any request is shed.
	// The zero value takes admission's defaults.
	Ladder admission.LadderConfig
}

// ApplyDefaults fills s's zero fields: the PSD allocator, history 5,
// EWMA α 0.3, feedback gain 0.3 and trim 8. MinRate is left to the
// caller, whose default it is.
func (s *Spec) ApplyDefaults() {
	if s.Allocator == nil {
		s.Allocator = core.PSD{}
	}
	if s.HistoryWindows == 0 {
		s.HistoryWindows = 5
	}
	if s.EWMAAlpha == 0 {
		s.EWMAAlpha = 0.3
	}
	if s.FeedbackGain == 0 {
		s.FeedbackGain = 0.3
	}
	if s.FeedbackMaxTrim == 0 {
		s.FeedbackMaxTrim = 8
	}
}

// Validate reports an unknown estimator or an out-of-range history, α,
// gain or trim. Call it on a defaulted Spec.
func (s *Spec) Validate() error {
	if !s.Estimator.Valid() {
		return fmt.Errorf("control: unknown estimator kind %d", int(s.Estimator))
	}
	if s.HistoryWindows < 1 {
		return fmt.Errorf("control: history windows %d must be >= 1", s.HistoryWindows)
	}
	if !(s.EWMAAlpha > 0) || s.EWMAAlpha > 1 {
		return fmt.Errorf("control: EWMA alpha %v must be in (0, 1]", s.EWMAAlpha)
	}
	return checkFeedback(s.FeedbackGain, s.FeedbackMaxTrim)
}

// checkFeedback is the feedback controller's range check, shared by
// Spec.Validate and RatioController.ResetTargets.
func checkFeedback(gain, maxTrim float64) error {
	if !(gain > 0) || gain > 1 {
		return fmt.Errorf("control: gain %v must be in (0, 1]", gain)
	}
	if !(maxTrim > 1) {
		return fmt.Errorf("control: maxTrim %v must exceed 1", maxTrim)
	}
	return nil
}

// LoopConfig builds the Loop configuration for s: the given δ targets,
// window, workload moments and flight recorder (nil for none), with the
// Allocator floored at MinRate.
func (s *Spec) LoopConfig(deltas []float64, window float64, w core.Workload, rec *obs.FlightRecorder) LoopConfig {
	return LoopConfig{
		Deltas:           deltas,
		Window:           window,
		Estimator:        s.Estimator,
		HistoryWindows:   s.HistoryWindows,
		EWMAAlpha:        s.EWMAAlpha,
		Allocator:        Floored(s.Allocator, s.MinRate),
		Workload:         w,
		EstimateFromWork: s.EstimateFromWork,
		Feedback:         s.Feedback,
		FeedbackGain:     s.FeedbackGain,
		FeedbackMaxTrim:  s.FeedbackMaxTrim,
		Recorder:         rec,
		Ladder:           s.Ladder,
	}
}

// Floored wraps a in core.MinRate at floor min, or returns it unchanged
// when min ≤ 0. The wrapper is bit-transparent wherever the floor does
// not bind.
func Floored(a core.Allocator, min float64) core.Allocator {
	if min > 0 {
		return core.MinRate{Base: a, Min: min}
	}
	return a
}

// String renders s, defaulted, on one line with every field in a fixed
// order (ladder: its rungs, [] for admission's default) — the form psdsim
// and psdserver both print, so a simulated and a live run compare by eye.
// Call it on a Spec its Config has defaulted, which settles MinRate.
func (s Spec) String() string {
	s.ApplyDefaults()
	return fmt.Sprintf("allocator=%s, estimator=%s, history=%d, ewma-alpha=%g, from-work=%t, feedback=%t, gain=%g, max-trim=%g, min-rate=%g, ladder=%v",
		s.Allocator.Name(), s.Estimator, s.HistoryWindows, s.EWMAAlpha, s.EstimateFromWork, s.Feedback, s.FeedbackGain, s.FeedbackMaxTrim, s.MinRate, s.Ladder.Multipliers)
}
