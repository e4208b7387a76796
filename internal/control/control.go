// Package control is the shared control plane around the PSD rate
// allocator: one estimate→control→allocate loop driven by both the
// simulator (internal/simsrv) and the live HTTP server (internal/httpsrv).
//
// The paper estimates each class's load as the average over the past five
// 1000-time-unit windows (§4.1) and attributes its controllability gaps at
// large δ ratios to estimation error (§4.4); its stated future work is
// improving short-timescale predictability. This package supplies:
//
//   - Loop: the allocation-free control plane itself — per Tick it closes
//     an estimation window, smooths it into arrival-rate estimates (the
//     paper's sliding-window mean, or an EWMA that reacts faster to load
//     shifts at equal noise), applies the optional feedback trim, and
//     re-runs the allocator in place
//   - RatioController: a multiplicative-integral feedback loop that trims
//     the δ values handed to the allocator so the *measured* slowdown
//     ratios converge to the targets even when the analytic model is off
//     (the future-work extension, evaluated in the ablation benches)
package control

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension reports slices of the wrong class count.
var ErrDimension = errors.New("control: wrong number of classes")

// windowRing is the Loop's window-mean estimator, the paper's: the
// estimate for the next window is the mean over the last history windows.
// One flat ring per metric, indexed [class*history+slot], keeps a class's
// history contiguous at scan time and lets the whole state reset without
// allocating.
type windowRing struct {
	window  float64
	classes int
	history int
	counts  []float64
	work    []float64
	next    int // ring write index
	filled  int // number of valid slots
}

// reset re-dimensions the ring for the given shape and clears it,
// reusing buffer capacity when the shape fits.
func (r *windowRing) reset(classes, history int, window float64) {
	r.classes, r.history, r.window = classes, history, window
	n := classes * history
	r.counts = resizeFloats(r.counts, n)
	r.work = resizeFloats(r.work, n)
	for i := 0; i < n; i++ {
		r.counts[i] = 0
		r.work[i] = 0
	}
	r.next = 0
	r.filled = 0
}

// observe folds one closed window's per-class totals into the ring.
// Slices must have the ring's class count (callers validate).
func (r *windowRing) observe(counts, work []float64) {
	for i := 0; i < r.classes; i++ {
		r.counts[i*r.history+r.next] = counts[i]
		r.work[i*r.history+r.next] = work[i]
	}
	r.next = (r.next + 1) % r.history
	if r.filled < r.history {
		r.filled++
	}
}

func (r *windowRing) lambdasInto(dst []float64) { r.meanInto(dst, r.counts) }
func (r *windowRing) loadsInto(dst []float64)   { r.meanInto(dst, r.work) }

func (r *windowRing) meanInto(dst, ring []float64) {
	if r.filled == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	span := r.window * float64(r.filled)
	for i := 0; i < r.classes; i++ {
		sum := 0.0
		row := ring[i*r.history : i*r.history+r.filled]
		for _, v := range row {
			sum += v
		}
		dst[i] = sum / span
	}
}

// ewmaState is the Loop's EWMA estimator: estimate ← (1−α)·estimate +
// α·window-rate, primed directly by the first observation. α in (0, 1];
// larger α reacts faster. Its effective memory of 1/α windows makes it
// comparable to a window mean with history ≈ 2/α − 1.
type ewmaState struct {
	window  float64
	alpha   float64
	classes int
	lambdas []float64
	loads   []float64
	primed  bool
}

// reset re-dimensions the state for the given shape and clears it,
// reusing buffer capacity when the shape fits.
func (e *ewmaState) reset(classes int, alpha, window float64) {
	e.classes, e.alpha, e.window = classes, alpha, window
	e.lambdas = resizeFloats(e.lambdas, classes)
	e.loads = resizeFloats(e.loads, classes)
	for i := 0; i < classes; i++ {
		e.lambdas[i] = 0
		e.loads[i] = 0
	}
	e.primed = false
}

// observe folds one closed window's per-class totals into the averages.
// Slices must have the state's class count (callers validate).
func (e *ewmaState) observe(counts, work []float64) {
	for c := 0; c < e.classes; c++ {
		l := counts[c] / e.window
		w := work[c] / e.window
		if !e.primed {
			e.lambdas[c] = l
			e.loads[c] = w
		} else {
			e.lambdas[c] += e.alpha * (l - e.lambdas[c])
			e.loads[c] += e.alpha * (w - e.loads[c])
		}
	}
	e.primed = true
}

// RatioController trims the δ vector fed to the allocator so measured
// slowdown ratios converge to the target ratios. Class 0 is the reference
// (its effective δ stays at the target); for i ≥ 1 the controller applies
// a multiplicative-integral update
//
//	δeff_i ← clamp(δeff_i · (target_i / measured_i)^Gain)
//
// once per adjustment period. Intuition: if class i's measured ratio is
// too high, handing the allocator a smaller δ_i directs more surplus
// capacity to class i, pulling the ratio down. Gain in (0, 1] trades
// convergence speed against noise amplification; the clamp keeps δeff
// within [target/MaxTrim, target·MaxTrim].
type RatioController struct {
	target  []float64
	eff     []float64
	gain    float64
	maxTrim float64
}

// ResetTargets re-arms the controller for a (possibly new) target vector,
// reusing its buffers, so arena owners (control.Loop) reset without
// allocating. A zero RatioController is armed by its first ResetTargets.
func (r *RatioController) ResetTargets(target []float64, gain, maxTrim float64) error {
	if len(target) == 0 {
		return errors.New("control: no target deltas")
	}
	for i, d := range target {
		if !(d > 0) || math.IsInf(d, 0) {
			return fmt.Errorf("control: target delta[%d] = %v must be positive", i, d)
		}
	}
	if err := checkFeedback(gain, maxTrim); err != nil {
		return err
	}
	n := len(target)
	r.target = resizeFloats(r.target, n)
	r.eff = resizeFloats(r.eff, n)
	copy(r.target, target)
	copy(r.eff, target)
	r.gain = gain
	r.maxTrim = maxTrim
	return nil
}

// Deltas returns the effective δ vector to hand to the allocator.
func (r *RatioController) Deltas() []float64 { return append([]float64(nil), r.eff...) }

// DeltasInto is Deltas into caller-owned storage (len = class count).
func (r *RatioController) DeltasInto(dst []float64) { copy(dst, r.eff) }

// Update feeds one period's measured per-class mean slowdowns. Classes
// with non-positive or NaN measurements (no completions) are skipped.
func (r *RatioController) Update(measured []float64) error {
	if len(measured) != len(r.target) {
		return ErrDimension
	}
	ref := measured[0]
	if !(ref > 0) || math.IsNaN(ref) {
		return nil // no reference signal this period
	}
	for i := 1; i < len(r.target); i++ {
		m := measured[i]
		if !(m > 0) || math.IsNaN(m) {
			continue
		}
		measuredRatio := m / ref
		targetRatio := r.target[i] / r.target[0]
		adj := math.Pow(targetRatio/measuredRatio, r.gain)
		next := r.eff[i] * adj
		lo := r.target[i] / r.maxTrim
		hi := r.target[i] * r.maxTrim
		if next < lo {
			next = lo
		}
		if next > hi {
			next = hi
		}
		r.eff[i] = next
	}
	return nil
}

// Reset restores the effective deltas to the targets.
func (r *RatioController) Reset() {
	copy(r.eff, r.target)
}
