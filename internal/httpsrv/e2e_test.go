// End-to-end harness: loadgen → httpsrv in one process via httptest.
// This is the closest thing the repo has to the paper's testbed run —
// real HTTP, real wall-clock pacing, the shared control plane ticking in
// the background — so it is gated out of -short (the CI race job) and
// kept statistically generous.
package httpsrv_test

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"psd/internal/control"
	"psd/internal/dist"
	"psd/internal/httpsrv"
	"psd/internal/loadgen"
	"psd/internal/workload"
)

// TestE2ESlowdownConvergence asserts the live stack's achieved slowdown
// ratios converge toward the δ targets within tolerance — in a steady
// phase AND after a mid-run load step, the regime rate-change-aware
// pacing exists for (a stepped load re-allocates rates while heavy jobs
// are in flight; the stale-rate path would hold pre-step service times).
//
// The bands are statistical and the clock is the real one, so the test
// runs up to maxAttempts independent testbed runs (fresh server, fresh
// load, different seeds) and passes on the first in-band run. A broken
// controller fails every attempt; a single OS-scheduling excursion on
// the single-core reference box (observed: a stalled worker inflating
// one phase's mean slowdown 4×) does not survive a retry. This is what
// lets the run-level band sit at ±1.3× instead of the seed's one-shot
// ±1.6×: tighter on the signal, insulated from the noise.
func TestE2ESlowdownConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e harness skipped in -short")
	}
	const maxAttempts = 4
	for attempt := 0; attempt < maxAttempts; attempt++ {
		final := attempt == maxAttempts-1
		if runConvergenceAttempt(t, attempt, final) {
			return
		}
		t.Logf("attempt %d out of band; retrying with fresh seeds", attempt)
	}
}

// runConvergenceAttempt performs one full testbed run and reports
// whether every band held. Non-statistical failures (plumbing: refused
// requests, silent control plane) abort the test immediately; band
// violations are t.Errorf only on the final attempt.
func runConvergenceAttempt(t *testing.T, attempt int, final bool) bool {
	t.Helper()
	const target = 2.0 // δ₁/δ₀
	sizes, err := dist.NewUniform(0.8, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := httpsrv.New(httpsrv.Config{
		Deltas:   []float64{1, target},
		Service:  sizes,
		TimeUnit: time.Millisecond,
		// Reallocate every 50ms: still many windows per phase, but enough
		// completions per window (~15/class) that the measured ratio the
		// feedback loop consumes isn't dominated by small-sample bias.
		Window: 50,
		// Tuned for short wall-clock phases: a higher-than-default gain
		// (0.3) converges the ratio within a few seconds, and a trim bound
		// tighter than the default 8 keeps one jittery window from
		// dragging δeff into multi-second excursions.
		Spec: control.Spec{Feedback: true, FeedbackGain: 0.4, FeedbackMaxTrim: 4},
		Seed: 7 + uint64(attempt)*101,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Mux())
	defer func() { ts.Close(); srv.Close() }()

	// Phases 1–2 offer ρ ≈ 0.72, then step to ρ ≈ 0.90 (E[X] = 1).
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:  ts.URL + "/",
		TimeUnit: time.Millisecond,
		Service:  sizes,
		Lambdas:  []float64{0.36, 0.36},
		Duration: 11 * time.Second,
		// Segment 0, the 3 s before the first phase, is warm-up only: it
		// absorbs the cold start (estimator fill plus the feedback ramp)
		// and is excluded from the band check below.
		Schedule: []workload.Phase{
			{Start: 3000, Scale: []float64{1}},
			{Start: 7000, Scale: []float64{1.25}},
		},
		Drain: 1500 * time.Millisecond,
		Seed:  3 + uint64(attempt)*57,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two bands. Per phase, the seed's ±1.6× holds as a sanity floor: a
	// 4-second phase on the single-core reference box carries too much
	// wall-clock jitter to assert tighter. The tightened ±1.3× band
	// asserts the run-level mean of the phase ratios instead — the
	// integral loop overcorrects, so consecutive phases' excursions are
	// anticorrelated and their mean is what the gain/trim tuning above
	// actually stabilizes.
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		if final {
			t.Errorf(format, args...)
		} else {
			t.Logf(format, args...)
		}
	}
	var ratioSum float64
	asserted := 0
	for pi := 1; pi < len(rep.Phases); pi++ {
		c0, c1 := rep.Phases[pi][0], rep.Phases[pi][1]
		if c0.Completed < 300 || c1.Completed < 300 {
			t.Skipf("phase %d throughput too low for a meaningful check: %d/%d",
				pi, c0.Completed, c1.Completed)
		}
		ratio := rep.PhaseSlowdownRatio(pi, 1)
		t.Logf("attempt %d phase %d achieved ratio %.3f", attempt, pi, ratio)
		if math.IsNaN(ratio) {
			t.Fatalf("phase %d ratio unavailable: %+v / %+v", pi, c0, c1)
		}
		if ratio < target/1.6 || ratio > target*1.6 {
			fail("phase %d achieved ratio %.3f outside [%.2f, %.2f] (target %g)",
				pi, ratio, target/1.6, target*1.6, target)
		}
		ratioSum += ratio
		asserted++
	}
	if mean := ratioSum / float64(asserted); mean < target/1.3 || mean > target*1.3 {
		fail("run-level mean ratio %.3f outside [%.2f, %.2f] (target %g)",
			mean, target/1.3, target*1.3, target)
	}

	// The load step must be visible to the server, not absorbed silently:
	// the estimator-driven rates differ between phases only if λ̂ moved.
	doc := srv.Snapshot()
	if doc.Reallocations < 100 {
		t.Fatalf("control plane barely ticked: %d reallocations", doc.Reallocations)
	}
	for i, cm := range doc.Classes {
		if cm.Served < 1000 {
			t.Fatalf("class %d served only %d requests end to end", i, cm.Served)
		}
	}
	return ok
}
