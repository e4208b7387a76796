// Chaos end-to-end: loadgen → httpsrv with a mid-run fault phase. The
// deterministic fault mechanics (watchdog freeze, ladder ordering, guard
// rejection) are pinned by the internal robustness tests; this harness
// proves the whole stack rides out a fault storm — corrupted control
// inputs, dropped ticks, worker stalls, slow-loris clients, overload —
// and RECOVERS: degradation unwinds, the watchdog clears, and the
// achieved slowdown ratios re-converge once the faults stop.
package httpsrv_test

import (
	"context"
	"math"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"psd/internal/admission"
	"psd/internal/chaos"
	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/httpsrv"
	"psd/internal/loadgen"
)

func TestE2EChaosRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e harness skipped in -short")
	}
	const target = 2.0 // δ₁/δ₀
	sizes, err := dist.NewUniform(0.5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.New(chaos.Config{
		Seed:        17,
		CorruptProb: 0.8, // most surviving ticks carry poisoned inputs
		DropProb:    0.6, // drop runs starve the loop past the watchdog threshold
		StallProb:   0.02,
		StallDur:    40 * time.Millisecond,
		Loris:       chaos.SlowLoris{Conns: 4, Interval: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Disarm() // armed only for the fault phase

	gate, err := admission.NewUtilizationBound(0.9, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Aggressive engage settings: ρ̂ hovers at the saturation boundary
	// under a full-queue overload (admitted work ≈ capacity), so a lazy
	// engage streak would let in-band ticks keep resetting it.
	ladder := admission.LadderConfig{
		Multipliers: []float64{2, 4},
		EngageAfter: 1,
		EngageRho:   0.9,
	}
	srv, err := httpsrv.New(httpsrv.Config{
		Deltas:   []float64{1, target},
		Spec:     control.Spec{Allocator: core.Downgrading{}, Feedback: true, Ladder: ladder},
		Service:  sizes,
		TimeUnit: time.Millisecond,
		Window:   25, // reallocate every 25ms
		// Small queues so sustained overload hits queue-full fast: the
		// fail-fast 503s keep the client's attempt rate high, which keeps
		// the ADMITTED work rate pinned at server capacity (ρ̂ ≈ 1) — shed
		// traffic deliberately never feeds the estimator.
		QueueCapacity:  64,
		Admission:      gate,
		WatchdogFactor: 2, // stale after 50ms: two dropped ticks in a row
		Chaos:          inj,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Mux())
	defer func() { ts.Close(); srv.Close() }()

	run := func(ctx context.Context, lambda float64, d time.Duration, withLoris bool) *loadgen.Report {
		t.Helper()
		cfg := loadgen.Config{
			BaseURL:    ts.URL + "/",
			TimeUnit:   time.Millisecond,
			Service:    sizes,
			Lambdas:    []float64{lambda, lambda},
			Duration:   d,
			Drain:      300 * time.Millisecond,
			Workers:    512,
			MaxPending: 8192,
			Timeout:    time.Second,
			MaxRetries: 1,
			Seed:       3,
		}
		if withLoris {
			cfg.Chaos = inj
		}
		rep, err := loadgen.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Phase A: clean convergence at ρ ≈ 0.6.
	bg := context.Background()
	run(bg, 0.30, 1500*time.Millisecond, false)

	// Phase B: faults armed + ρ ≈ 2.4 offered overload. A poller tracks
	// the ladder's high-water mark — recovery legitimately begins during
	// the drain, so end-of-phase state alone would under-report it. The
	// phase lasts its 3 s fault storm and then for as long as it takes the
	// control tick to see the overload: when other test binaries hold the
	// cores the generator offers less than it was asked to, and what must
	// engage the ladder is offered work the tick observed, not elapsed
	// seconds. Only overloadCap passing without that fails the ladder
	// assertions below.
	const storm, overloadCap = 3 * time.Second, 30 * time.Second
	var maxLevel, sawShed atomic.Int64
	overloadCtx, overloadStop := context.WithCancel(bg)
	defer overloadStop()
	stormEnd := time.Now().Add(storm)
	pollCtx, pollStop := context.WithCancel(bg)
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			if maxLevel.Load() >= 1 && sawShed.Load() == 1 && !time.Now().Before(stormEnd) {
				overloadStop()
			}
			select {
			case <-pollCtx.Done():
				return
			case <-time.After(10 * time.Millisecond):
				doc := srv.Snapshot()
				for _, cm := range doc.Classes {
					if int64(cm.DegradationLevel) > maxLevel.Load() {
						maxLevel.Store(int64(cm.DegradationLevel))
					}
				}
				if doc.LadderShedding {
					sawShed.Store(1)
				}
			}
		}
	}()
	inj.Arm()
	repB := run(overloadCtx, 1.2, overloadCap, true)
	docB := srv.Snapshot()
	inj.Disarm()
	pollStop()
	<-pollDone

	if docB.TickInputRejected < 1 {
		t.Errorf("no corrupted control inputs were rejected during the fault phase")
	}
	if docB.WatchdogStaleTicks < 1 {
		t.Errorf("dropped-tick runs never tripped the stale-tick watchdog")
	}
	if maxLevel.Load() < 1 {
		t.Errorf("sustained overload did not engage the degradation ladder: %+v", docB.Classes[1])
	}
	if sawShed.Load() == 0 {
		t.Errorf("ladder never maxed out under sustained overload (shed gate stayed closed)")
	}
	if c := inj.Counts(); c.CorruptTicks < 1 || c.DroppedTicks < 1 || c.LorisBytes < 1 {
		t.Errorf("fault schedule thinner than configured: %+v", c)
	}
	if repB.Classes[0].Retries+repB.Classes[1].Retries < 1 {
		t.Errorf("overload produced no client retries: %+v", repB.Classes)
	}

	// Phase C: faults off, load back to ρ ≈ 0.6. A short settle phase
	// absorbs the backlog drain and the ladder/feedback unwind; the
	// measured phase after it must look like a healthy server again.
	run(bg, 0.30, 1500*time.Millisecond, false)
	repC := run(bg, 0.30, 3*time.Second, false)
	docC := srv.Snapshot()

	for i, cm := range docC.Classes {
		if cm.DegradationLevel != 0 {
			t.Errorf("class %d still degraded (level %d) after recovery", i, cm.DegradationLevel)
		}
	}
	if docC.LadderShedding {
		t.Error("shed gate still open after recovery")
	}
	if docC.WatchdogStalled {
		t.Error("watchdog still flags a stall after recovery")
	}
	if docC.Reallocations <= docB.Reallocations {
		t.Errorf("control loop did not resume: %d -> %d reallocations", docB.Reallocations, docC.Reallocations)
	}

	c0, c1 := repC.Classes[0], repC.Classes[1]
	if c0.Completed < 300 || c1.Completed < 300 {
		t.Skipf("recovery-phase throughput too low for a ratio check: %d/%d", c0.Completed, c1.Completed)
	}
	ratio := repC.SlowdownRatio(1)
	if math.IsNaN(ratio) {
		t.Fatalf("recovery ratio unavailable: %+v / %+v", c0, c1)
	}
	// Generous band (short phases, CI jitter, residual feedback trim).
	if ratio < target/1.8 || ratio > target*2.25 {
		t.Errorf("post-chaos ratio %.3f outside [%.2f, %.2f] (target %g)",
			ratio, target/1.8, target*2.25, target)
	}
}
