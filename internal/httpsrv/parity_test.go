package httpsrv

import (
	"math"
	"runtime"
	"testing"
	"time"

	"psd/internal/admission"
	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/obs"
	"psd/internal/simsrv"
)

// parityTrace builds a deterministic 2-class arrival trace over total
// time units whose arrival times never coincide with a window boundary,
// so its per-window attribution is unambiguous.
func parityTrace(total float64) []simsrv.TraceRequest {
	sz := []float64{0.2, 0.7, 0.4, 1.1, 0.9, 0.15, 1.6, 0.5}
	var trace []simsrv.TraceRequest
	tm := 0.0
	for i := 0; tm < total; i++ {
		tm += 0.9 + float64(i%7)*0.31
		trace = append(trace, simsrv.TraceRequest{Time: tm, Class: i % 2, Size: sz[i%len(sz)]})
	}
	return trace[:len(trace)-1]
}

// windowTotals buckets a trace into per-window (counts, work) exactly as
// the simulator's estimator sees it: window k covers [k·W, (k+1)·W).
func windowTotals(trace []simsrv.TraceRequest, window float64, windows, classes int) (counts, work [][]float64) {
	counts = make([][]float64, windows)
	work = make([][]float64, windows)
	for k := range counts {
		counts[k] = make([]float64, classes)
		work[k] = make([]float64, classes)
	}
	for _, tr := range trace {
		k := int(tr.Time / window)
		if k >= windows {
			continue
		}
		counts[k][tr.Class]++
		work[k][tr.Class] += tr.Size
	}
	return counts, work
}

// overloadTrace builds a 2-class trace whose first heavy windows hold
// ρ̂ = Σ work / window at 1.0 (≥ EngageRho, yet a feasible allocation:
// the counts keep Σ λ̂·E[X] small) and whose remaining windows hold it at
// 0.2 (≤ RecoverRho), so the downgrading ladder climbs to the top and
// unwinds again. No arrival lands on a window boundary.
func overloadTrace(window float64, heavy, windows int) []simsrv.TraceRequest {
	var trace []simsrv.TraceRequest
	for k := 0; k < windows; k++ {
		size := 2.5
		if k >= heavy {
			size = 0.5
		}
		for j := 0; j < 20; j++ {
			tm := float64(k)*window + 1.25 + float64(j)*2.4
			trace = append(trace, simsrv.TraceRequest{Time: tm, Class: j % 2, Size: size})
		}
	}
	return trace
}

// TestSimVsLiveRateParity is the cross-consumer pin for the shared
// control plane: the identical windowed (counts, work) sequence must
// produce bit-identical rate trajectories and flight records through (a)
// a bare control.Loop configured like the simulator, (b) the live httpsrv
// Server ticked manually, and (c) the full event-driven simulator
// replaying the trace those windows were computed from. Exact float64
// equality throughout — simulator and server share one control plane, so
// there is nothing to be approximately equal about. The overload case
// runs the downgrading policy through a trace that engages, maxes out
// and unwinds the degradation ladder; levels and the shed gate must then
// match per tick as well. Each case hands one control.Spec to all three;
// the "floor+rungs" case sets what only a shared Spec can express on both
// sides: an allocation floor that binds and non-default ladder rungs. The
// "shed" case adds an admission gate that refuses the heavy jobs once the
// ladder is maxed out: the shed work reaches the ladder as offered load
// (TickInput.Shed) from the simulator's door, the server's rejected-work
// counters and the bare loop's window split alike.
func TestSimVsLiveRateParity(t *testing.T) {
	const window = 50.0
	cases := []struct {
		name    string
		spec    control.Spec
		windows int
		trace   []simsrv.TraceRequest
		gate    admission.Controller
	}{
		{"window", control.Spec{Estimator: control.Window, HistoryWindows: 3, Allocator: core.PSD{}}, 10, parityTrace(500), nil},
		{"ewma", control.Spec{Estimator: control.EWMA, HistoryWindows: 3, Allocator: core.PSD{}}, 10, parityTrace(500), nil},
		{"overload", control.Spec{HistoryWindows: 3, Allocator: core.Downgrading{}}, 30, overloadTrace(window, 8, 30), nil},
		{"floor+rungs", control.Spec{
			HistoryWindows: 3,
			Allocator:      core.Downgrading{},
			MinRate:        0.3, // above class 1's rate at the top rung: the floor binds
			Ladder:         admission.LadderConfig{Multipliers: []float64{3, 9}, EngageAfter: 1},
		}, 30, overloadTrace(window, 8, 30), nil},
		{"shed", control.Spec{
			HistoryWindows: 3,
			Allocator:      core.Downgrading{},
			Ladder:         admission.LadderConfig{Multipliers: []float64{2}, EngageAfter: 1},
		}, 30, overloadTrace(window, 8, 30), sizeGate{limit: 2}},
	}
	for _, tc := range cases {
		horizon := window * float64(tc.windows)
		deltas := []float64{1, 2}
		trace := tc.trace

		// (c) The event-driven simulator replaying the trace.
		simRec, err := obs.NewFlightRecorder(len(deltas), 64)
		if err != nil {
			t.Fatal(err)
		}
		cfg := simsrv.Config{
			Classes:  []simsrv.ClassConfig{{Delta: 1, Lambda: 0.3}, {Delta: 2, Lambda: 0.3}},
			Spec:     tc.spec,
			Window:   window,
			Warmup:   1, // Validate requires Horizon > 0; keep total > last tick
			Horizon:  horizon,
			Seed:     1,
			Recorder: simRec,
		}
		if tc.gate != nil {
			cfg.Admission = tc.gate
		}
		res, err := simsrv.RunTrace(cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		if res.AllocFailures != 0 {
			t.Fatalf("%s: trace run hit %d alloc failures; parity needs a clean run", tc.name, res.AllocFailures)
		}
		ticks := res.Reallocations

		// (a) Bare loop fed the same windowed sequence, flight-recorded.
		w, err := core.WorkloadFromDist(cfg.ApplyDefaults().Service)
		if err != nil {
			t.Fatal(err)
		}
		loopRec, err := obs.NewFlightRecorder(len(deltas), 64)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := control.NewLoop(tc.spec.LoopConfig(deltas, window, w, loopRec))
		if err != nil {
			t.Fatal(err)
		}

		// (b) Live server, ticked manually. TimeUnit of one second keeps
		// the background ticker (Window × TimeUnit = 50 s) far away from
		// the test's manual ticks.
		srvCfg := Config{
			Deltas:   deltas,
			Spec:     tc.spec,
			Window:   window,
			TimeUnit: time.Second,
		}
		if tc.gate != nil {
			srvCfg.Admission = tc.gate
		}
		srv, err := New(srvCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		counts, work := windowTotals(trace, window, tc.windows, len(deltas))
		var loopRates []float64
		engagedAt := math.NaN()
		shedTotal := 0.0
		for k := 0; k < ticks; k++ {
			in := control.TickInput{Counts: counts[k], Work: work[k]}
			if tc.gate == nil {
				// Feed the server the same window (the previous tick
				// drained every stripe, so injecting adds == sets).
				for i, cr := range srv.classes {
					cr.injectWindow(int64(counts[k][i]), work[k][i])
				}
			} else {
				// Split the window's arrivals, in trace order, the way
				// the simulator's door does: the gate refuses only once
				// the ladder has no rung left. The server decides at its
				// own door and counts what it refuses.
				in = control.TickInput{Counts: make([]float64, 2), Work: make([]float64, 2), Shed: make([]float64, 2)}
				for _, tr := range trace {
					if int(tr.Time/window) != k {
						continue
					}
					if lp.GateHeldOpen() || tc.gate.Admit(tr.Class, tr.Size, tr.Time) {
						in.Counts[tr.Class]++
						in.Work[tr.Class] += tr.Size
					} else {
						in.Shed[tr.Class] += tr.Size
						shedTotal += tr.Size
					}
					if ok, _ := srv.admit(tr.Class, tr.Size); ok {
						srv.classes[tr.Class].injectWindow(1, tr.Size)
					} else {
						srv.reject(tr.Class, tr.Size, true)
					}
				}
			}
			loopRates, err = lp.Tick(in)
			if err != nil {
				t.Fatalf("%s: loop tick %d: %v", tc.name, k, err)
			}
			srv.reallocate()
			live := srv.Rates()
			for i := range live {
				if live[i] != loopRates[i] {
					t.Fatalf("%s: tick %d class %d: live rate %.17g != loop rate %.17g",
						tc.name, k, i, live[i], loopRates[i])
				}
			}
			doc := srv.Snapshot()
			for i, c := range doc.Classes {
				if c.DegradationLevel != lp.DegradationLevel(i) {
					t.Fatalf("%s: tick %d class %d: live ladder level %d != loop %d", tc.name, k, i, c.DegradationLevel, lp.DegradationLevel(i))
				}
			}
			if doc.LadderShedding != lp.LadderMaxedOut() || srv.ladderHold.Load() != lp.GateHeldOpen() {
				t.Fatalf("%s: tick %d: live shedding %v / gate held %v != loop %v / %v", tc.name, k,
					doc.LadderShedding, srv.ladderHold.Load(), lp.LadderMaxedOut(), lp.GateHeldOpen())
			}
			if math.IsNaN(engagedAt) && lp.LadderEngaged() {
				engagedAt = float64(k+1) * window
			}
		}
		// The simulator's final rates are the last tick's allocation.
		for i := range loopRates {
			if res.FinalRates[i] != loopRates[i] {
				t.Fatalf("%s: class %d: simulator final rate %.17g != shared-loop rate %.17g",
					tc.name, i, res.FinalRates[i], loopRates[i])
			}
		}
		if !sameFloat(res.LadderEngagedAt, engagedAt) || res.LadderMaxedOut != lp.LadderMaxedOut() {
			t.Fatalf("%s: simulator ladder engaged at %v / maxed %v, loop %v / %v",
				tc.name, res.LadderEngagedAt, res.LadderMaxedOut, engagedAt, lp.LadderMaxedOut())
		}
		doc := srv.Snapshot()
		if doc.Reallocations != int64(ticks) || doc.AllocFailures != 0 {
			t.Fatalf("%s: live counters %d/%d, want %d/0", tc.name, doc.Reallocations, doc.AllocFailures, ticks)
		}

		// Flight-recorder parity: the three recorders must hold
		// bit-identical tick records — same control-clock stamps, flags,
		// λ̂, rates, slowdowns (NaN here: no completions) and ladder-scaled
		// effective δ. The recorder hook lives inside the shared loop, so
		// any divergence means the consumers no longer run the same
		// control plane.
		loopTicks := loopRec.Snapshot()
		for _, other := range []struct {
			name  string
			ticks []obs.TickRecord
		}{{"live", srv.FlightRecorder().Snapshot()}, {"sim", simRec.Snapshot()}} {
			if len(loopTicks) != ticks || len(other.ticks) != ticks {
				t.Fatalf("%s: recorded %d/%d %s ticks, want %d", tc.name, len(loopTicks), len(other.ticks), other.name, ticks)
			}
			for k := range loopTicks {
				a, b := loopTicks[k], other.ticks[k]
				if a.Seq != b.Seq || a.Time != b.Time || a.Flags != b.Flags {
					t.Fatalf("%s: tick %d headers differ: loop %+v vs %s %+v", tc.name, k, a, other.name, b)
				}
				if a.Time != float64(k+1)*window {
					t.Fatalf("%s: tick %d stamped %v, want control clock %v", tc.name, k, a.Time, float64(k+1)*window)
				}
				sameVec := func(field string, x, y []float64) {
					t.Helper()
					for i := range x {
						if !sameFloat(x[i], y[i]) {
							t.Fatalf("%s: tick %d %s: loop %.17g != %s %.17g", tc.name, k, field, x[i], other.name, y[i])
						}
					}
				}
				sameVec("lambda", a.Lambdas, b.Lambdas)
				sameVec("rates", a.Rates, b.Rates)
				sameVec("slowdowns", a.Slowdowns, b.Slowdowns)
				sameVec("effdeltas", a.EffDeltas, b.EffDeltas)
			}
		}
		if tc.spec.Allocator.Name() == "downgrade" {
			// The overload trace must really have driven the ladder to the
			// top and back, or the case pins nothing beyond the PSD ones.
			if math.IsNaN(engagedAt) || lp.LadderEngaged() {
				t.Fatalf("%s: ladder engaged at %v, still engaged at the end: %v", tc.name, engagedAt, lp.LadderEngaged())
			}
			top := 8.0 // admission's default top rung
			if m := tc.spec.Ladder.Multipliers; m != nil {
				top = m[len(m)-1]
			}
			maxed := false
			for _, r := range loopTicks {
				maxed = maxed || r.EffDeltas[1] == deltas[1]*top
			}
			if !maxed {
				t.Fatalf("%s: no tick allocated at the top rung (class 1 effective delta %v x %v)", tc.name, deltas[1], top)
			}
		}
		if tc.gate != nil && !(shedTotal > 0) {
			t.Fatalf("%s: the gate never shed; the case pins nothing beyond overload", tc.name)
		}
		if tc.spec.MinRate > 0 {
			// The floor must have bound (core.MinRate lifts a class to
			// exactly Min), or the case does not pin the shared floor.
			floored := false
			for _, r := range loopTicks {
				floored = floored || r.Rates[1] == tc.spec.MinRate
			}
			if !floored {
				t.Fatalf("%s: the %v allocation floor never bound", tc.name, tc.spec.MinRate)
			}
		}
	}
}

// sizeGate is a deterministic admission gate: it refuses every job
// larger than limit.
type sizeGate struct{ limit float64 }

func (g sizeGate) Admit(_ int, size, _ float64) bool { return size <= g.limit }
func (sizeGate) Name() string                        { return "size-gate" }

// sameFloat is bit-for-bit equality that also matches NaN with NaN.
func sameFloat(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }

func TestMetricsExposeControlPlane(t *testing.T) {
	s, err := New(Config{
		Deltas:   []float64{1, 2},
		TimeUnit: time.Millisecond,
		Window:   1e9,
		Spec:     control.Spec{Estimator: control.EWMA, EWMAAlpha: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.classes[0].observeArrival(1)
	s.classes[1].observeArrival(1)
	s.reallocate()
	doc := s.Snapshot()
	if doc.Estimator != "ewma" {
		t.Fatalf("estimator = %q", doc.Estimator)
	}
	if doc.Reallocations != 1 || doc.AllocFailures != 0 {
		t.Fatalf("counters = %d/%d, want 1/0", doc.Reallocations, doc.AllocFailures)
	}
	// Force an infeasible window: the failure counter must move and the
	// success counter must not.
	s.classes[0].injectWindow(4e12, 4e12) // survives EWMA smoothing with ρ̂ >> 1
	s.reallocate()
	doc = s.Snapshot()
	if doc.Reallocations != 1 || doc.AllocFailures != 1 {
		t.Fatalf("counters after infeasible tick = %d/%d, want 1/1", doc.Reallocations, doc.AllocFailures)
	}
}

func TestBadEstimatorConfigRejected(t *testing.T) {
	if _, err := New(Config{Deltas: []float64{1, 2}, Spec: control.Spec{Estimator: control.EstimatorKind(9)}}); err == nil {
		t.Error("accepted unknown estimator kind")
	}
	if _, err := New(Config{Deltas: []float64{1, 2}, Spec: control.Spec{Estimator: control.EWMA, EWMAAlpha: 2}}); err == nil {
		t.Error("accepted out-of-range alpha")
	}
}

// BenchmarkReallocate gates the live server's control tick: after the
// shared-loop migration a reallocation performs zero steady-state heap
// allocations (the pre-loop implementation allocated 4+ slices per tick).
// CI runs this with -benchtime 1x as a smoke test; the hard gate below
// fails the benchmark if allocations creep back in.
func BenchmarkReallocate(b *testing.B) {
	s, err := New(Config{
		Deltas:   []float64{1, 2, 4, 8},
		TimeUnit: time.Millisecond,
		Window:   1e9, // effectively disable the background ticker
		Spec:     control.Spec{Feedback: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	feed := func() {
		for i, cr := range s.classes {
			cr.injectWindow(int64(8-i), float64(8-i)*0.3)
			cr.observeSlowdown(float64(i + 1))
		}
	}
	feed()
	s.reallocate() // warm the loop's buffers
	// Settle before timing. A warm tick allocates nothing, but the process
	// around it may: New's goroutines make their start-up allocations
	// (timers, tickers) whenever they are first scheduled, a GC cycle
	// wakes runtime cleanup goroutines that allocate, and the runtime
	// fills each type-assertion cache on a random one in 1024 misses,
	// allocating the cache as it does. At -benchtime 1x any of these
	// landing in the timed tick reads as a whole alloc/tick, so collect
	// first, then tick in batches of 4096 until a batch and a millisecond
	// for every runnable goroutine see no malloc in the process. A tick
	// that itself allocates never settles, and the gate below reports it.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	for try := 0; try < 16; try++ {
		runtime.ReadMemStats(&ms0)
		for i := 0; i < 4096; i++ {
			feed()
			s.reallocate()
		}
		time.Sleep(time.Millisecond)
		runtime.ReadMemStats(&ms1)
		if ms1.Mallocs == ms0.Mallocs {
			break
		}
	}
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed()
		s.reallocate()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	allocsPerTick := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
	b.ReportMetric(allocsPerTick, "allocs/tick")
	if allocsPerTick >= 1 {
		b.Fatalf("control tick regressed into allocation: %.2f allocs/tick (want < 1)", allocsPerTick)
	}
}
