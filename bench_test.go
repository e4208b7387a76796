package psd

// Benchmarks of the paper's §4.1 experiment and its fast paths, each with
// hard allocation (and, for the closed form, speed-ratio) gates that CI's
// bench smoke step runs at -benchtime 1x, plus ablation benches for the
// repo's design choices. Whole figures are regenerated by cmd/psdfig;
// end-to-end throughput is owned by the bench/ harness.

import (
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"psd/internal/analytic"
	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/figures"
	"psd/internal/sched"
	"psd/internal/simsrv"
	"psd/internal/sweep"
	"psd/internal/workload"
)

// ---------------------------------------------------------------------------
// Ablation benches (design-choice studies beyond the paper's figures).

// replicate aggregates n replications of cfg through the sweep engine,
// the repository's one replication pipeline.
func replicate(b *testing.B, cfg simsrv.Config, n int) *simsrv.Aggregate {
	b.Helper()
	aggs, err := sweep.Run([]sweep.Point{{Cfg: cfg, Runs: n}})
	if err != nil {
		b.Fatal(err)
	}
	return aggs[0]
}

// ratioErrorUnder runs a two-class δ=(1,4) scenario under the given
// config mutation and returns |achieved − 4| / 4, where "achieved" is the
// ratio of across-run mean slowdowns (the mean-of-per-run-ratios
// estimator is upward-biased for heavy-tailed data at bench fidelity).
func ratioErrorUnder(b *testing.B, mutate func(*simsrv.Config)) float64 {
	b.Helper()
	cfg := simsrv.EqualLoadConfig([]float64{1, 4}, 0.6, nil)
	cfg.Warmup = 2000
	cfg.Horizon = 20000
	cfg.Seed = 11
	if mutate != nil {
		mutate(&cfg)
	}
	agg := replicate(b, cfg, 6)
	achieved := agg.MeanSlowdowns[1] / agg.MeanSlowdowns[0]
	return math.Abs(achieved-4) / 4
}

// BenchmarkAblationAllocators compares the PSD allocator against the
// baselines on the same workload: the PSD row should show a far smaller
// ratioerr than equal/demand (which do not differentiate) and pdd (which
// differentiates delays, not slowdowns).
func BenchmarkAblationAllocators(b *testing.B) {
	cases := []struct {
		name  string
		alloc core.Allocator
	}{
		{"psd", core.PSD{}},
		{"pdd", core.PDD{}},
		{"equal", core.EqualShare{}},
		{"demand", core.DemandProportional{}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var err float64
			for i := 0; i < b.N; i++ {
				err = ratioErrorUnder(b, func(c *simsrv.Config) { c.Allocator = tc.alloc })
			}
			b.ReportMetric(err, "ratioerr")
		})
	}
}

// BenchmarkAblationWindow sweeps the estimation window: short windows are
// adaptive but noisy, long windows smooth but stale (§4.4 discusses this
// trade-off).
func BenchmarkAblationWindow(b *testing.B) {
	for _, window := range []float64{250, 500, 1000, 2000, 4000} {
		window := window
		b.Run(formatFloat(window), func(b *testing.B) {
			var err float64
			for i := 0; i < b.N; i++ {
				err = ratioErrorUnder(b, func(c *simsrv.Config) { c.Window = window })
			}
			b.ReportMetric(err, "ratioerr")
		})
	}
}

// BenchmarkAblationHistory sweeps the estimator depth (the paper uses 5).
func BenchmarkAblationHistory(b *testing.B) {
	for _, h := range []int{1, 3, 5, 10} {
		h := h
		b.Run(formatFloat(float64(h)), func(b *testing.B) {
			var err float64
			for i := 0; i < b.N; i++ {
				err = ratioErrorUnder(b, func(c *simsrv.Config) { c.HistoryWindows = h })
			}
			b.ReportMetric(err, "ratioerr")
		})
	}
}

// BenchmarkAblationOracle isolates estimation error (§4.4): the oracle
// variant feeds the allocator the true arrival rates.
func BenchmarkAblationOracle(b *testing.B) {
	for _, oracle := range []bool{false, true} {
		oracle := oracle
		name := "estimated"
		if oracle {
			name = "oracle"
		}
		b.Run(name, func(b *testing.B) {
			var err float64
			for i := 0; i < b.N; i++ {
				err = ratioErrorUnder(b, func(c *simsrv.Config) { c.Oracle = oracle })
			}
			b.ReportMetric(err, "ratioerr")
		})
	}
}

// BenchmarkAblationWorkConserving compares the paper's strict capacity
// partition against a GPS-style work-conserving variant. The metric is
// the system mean slowdown (lower is better); work conservation improves
// the aggregate but perturbs the per-class proportionality the closed
// forms assume.
func BenchmarkAblationWorkConserving(b *testing.B) {
	for _, wc := range []bool{false, true} {
		wc := wc
		name := "partitioned"
		if wc {
			name = "workconserving"
		}
		b.Run(name, func(b *testing.B) {
			var sys, ratioErr float64
			for i := 0; i < b.N; i++ {
				cfg := simsrv.EqualLoadConfig([]float64{1, 2}, 0.6, nil)
				cfg.Warmup = 2000
				cfg.Horizon = 20000
				cfg.Seed = 11
				cfg.WorkConserving = wc
				agg := replicate(b, cfg, 6)
				sys = agg.SystemSlowdown
				achieved := agg.MeanSlowdowns[1] / agg.MeanSlowdowns[0]
				ratioErr = math.Abs(achieved-2) / 2
			}
			b.ReportMetric(sys, "sysslowdown")
			b.ReportMetric(ratioErr, "ratioerr")
		})
	}
}

// BenchmarkAblationFeedback compares open-loop Eq. 17 against the
// closed-loop ratio controller (the paper's future-work extension) under
// a deliberate model mismatch: class 2's true job sizes are 3× the
// moments the allocator was given. Open loop inherits the full bias;
// feedback corrects it from measured slowdowns.
func BenchmarkAblationFeedback(b *testing.B) {
	big, err := dist.NewScaled(dist.PaperDefault(), 1.0/3)
	if err != nil {
		b.Fatal(err)
	}
	for _, feedback := range []bool{false, true} {
		feedback := feedback
		name := "openloop"
		if feedback {
			name = "feedback"
		}
		b.Run(name, func(b *testing.B) {
			var ratioErr float64
			for i := 0; i < b.N; i++ {
				cfg := simsrv.EqualLoadConfig([]float64{1, 2}, 0.6, nil)
				cfg.Warmup = 2000
				cfg.Horizon = 20000
				cfg.Seed = 11
				cfg.Feedback = feedback
				cfg.Classes[1].Service = big
				cfg.Classes[1].Lambda /= 3
				agg := replicate(b, cfg, 6)
				achieved := agg.MeanSlowdowns[1] / agg.MeanSlowdowns[0]
				ratioErr = math.Abs(achieved-2) / 2
			}
			b.ReportMetric(ratioErr, "ratioerr")
		})
	}
}

// BenchmarkAblationPacketized quantifies the work-conserving limitation:
// the same traffic through the paper's partitioned task servers versus a
// packetized SCFQ server, reporting achieved-ratio error against the
// target of 2.
func BenchmarkAblationPacketized(b *testing.B) {
	run := func(b *testing.B, packetized bool) float64 {
		var s0, s1 float64
		for seed := uint64(0); seed < 6; seed++ {
			cfg := simsrv.EqualLoadConfig([]float64{1, 2}, 0.6, nil)
			cfg.Warmup = 2000
			cfg.Horizon = 20000
			cfg.Seed = seed
			var res *simsrv.Result
			var err error
			if packetized {
				cfg.Allocator = core.PacketizedPSD{}
				var sim simsrv.Simulator
				res = new(simsrv.Result)
				if err = sim.ResetPacketized(simsrv.PacketizedConfig{Config: cfg}, cfg.Seed); err == nil {
					err = sim.RunInto(res)
				}
			} else {
				res, err = simsrv.Run(cfg)
			}
			if err != nil {
				b.Fatal(err)
			}
			s0 += res.Classes[0].MeanSlowdown
			s1 += res.Classes[1].MeanSlowdown
		}
		return math.Abs(s1/s0-2) / 2
	}
	for _, packetized := range []bool{false, true} {
		packetized := packetized
		name := "partitioned"
		if packetized {
			name = "scfq"
		}
		b.Run(name, func(b *testing.B) {
			var ratioErr float64
			for i := 0; i < b.N; i++ {
				ratioErr = run(b, packetized)
			}
			b.ReportMetric(ratioErr, "ratioerr")
		})
	}
}

// BenchmarkReplication is the repo's end-to-end performance benchmark:
// one full paper-fidelity replication (10,000 tu warmup + 60,000 tu
// measured, §4.1) per iteration through a reusable Simulator arena, over
// both service models and both arrival sources of the one simsrv runner:
// the 2-, 5- and 8-class partitioned task servers, the 8-class ones under
// a control tick every 10 tu (a flash crowd, feedback and the downgrading
// ladder; in "8class-overload" the crowd lifts ρ past 1, so ticks come out
// infeasible and the ladder engages), their work-conserving variant, the
// packetized SCFQ server and trace replay. The partitioned cases step each
// class alone between control ticks; the others run the global event
// scan. It reports:
//
//	events/s      DES events executed per wall-clock second
//	ns/event      inverse of the above
//	allocs/event  heap allocations per event
//	allocs/rep    heap allocations per steady-state replication
//
// Two hard gates back the metrics (every case):
//
//   - allocs/event < 0.01 — the pre-PR2 engine sat at ~2.7, the
//     packetized path at 0.053 until its allocator bisection went
//     in-place; 0.01 is far above measurement noise and far below any
//     closure/boxing regression sneaking back into the hot path.
//   - allocs/replication < 10 — the arena contract. Fresh construction
//     costs ~100 allocations; a Reset+RunInto cycle on a warm arena
//     costs ~0, so double digits mean some buffer stopped being reused.
//
// CI runs this benchmark with -benchtime 1x as an allocation smoke test.
func BenchmarkReplication(b *testing.B) {
	cases := []struct {
		name       string
		deltas     []float64
		load       float64
		packetized bool
		workCons   bool
		trace      bool
		transient  bool
		overload   bool // a flash crowd past capacity: infeasible ticks, the ladder engages
	}{
		{name: "2class", deltas: []float64{1, 4}, load: 0.6},
		{name: "5class", deltas: []float64{1, 2, 4, 8, 16}, load: 0.8},
		{name: "8class", deltas: []float64{1, 2, 3, 4, 6, 8, 12, 16}, load: 0.9},
		{name: "8class-transient", deltas: []float64{1, 2, 3, 4, 6, 8, 12, 16}, load: 0.5, transient: true},
		{name: "8class-overload", deltas: []float64{1, 2, 3, 4, 6, 8, 12, 16}, load: 0.7, transient: true, overload: true},
		{name: "2class-workcons", deltas: []float64{1, 4}, load: 0.6, workCons: true},
		{name: "2class-packetized", deltas: []float64{1, 4}, load: 0.6, packetized: true},
		{name: "2class-trace", deltas: []float64{1, 2}, load: 0.6, trace: true},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := simsrv.EqualLoadConfig(tc.deltas, tc.load, nil)
			cfg.WorkConserving = tc.workCons
			if tc.transient {
				cfg.Window = 10
				crowd := 1.4
				if tc.overload {
					crowd = 1.5
				}
				cfg.LoadSchedule = workload.FlashCrowd(30000, 12000, crowd)
				cfg.Feedback = true
				cfg.Allocator = core.Downgrading{}
			}
			var trace []simsrv.TraceRequest
			if tc.trace {
				// The determinism goldens' synthetic trace, stretched to
				// the horizon.
				sz := []float64{0.2, 1.7, 0.4, 3.1, 0.9, 0.15, 6.0, 0.5}
				for i, tm := 0, 0.0; tm < 70000; i++ {
					tm += 0.35 + float64(i%7)*0.11
					trace = append(trace, simsrv.TraceRequest{Time: tm, Class: i % 2, Size: sz[i%len(sz)]})
				}
			}
			var sim simsrv.Simulator
			var res simsrv.Result
			run := func(seed uint64) {
				b.Helper()
				var err error
				switch {
				case tc.packetized:
					err = sim.ResetPacketized(simsrv.PacketizedConfig{Config: cfg}, seed)
				case tc.trace:
					err = sim.ResetTrace(cfg, trace, seed)
				default:
					err = sim.Reset(cfg, seed)
				}
				if err == nil {
					err = sim.RunInto(&res)
				}
				if err != nil {
					b.Fatal(err)
				}
				if tc.overload && math.IsNaN(res.LadderEngagedAt) {
					b.Fatal("the overload case never engaged the degradation ladder")
				}
			}
			// Untimed warmup on the seeds the timed loop replays, so the
			// arena grows to their backlog high-water mark first: the
			// overload case's queues reach a new one on almost every seed,
			// which a warmup on another seed left as ring growth inside
			// the timed replication.
			for i := 0; i < b.N; i++ {
				run(uint64(i + 1))
			}
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(uint64(i + 1))
				events += res.EventsProcessed
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			secs := b.Elapsed().Seconds()
			if secs > 0 && events > 0 {
				allocsPerEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(events)
				allocsPerRep := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
				b.ReportMetric(float64(events)/secs, "events/s")
				b.ReportMetric(secs*1e9/float64(events), "ns/event")
				b.ReportMetric(allocsPerEvent, "allocs/event")
				b.ReportMetric(allocsPerRep, "allocs/rep")
				if allocsPerEvent > 0.01 {
					b.Fatalf("hot path regressed into allocation: %.4f allocs/event (want < 0.01)", allocsPerEvent)
				}
				if allocsPerRep >= 10 {
					b.Fatalf("arena reuse regressed: %.1f allocs/replication (want < 10)", allocsPerRep)
				}
			}
		})
	}
}

// BenchmarkFigureSweep measures full-figure generation through the sweep
// engine: one reduced-fidelity Figure 2 (5-load sweep × 10 replications)
// per iteration, reporting replications/sec and allocs/replication — the
// two numbers the reusable-arena engine exists to improve (per-core
// events/s is unchanged by it; setup and aggregation costs are what
// disappear). It hard-fails at 25 allocs/replication: the sweep may
// allocate per point and per figure, never per event.
func BenchmarkFigureSweep(b *testing.B) {
	opts := figures.Options{
		Runs:    10,
		Horizon: 15000,
		Warmup:  2000,
		Seed:    1,
		Loads:   []float64{0.1, 0.3, 0.5, 0.7, 0.9},
	}
	repsPerFigure := len(opts.Loads) * opts.Runs
	if _, err := figures.Generate(2, opts); err != nil { // untimed warmup
		b.Fatal(err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Generate(2, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	reps := b.N * repsPerFigure
	allocsPerRep := float64(ms1.Mallocs-ms0.Mallocs) / float64(reps)
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(reps)/secs, "reps/s")
		b.ReportMetric(allocsPerRep, "allocs/rep")
	}
	if allocsPerRep >= 25 {
		b.Fatalf("figure sweep allocates %.1f times per replication, want < 25", allocsPerRep)
	}
}

// BenchmarkPolicyTournament runs every policy in the core registry over
// one mid-load point, one replication of each per iteration, through the
// policy's own retained Simulator arena (no sweep engine, no aggregation),
// so it isolates what registering a policy adds to the hot path. Fluid
// policies replicate through Reset; size-aware ones (Caps.NeedsSizeInfo)
// through ResetPacketized with one retained heSRPT scheduler, as
// internal/sweep maps them. It hard-fails above 0.01 allocs/replication:
// a policy whose reset or steady state allocates is rejected.
func BenchmarkPolicyTournament(b *testing.B) {
	type lane struct {
		name string
		cfg  simsrv.Config
		pcfg *simsrv.PacketizedConfig
		sim  simsrv.Simulator
	}
	names := core.Names()
	lanes := make([]lane, len(names))
	for i, name := range names {
		alloc, err := core.Parse(name)
		if err != nil {
			b.Fatal(err)
		}
		pol, ok := core.Lookup(name)
		if !ok {
			b.Fatalf("policy %q in Names() but not in Lookup()", name)
		}
		ln := &lanes[i]
		ln.name = name
		ln.cfg = simsrv.EqualLoadConfig([]float64{1, 2, 4}, 0.7, nil)
		ln.cfg.Warmup = 2000
		ln.cfg.Horizon = 10000
		ln.cfg.Allocator = alloc
		if pol.Caps.NeedsSizeInfo {
			var hs *sched.HeSRPT // retained across resets
			ln.pcfg = &simsrv.PacketizedConfig{
				Config: ln.cfg,
				NewScheduler: func(classes int) sched.Scheduler {
					if hs == nil {
						hs = sched.NewHeSRPT(classes)
					} else {
						hs.Reset()
					}
					return hs
				},
			}
		}
	}
	var res simsrv.Result
	var events uint64
	round := func(seed uint64) {
		for i := range lanes {
			ln := &lanes[i]
			var err error
			if ln.pcfg != nil {
				err = ln.sim.ResetPacketized(*ln.pcfg, seed)
			} else {
				err = ln.sim.Reset(ln.cfg, seed)
			}
			if err == nil {
				err = ln.sim.RunInto(&res)
			}
			if err != nil {
				b.Fatalf("%s: %v", ln.name, err)
			}
			events += res.EventsProcessed
		}
	}
	// Warm up on the exact seeds the timed passes replay, so each arena
	// grows to those seeds' backlog high-water mark (and the ladder and
	// the heSRPT heap materialise) untimed. Replaying the same seeds then
	// allocates the same on every pass, so the gate takes the cleanest
	// of up to 8 timed passes: the runtime's own one-off allocations — a
	// type-assertion cache it fills on a random one in 1024 misses, a
	// thread it starts at a preemption — land in one pass, and at
	// -benchtime 1x one of them reads as 0.125 allocs/replication, while
	// a policy that allocates does so on every pass.
	for i := 0; i < b.N; i++ {
		round(uint64(i + 1))
	}
	reps := b.N * len(lanes)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	events = 0
	b.ResetTimer()
	passes, allocs := 0, uint64(math.MaxUint64)
	for passes < 8 && float64(allocs) > 0.01*float64(reps) {
		runtime.ReadMemStats(&ms0)
		for i := 0; i < b.N; i++ {
			round(uint64(i + 1))
		}
		runtime.ReadMemStats(&ms1)
		allocs = min(allocs, ms1.Mallocs-ms0.Mallocs)
		passes++
	}
	b.StopTimer()
	allocsPerRep := float64(allocs) / float64(reps)
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(passes*reps)/secs, "reps/s")
		b.ReportMetric(float64(events)/secs, "events/s")
		b.ReportMetric(allocsPerRep, "allocs/rep")
	}
	if allocsPerRep > 0.01 {
		b.Fatalf("a registered policy allocates on the warm arena path: %.4f allocs/replication over %d policies, want ≤ 0.01",
			allocsPerRep, len(lanes))
	}
}

// BenchmarkAnalyticSweep measures the closed-form fast path twice, and
// hard-fails each on allocation: "evaluator" is one warm Evaluator pass
// per point of the grid BenchmarkFigureSweep simulates, which must not
// allocate and must answer at least 100 points for each DES replication
// of the same grid timed in the same process; "router" is the path a
// user runs — one sweep.Engine{Kind: Auto}.Run over a 4 200-point
// capacity grid with a policy axis — which may allocate per chunk and per
// worker but not per point, and whose bytes per point stay within 5 % of
// what a point reports: its Aggregate, four nc-float vectors and its
// slot in the output slice.
func BenchmarkAnalyticSweep(b *testing.B) {
	b.Run("evaluator", func(b *testing.B) {
		loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
		cfgs := make([]simsrv.Config, len(loads))
		for i, rho := range loads {
			cfgs[i] = simsrv.EqualLoadConfig([]float64{1, 2}, rho, nil)
			cfgs[i].Warmup = 2000
			cfgs[i].Horizon = 15000
		}
		// The DES side of the speed ratio: one replication per load on a
		// warm arena, untimed by the benchmark. The ratio is conservative,
		// since a published figure point averages many replications but
		// needs one closed-form evaluation.
		var sim simsrv.Simulator
		var simRes simsrv.Result
		desGrid := func() time.Duration {
			start := time.Now()
			for j := range cfgs {
				if err := sim.Reset(cfgs[j], uint64(j+1)); err != nil {
					b.Fatal(err)
				}
				if err := sim.RunInto(&simRes); err != nil {
					b.Fatal(err)
				}
			}
			return time.Since(start)
		}
		desGrid() // warm the arena
		desRepsPerSec := float64(len(cfgs)) / desGrid().Seconds()
		var ev analytic.Evaluator
		var res analytic.Evaluation
		if err := ev.EvaluateInto(&res, cfgs[0]); err != nil { // warm the arena
			b.Fatal(err)
		}
		// An iteration sweeps the grid often enough to time 1 000 points, so
		// the runtime's own one-off allocations (6 when it starts a thread
		// under CPU contention) stay far below the gate even at -benchtime
		// 1x, while one allocation per evaluation still breaches it.
		const passes = 200
		reportPoints := allocsPerPoint(b)
		for i := 0; i < b.N; i++ {
			for range passes {
				for j := range cfgs {
					if err := ev.EvaluateInto(&res, cfgs[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		points := b.N * passes * len(cfgs)
		if a, _ := reportPoints(points); a > 0.01 {
			b.Fatalf("warm closed-form evaluation allocates %.4f times per point, want 0", a)
		}
		pointsPerSec := float64(points) / b.Elapsed().Seconds()
		b.ReportMetric(pointsPerSec/desRepsPerSec, "x-des")
		if pointsPerSec < 100*desRepsPerSec {
			b.Fatalf("closed form answers %.0f points/s against %.0f DES replications/s, want ≥ 100×", pointsPerSec, desRepsPerSec)
		}
	})
	b.Run("router", func(b *testing.B) {
		var points []sweep.Point
		for nc := 2; nc <= 8; nc++ {
			deltas := make([]float64, nc)
			for i := range deltas {
				deltas[i] = float64(i + 1)
			}
			for k := 0; k < 150; k++ {
				cfg := simsrv.EqualLoadConfig(deltas, 0.05+0.9*float64(k)/149, nil)
				for _, policy := range []string{"psd", "equal", "demand", "log"} {
					points = append(points, sweep.Point{Cfg: cfg, Runs: 1, Policy: policy})
				}
			}
		}
		budget := 0.0
		for _, p := range points {
			budget += float64(unsafe.Sizeof(simsrv.Aggregate{})) + 32*float64(len(p.Cfg.Classes)) + 8
		}
		budget *= 1.05 / float64(len(points))
		eng := sweep.Engine{Kind: sweep.Auto}
		reportPoints := allocsPerPoint(b)
		for i := 0; i < b.N; i++ {
			aggs, err := eng.Run(points)
			if err != nil {
				b.Fatal(err)
			}
			if last := aggs[len(aggs)-1]; last.EventsProcessed != 0 || !(last.MeanSlowdowns[0] > 0) {
				b.Fatalf("last point not answered in closed form: %+v", last)
			}
		}
		a, bytes := reportPoints(b.N * len(points))
		if a > 0.05 {
			b.Fatalf("the analytic route allocates %.4f times per point, want O(chunks) per Run", a)
		}
		if bytes > budget {
			b.Fatalf("the analytic route allocates %.0f B per point, want ≤ %.0f", bytes, budget)
		}
	})
}

// allocsPerPoint starts the timed section of a points benchmark; the
// function it returns ends it, reports points/s, allocs/point and
// B/point over the given number of points, and returns the latter two for
// the caller's gates.
func allocsPerPoint(b *testing.B) func(points int) (allocs, bytes float64) {
	var ms0, ms1 runtime.MemStats
	stop := func(points int) (allocs, bytes float64) { // built first: the closure is itself an allocation
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(points)
		bytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(points)
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(points)/secs, "points/s")
			b.ReportMetric(allocs, "allocs/point")
			b.ReportMetric(bytes, "B/point")
		}
		return allocs, bytes
	}
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	return stop
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v):
		return itoa(int(v))
	default:
		return "x"
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
