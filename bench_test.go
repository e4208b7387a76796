package psd

// Benchmarks regenerating every figure of the paper's evaluation (§4),
// plus ablation benches for the design choices called out in DESIGN.md.
//
// Each BenchmarkFigureN runs its figure at reduced fidelity per iteration
// and reports domain metrics alongside wall-clock time:
//
//	simgap    worst |simulated − expected| / expected across the figure
//	ratioerr  worst |achieved − target| / target slowdown ratio
//
// Full paper fidelity (100 runs × 60000 tu, full load sweep) is the
// cmd/psdfig default; benches use a reduced profile so `go test -bench=.`
// stays in CI-friendly territory.

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"psd/internal/analytic"
	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/figures"
	"psd/internal/simsrv"
	"psd/internal/sweep"
)

// benchOpts is the reduced fidelity profile for figure benches.
func benchOpts() figures.Options {
	return figures.Options{
		Runs:    4,
		Horizon: 10000,
		Warmup:  2000,
		Loads:   []float64{0.3, 0.6, 0.9},
		Seed:    1,
	}
}

func benchFigure(b *testing.B, id int) figures.Figure {
	b.Helper()
	var fig figures.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = figures.Generate(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

// reportSimGap attaches the worst simulated-vs-expected relative gap.
func reportSimGap(b *testing.B, fig figures.Figure) {
	b.Helper()
	if gap := figures.MaxAbsRelGap(fig); !math.IsNaN(gap) {
		b.ReportMetric(gap, "simgap")
	}
}

func BenchmarkFigure2(b *testing.B) { reportSimGap(b, benchFigure(b, 2)) }
func BenchmarkFigure3(b *testing.B) { reportSimGap(b, benchFigure(b, 3)) }
func BenchmarkFigure4(b *testing.B) { reportSimGap(b, benchFigure(b, 4)) }

func BenchmarkFigure5(b *testing.B) {
	fig := benchFigure(b, 5)
	// Median of the per-window ratio should sit near each target; report
	// the worst median error across the three delta settings at the
	// moderate load point.
	worst := 0.0
	targets := map[string]float64{"d2/d1=2 p50": 2, "d2/d1=4 p50": 4, "d2/d1=8 p50": 8}
	for _, s := range fig.Series {
		target, ok := targets[s.Name]
		if !ok || len(s.Y) < 2 {
			continue
		}
		err := math.Abs(s.Y[1]-target) / target // index 1 = load 0.6
		if err > worst {
			worst = err
		}
	}
	b.ReportMetric(worst, "ratioerr")
}

func BenchmarkFigure6(b *testing.B) { _ = benchFigure(b, 6) }
func BenchmarkFigure7(b *testing.B) { _ = benchFigure(b, 7) }
func BenchmarkFigure8(b *testing.B) { _ = benchFigure(b, 8) }

func BenchmarkFigure9(b *testing.B) {
	fig := benchFigure(b, 9)
	worst := 0.0
	targets := []float64{2, 4, 8}
	for i, s := range fig.Series {
		if i >= len(targets) || len(s.Y) < 2 {
			continue
		}
		err := math.Abs(s.Y[1]-targets[i]) / targets[i]
		if err > worst {
			worst = err
		}
	}
	b.ReportMetric(worst, "ratioerr")
}

func BenchmarkFigure10(b *testing.B) { _ = benchFigure(b, 10) }
func BenchmarkFigure11(b *testing.B) { reportSimGap(b, benchFigure(b, 11)) }
func BenchmarkFigure12(b *testing.B) { reportSimGap(b, benchFigure(b, 12)) }

// ---------------------------------------------------------------------------
// Ablation benches (design-choice studies beyond the paper's figures).

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
	agg, err := simsrv.RunReplications(cfg, 6)
	if err != nil {
		b.Fatal(err)
	}
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
				agg, err := simsrv.RunReplications(cfg, 6)
				if err != nil {
					b.Fatal(err)
				}
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
				agg, err := simsrv.RunReplications(cfg, 6)
				if err != nil {
					b.Fatal(err)
				}
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
				res, err = simsrv.RunPacketized(simsrv.PacketizedConfig{Config: cfg})
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
// the 2-class and 5-class partitioned task servers, their work-conserving
// variant, the packetized SCFQ server and trace replay. It reports the
// numbers the perf baseline tracks:
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
// cmd/psdbench runs the same scenarios and emits BENCH_psd.json; CI runs
// this benchmark with -benchtime 1x as an allocation smoke test and
// psdbench -compare for the same gates across every scenario.
func BenchmarkReplication(b *testing.B) {
	cases := []struct {
		name       string
		deltas     []float64
		load       float64
		packetized bool
		workCons   bool
		trace      bool
	}{
		{name: "2class", deltas: []float64{1, 4}, load: 0.6},
		{name: "5class", deltas: []float64{1, 2, 4, 8, 16}, load: 0.8},
		{name: "2class-workcons", deltas: []float64{1, 4}, load: 0.6, workCons: true},
		{name: "2class-packetized", deltas: []float64{1, 4}, load: 0.6, packetized: true},
		{name: "2class-trace", deltas: []float64{1, 2}, load: 0.6, trace: true},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := simsrv.EqualLoadConfig(tc.deltas, tc.load, nil)
			cfg.WorkConserving = tc.workCons
			var trace []simsrv.TraceRequest
			if tc.trace {
				// The determinism goldens' synthetic trace, stretched to
				// the horizon (cmd/psdbench replays the same one).
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
			}
			run(0) // untimed arena warmup to the scenario's high-water mark
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
// disappear). cmd/psdbench's figure2-sweep scenario tracks the same grid
// in the committed baseline.
func BenchmarkFigureSweep(b *testing.B) {
	opts := figures.Options{
		Runs:    10,
		Horizon: 15000,
		Warmup:  2000,
		Seed:    1,
		Loads:   []float64{0.1, 0.3, 0.5, 0.7, 0.9},
	}
	repsPerFigure := len(opts.Loads) * opts.Runs
	if _, err := figures.Figure2(opts); err != nil { // untimed warmup
		b.Fatal(err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Figure2(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	reps := b.N * repsPerFigure
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(reps)/secs, "reps/s")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(reps), "allocs/rep")
	}
}

// BenchmarkAnalyticSweep measures the closed-form fast path twice, and
// hard-fails each on allocation: "evaluator" is one warm Evaluator pass
// per point of the grid BenchmarkFigureSweep simulates (the same 0
// allocs/point promise cmd/psdbench gates in CI); "router" is the path a
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
		}
		var ev analytic.Evaluator
		var res analytic.Evaluation
		if err := ev.EvaluateInto(&res, cfgs[0]); err != nil { // warm the arena
			b.Fatal(err)
		}
		reportPoints := allocsPerPoint(b)
		for i := 0; i < b.N; i++ {
			for j := range cfgs {
				if err := ev.EvaluateInto(&res, cfgs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
		if a, _ := reportPoints(b.N * len(cfgs)); a > 0.01 {
			b.Fatalf("warm closed-form evaluation allocates %.4f times per point, want 0", a)
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

// BenchmarkSimulationThroughput measures raw simulator speed: events per
// second at a demanding 90% load.
func BenchmarkSimulationThroughput(b *testing.B) {
	cfg := simsrv.EqualLoadConfig([]float64{1, 2}, 0.9, nil)
	cfg.Warmup = 1000
	cfg.Horizon = 10000
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		res, err := simsrv.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.EventsProcessed
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAllocatorThroughput measures Eq. 17 evaluations per second —
// the hot path of a live reallocation loop.
func BenchmarkAllocatorThroughput(b *testing.B) {
	d := PaperWorkload()
	w, err := core.WorkloadFromDist(d)
	if err != nil {
		b.Fatal(err)
	}
	lambda := 0.3 / d.Mean()
	classes := []core.Class{{Delta: 1, Lambda: lambda}, {Delta: 2, Lambda: lambda}, {Delta: 4, Lambda: lambda / 2}}
	for i := 0; i < b.N; i++ {
		if _, err := (core.PSD{}).Allocate(classes, w); err != nil {
			b.Fatal(err)
		}
	}
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
