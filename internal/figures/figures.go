// Package figures regenerates every figure of the paper's evaluation
// (§4, Figures 2–12) from the simulation model. Each FigureN function
// returns the plotted data series; cmd/psdfig renders them as CSV or
// aligned tables, and the root package's bench_test.go runs
// reduced-fidelity versions.
//
// Figure inventory:
//
//	Fig 2   sim vs expected slowdown, 2 classes, δ=(1,2), load sweep
//	Fig 3   same with δ=(1,4)
//	Fig 4   same with 3 classes δ=(1,2,3)
//	Fig 5   5/50/95th pct of per-window S₂/S₁ ratios, δ₂∈{2,4,8}
//	Fig 6   same for 3 classes (ratios 2/1 and 3/1)
//	Fig 7   per-request slowdowns in [60000,61000] at 50% load
//	Fig 8   same at 90% load
//	Fig 9   mean achieved ratio vs load, δ₂∈{2,4,8}
//	Fig 10  mean achieved ratios, 3 classes
//	Fig 11  slowdown vs shape α∈[1,2] (sim + expected)
//	Fig 12  slowdown vs upper bound p∈{100,1000,10000}
//	Fig 13  (beyond the paper) per-window achieved ratio around a load
//	        step, window vs EWMA estimation
//	Fig 14  (beyond the paper) policy tournament: differentiation error,
//	        mean slowdown and shed rate per registered policy across
//	        overload scenarios × heavy-tail families
//
// The paper's full fidelity is Runs=100 over a 60000-tu horizon; Options
// scales both down for quick runs.
package figures

import (
	"fmt"
	"math"

	"psd/internal/admission"
	"psd/internal/analytic"
	"psd/internal/control"
	"psd/internal/dist"
	"psd/internal/simsrv"
	"psd/internal/sweep"
)

// Options control fidelity and provenance.
type Options struct {
	// Runs is the number of replications per point (paper: 100).
	Runs int
	// Horizon is the measured duration per run (paper: 60000).
	Horizon float64
	// Warmup precedes the horizon (paper: 10000).
	Warmup float64
	// Seed bases the replication seeds.
	Seed uint64
	// Loads overrides the default load sweep {0.05, 0.1, …, 0.95}.
	Loads []float64
	// Workers sizes the sweep engine's worker pool (0 = GOMAXPROCS).
	Workers int
	// Engine routes grid points between the DES and the closed-form
	// evaluator (zero value: simulate everything, the published
	// behavior). In sweep.Auto the steady-state mean figures (2–4, 9–12)
	// collapse to exact closed-form points; the percentile figures (5–6),
	// the per-request figures (7–8) and the transient figure (13) always
	// simulate. sweep.Analytic errors on those simulation-only figures.
	Engine sweep.EngineKind
}

// Defaults returns the paper-fidelity options.
func Defaults() Options {
	return Options{Runs: 100, Horizon: 60000, Warmup: 10000}
}

// Quick returns reduced-fidelity options for benches and smoke runs.
func Quick() Options {
	return Options{Runs: 10, Horizon: 15000, Warmup: 2000}
}

func (o Options) withDefaults() Options {
	d := Defaults()
	if o.Runs == 0 {
		o.Runs = d.Runs
	}
	if o.Horizon == 0 {
		o.Horizon = d.Horizon
	}
	if o.Warmup == 0 {
		o.Warmup = d.Warmup
	}
	if len(o.Loads) == 0 {
		o.Loads = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	}
	return o
}

// Series is one plotted curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is one regenerated figure.
type Figure struct {
	ID     int
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  string
}

func (o Options) config(deltas []float64, rho float64, svc dist.Distribution) simsrv.Config {
	cfg := simsrv.EqualLoadConfig(deltas, rho, svc)
	cfg.Warmup = o.Warmup
	cfg.Horizon = o.Horizon
	cfg.Seed = o.Seed
	return cfg
}

// runGrid executes one figure's whole scenario grid through the sweep
// engine: every (config × Runs) replication shares one global task queue
// over per-worker arenas, so a slow point never stalls the rest of the
// figure. Aggregates return in cfgs order. needWindowStats marks grids
// whose consumer reads the per-window ratio percentiles, which only the
// DES produces — those points simulate even under sweep.Auto.
func (o Options) runGrid(cfgs []simsrv.Config, needWindowStats bool) ([]*simsrv.Aggregate, error) {
	points := make([]sweep.Point, len(cfgs))
	for i, cfg := range cfgs {
		points[i] = sweep.Point{Cfg: cfg, Runs: o.Runs, NeedWindowStats: needWindowStats}
	}
	eng := sweep.Engine{Workers: o.Workers, Kind: o.Engine}
	return eng.Run(points)
}

// simVsExpected produces the Figure 2/3/4 layout for arbitrary deltas.
func simVsExpected(id int, deltas []float64, opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     id,
		Title:  fmt.Sprintf("Simulated and expected slowdowns, deltas=%v", deltas),
		XLabel: "System load (%)",
		YLabel: "Slowdown (log)",
	}
	n := len(deltas)
	sim := make([]Series, n)
	exp := make([]Series, n)
	for i := range deltas {
		sim[i] = Series{Name: fmt.Sprintf("Class %d (simulated)", i+1)}
		exp[i] = Series{Name: fmt.Sprintf("Class %d (expected)", i+1)}
	}
	sys := Series{Name: "System (simulated)"}
	cfgs := make([]simsrv.Config, len(opts.Loads))
	for li, rho := range opts.Loads {
		cfgs[li] = opts.config(deltas, rho, nil)
	}
	aggs, err := opts.runGrid(cfgs, false)
	if err != nil {
		return Figure{}, fmt.Errorf("figure %d: %w", id, err)
	}
	for li, rho := range opts.Loads {
		agg := aggs[li]
		for i := range deltas {
			sim[i].X = append(sim[i].X, rho*100)
			sim[i].Y = append(sim[i].Y, agg.MeanSlowdowns[i])
			exp[i].X = append(exp[i].X, rho*100)
			exp[i].Y = append(exp[i].Y, agg.ExpectedSlowdowns[i])
		}
		sys.X = append(sys.X, rho*100)
		sys.Y = append(sys.Y, agg.SystemSlowdown)
	}
	fig.Series = append(fig.Series, sim...)
	fig.Series = append(fig.Series, exp...)
	fig.Series = append(fig.Series, sys)
	return fig, nil
}

// Figure2 reproduces Figure 2: δ=(1,2).
func Figure2(opts Options) (Figure, error) { return simVsExpected(2, []float64{1, 2}, opts) }

// Figure3 reproduces Figure 3: δ=(1,4).
func Figure3(opts Options) (Figure, error) { return simVsExpected(3, []float64{1, 4}, opts) }

// Figure4 reproduces Figure 4: three classes, δ=(1,2,3).
func Figure4(opts Options) (Figure, error) { return simVsExpected(4, []float64{1, 2, 3}, opts) }

// Figure5 reproduces Figure 5: percentiles (5/50/95) of the per-window
// achieved slowdown ratio S₂/S₁ for δ₂/δ₁ ∈ {2, 4, 8}.
func Figure5(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     5,
		Title:  "Percentiles of simulated slowdown ratios, two classes",
		XLabel: "System load (%)",
		YLabel: "Slowdown ratio (Class 2 / Class 1)",
		Notes:  "Per pre-specified ratio: p05/p50/p95 series from pooled per-window ratios.",
	}
	ratios := []float64{2, 4, 8}
	var cfgs []simsrv.Config
	for _, d2 := range ratios {
		for _, rho := range opts.Loads {
			cfgs = append(cfgs, opts.config([]float64{1, d2}, rho, nil))
		}
	}
	aggs, err := opts.runGrid(cfgs, true)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 5: %w", err)
	}
	for di, d2 := range ratios {
		p05 := Series{Name: fmt.Sprintf("d2/d1=%g p05", d2)}
		p50 := Series{Name: fmt.Sprintf("d2/d1=%g p50", d2)}
		p95 := Series{Name: fmt.Sprintf("d2/d1=%g p95", d2)}
		for li, rho := range opts.Loads {
			rs := aggs[di*len(opts.Loads)+li].RatioSummaries[1]
			p05.X = append(p05.X, rho*100)
			p05.Y = append(p05.Y, rs.P05)
			p50.X = append(p50.X, rho*100)
			p50.Y = append(p50.Y, rs.P50)
			p95.X = append(p95.X, rho*100)
			p95.Y = append(p95.Y, rs.P95)
		}
		fig.Series = append(fig.Series, p05, p50, p95)
	}
	return fig, nil
}

// Figure6 reproduces Figure 6: ratio percentiles for three classes,
// δ=(1,2,3): S₂/S₁ (target 2) and S₃/S₁ (target 3).
func Figure6(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     6,
		Title:  "Percentiles of simulated slowdown ratios, three classes",
		XLabel: "System load (%)",
		YLabel: "Slowdown ratio",
	}
	targets := []struct {
		idx  int
		name string
	}{
		{1, "Class2/Class1 (d2/d1=2)"},
		{2, "Class3/Class1 (d3/d1=3)"},
	}
	series := make([][3]Series, len(targets))
	for ti, tg := range targets {
		series[ti][0] = Series{Name: tg.name + " p05"}
		series[ti][1] = Series{Name: tg.name + " p50"}
		series[ti][2] = Series{Name: tg.name + " p95"}
	}
	cfgs := make([]simsrv.Config, len(opts.Loads))
	for li, rho := range opts.Loads {
		cfgs[li] = opts.config([]float64{1, 2, 3}, rho, nil)
	}
	aggs, err := opts.runGrid(cfgs, true)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 6: %w", err)
	}
	for li, rho := range opts.Loads {
		for ti, tg := range targets {
			rs := aggs[li].RatioSummaries[tg.idx]
			for pi, v := range []float64{rs.P05, rs.P50, rs.P95} {
				series[ti][pi].X = append(series[ti][pi].X, rho*100)
				series[ti][pi].Y = append(series[ti][pi].Y, v)
			}
		}
	}
	for ti := range series {
		fig.Series = append(fig.Series, series[ti][0], series[ti][1], series[ti][2])
	}
	return fig, nil
}

// individualRequests produces the Figures 7/8 layout: slowdowns of
// individual requests completing in [60000, 61000] at the given load.
func individualRequests(id int, rho float64, opts Options) (Figure, error) {
	opts = opts.withDefaults()
	if opts.Engine == sweep.Analytic {
		return Figure{}, fmt.Errorf("figure %d: %w: individual request trajectories only exist in a simulation", id, analytic.ErrNeedsSimulation)
	}
	cfg := opts.config([]float64{1, 2}, rho, nil)
	// The record window sits at the paper's [60000, 61000] when the
	// horizon allows; otherwise the last full window of the run.
	from := 60000.0
	if opts.Warmup+opts.Horizon < 61000 {
		from = opts.Warmup + opts.Horizon - 1000
	}
	cfg.RecordRequests = true
	cfg.RecordFrom = from
	cfg.RecordTo = from + 1000
	res, err := simsrv.Run(cfg)
	if err != nil {
		return Figure{}, fmt.Errorf("figure %d: %w", id, err)
	}
	fig := Figure{
		ID:     id,
		Title:  fmt.Sprintf("Slowdown of individual requests, system load %.0f%%", rho*100),
		XLabel: "Time (time unit)",
		YLabel: "Slowdown",
		Notes:  fmt.Sprintf("Requests completing in [%.0f, %.0f); single run, seed %d.", from, from+1000, cfg.Seed),
	}
	s1 := Series{Name: "Class 1 (simulated)"}
	s2 := Series{Name: "Class 2 (simulated)"}
	for _, r := range res.Records {
		switch r.Class {
		case 0:
			s1.X = append(s1.X, r.Completion)
			s1.Y = append(s1.Y, r.Slowdown)
		case 1:
			s2.X = append(s2.X, r.Completion)
			s2.Y = append(s2.Y, r.Slowdown)
		}
	}
	fig.Series = []Series{s1, s2}
	return fig, nil
}

// Figure7 reproduces Figure 7: individual slowdowns at 50% load.
func Figure7(opts Options) (Figure, error) { return individualRequests(7, 0.5, opts) }

// Figure8 reproduces Figure 8: individual slowdowns at 90% load, where
// the paper observes short-timescale inversions of the target ordering.
func Figure8(opts Options) (Figure, error) { return individualRequests(8, 0.9, opts) }

// Figure9 reproduces Figure 9: mean achieved slowdown ratios of two
// classes vs load for δ₂/δ₁ ∈ {2, 4, 8}.
func Figure9(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     9,
		Title:  "Simulated slowdown ratios of two classes",
		XLabel: "System load (%)",
		YLabel: "Slowdown ratio",
	}
	ratios := []float64{2, 4, 8}
	var cfgs []simsrv.Config
	for _, d2 := range ratios {
		for _, rho := range opts.Loads {
			cfgs = append(cfgs, opts.config([]float64{1, d2}, rho, nil))
		}
	}
	aggs, err := opts.runGrid(cfgs, false)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 9: %w", err)
	}
	for di, d2 := range ratios {
		s := Series{Name: fmt.Sprintf("Class2/Class1 (d2/d1=%g)", d2)}
		for li, rho := range opts.Loads {
			s.X = append(s.X, rho*100)
			s.Y = append(s.Y, aggs[di*len(opts.Loads)+li].MeanRatios[1])
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure10 reproduces Figure 10: mean achieved ratios for three classes.
func Figure10(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     10,
		Title:  "Simulated slowdown ratios of three classes",
		XLabel: "System load (%)",
		YLabel: "Slowdown ratio",
	}
	s21 := Series{Name: "Class2/Class1 (d2/d1=2)"}
	s31 := Series{Name: "Class3/Class1 (d3/d1=3)"}
	cfgs := make([]simsrv.Config, len(opts.Loads))
	for li, rho := range opts.Loads {
		cfgs[li] = opts.config([]float64{1, 2, 3}, rho, nil)
	}
	aggs, err := opts.runGrid(cfgs, false)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 10: %w", err)
	}
	for li, rho := range opts.Loads {
		s21.X = append(s21.X, rho*100)
		s21.Y = append(s21.Y, aggs[li].MeanRatios[1])
		s31.X = append(s31.X, rho*100)
		s31.Y = append(s31.Y, aggs[li].MeanRatios[2])
	}
	fig.Series = []Series{s21, s31}
	return fig, nil
}

// Figure11 reproduces Figure 11: influence of the Bounded Pareto shape
// parameter α ∈ [1.0, 2.0] on the two classes' slowdowns (δ=(1,2)) at a
// fixed 70% load (the paper does not state its load; 70% reproduces the
// 10–1000 slowdown range of its y-axis).
func Figure11(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     11,
		Title:  "Influence of the shape parameter of the Bounded Pareto distribution",
		XLabel: "Shape parameter alpha",
		YLabel: "Slowdown (log)",
		Notes:  "Fixed system load 70%, k=0.1, p=100, deltas=(1,2).",
	}
	sim1 := Series{Name: "Class 1 (simulated)"}
	sim2 := Series{Name: "Class 2 (simulated)"}
	exp1 := Series{Name: "Class 1 (expected)"}
	exp2 := Series{Name: "Class 2 (expected)"}
	alphas := []float64{1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0}
	cfgs := make([]simsrv.Config, len(alphas))
	for ai, alpha := range alphas {
		svc, err := dist.NewBoundedPareto(0.1, 100, alpha)
		if err != nil {
			return Figure{}, err
		}
		cfgs[ai] = opts.config([]float64{1, 2}, 0.7, svc)
	}
	aggs, err := opts.runGrid(cfgs, false)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 11: %w", err)
	}
	for ai, alpha := range alphas {
		agg := aggs[ai]
		sim1.X = append(sim1.X, alpha)
		sim1.Y = append(sim1.Y, agg.MeanSlowdowns[0])
		sim2.X = append(sim2.X, alpha)
		sim2.Y = append(sim2.Y, agg.MeanSlowdowns[1])
		exp1.X = append(exp1.X, alpha)
		exp1.Y = append(exp1.Y, agg.ExpectedSlowdowns[0])
		exp2.X = append(exp2.X, alpha)
		exp2.Y = append(exp2.Y, agg.ExpectedSlowdowns[1])
	}
	fig.Series = []Series{sim1, sim2, exp1, exp2}
	return fig, nil
}

// Figure12 reproduces Figure 12: influence of the Bounded Pareto upper
// bound p ∈ {100, 1000, 10000} (δ=(1,2), fixed 70% load).
func Figure12(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     12,
		Title:  "Influence of the upper bound of the Bounded Pareto distribution",
		XLabel: "Upper bound p (log)",
		YLabel: "Slowdown (log)",
		Notes:  "Fixed system load 70%, k=0.1, alpha=1.5, deltas=(1,2).",
	}
	sim1 := Series{Name: "Class 1 (simulated)"}
	sim2 := Series{Name: "Class 2 (simulated)"}
	exp1 := Series{Name: "Class 1 (expected)"}
	exp2 := Series{Name: "Class 2 (expected)"}
	bounds := []float64{100, 1000, 10000}
	cfgs := make([]simsrv.Config, len(bounds))
	for pi, p := range bounds {
		svc, err := dist.NewBoundedPareto(0.1, p, 1.5)
		if err != nil {
			return Figure{}, err
		}
		cfgs[pi] = opts.config([]float64{1, 2}, 0.7, svc)
	}
	aggs, err := opts.runGrid(cfgs, false)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 12: %w", err)
	}
	for pi, p := range bounds {
		agg := aggs[pi]
		sim1.X = append(sim1.X, p)
		sim1.Y = append(sim1.Y, agg.MeanSlowdowns[0])
		sim2.X = append(sim2.X, p)
		sim2.Y = append(sim2.Y, agg.MeanSlowdowns[1])
		exp1.X = append(exp1.X, p)
		exp1.Y = append(exp1.Y, agg.ExpectedSlowdowns[0])
		exp2.X = append(exp2.X, p)
		exp2.Y = append(exp2.Y, agg.ExpectedSlowdowns[1])
	}
	fig.Series = []Series{sim1, sim2, exp1, exp2}
	return fig, nil
}

// Figure13 goes beyond the paper: transient response of the control
// plane's estimator after a load step. Both classes' arrival rates jump
// from 40% to 88% total utilization at mid-horizon; the plotted series
// are the across-run mean per-window achieved S₂/S₁ ratio (target 2)
// under the paper's 5-window mean estimator versus EWMA smoothing. The
// window estimator drags its pre-step history for HistoryWindows windows
// after the shift; EWMA re-converges faster at equal steady-state noise —
// exactly the trade-off §4.4 attributes the controllability gaps to.
func Figure13(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	deltas := []float64{1, 2}
	base := opts.config(deltas, 0.4, nil)
	stepAt := base.Warmup + opts.Horizon/2
	base.LoadSchedule = simsrv.LoadStep(stepAt, 2.2)

	win := base
	win.Estimator = control.Window
	ewma := base
	ewma.Estimator = control.EWMA
	ewma.EWMAAlpha = 0.5

	points := []sweep.Point{
		{Cfg: win, Runs: opts.Runs, TrackWindowRatios: true},
		{Cfg: ewma, Runs: opts.Runs, TrackWindowRatios: true},
	}
	eng := sweep.Engine{Workers: opts.Workers, Kind: opts.Engine}
	aggs, err := eng.Run(points)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 13: %w", err)
	}

	fig := Figure{
		ID:     13,
		Title:  "Estimator transient response after a load step (beyond the paper)",
		XLabel: "Time (time unit)",
		YLabel: "Per-window slowdown ratio (Class 2 / Class 1)",
		Notes: fmt.Sprintf("Load steps 40%%->88%% at t=%g; window = paper's 5-window mean, "+
			"ewma alpha=0.5; target ratio 2.", stepAt),
	}
	window := win.ApplyDefaults().Window
	names := []string{"window estimator", "ewma estimator"}
	for pi, agg := range aggs {
		s := Series{Name: names[pi]}
		for k, v := range agg.WindowRatioMeans[1] {
			if math.IsNaN(v) {
				continue
			}
			s.X = append(s.X, base.Warmup+float64(k+1)*window)
			s.Y = append(s.Y, v)
		}
		fig.Series = append(fig.Series, s)
	}
	// Constant target line on the window-estimator series' time axis (the
	// two estimator series share the same non-empty windows in practice;
	// the line is a visual reference, not a paired comparison).
	target := Series{Name: "target ratio"}
	ref := fig.Series[0]
	for i := range ref.X {
		target.X = append(target.X, ref.X[i])
		target.Y = append(target.Y, deltas[1]/deltas[0])
	}
	fig.Series = append(fig.Series, target)
	return fig, nil
}

// TournamentPolicies are the rival policies Figure 14 races: the paper's
// PSD, the logarithmic-weight allocator, the downgrading allocator (which
// arms the degradation ladder) and the size-aware heSRPT discipline.
var TournamentPolicies = []string{"psd", "log", "downgrade", "hesrpt"}

// Figure14 goes beyond the paper: a policy tournament over the core
// registry. Every policy in TournamentPolicies runs the same 4-cell
// overload grid — {paper Bounded Pareto, heavy-tailed lognormal} service
// families × {sustained load step, flash crowd} schedules, 3 classes
// δ=(1,2,4), base load 85% surging to ~136% — behind a per-point
// utilization-bound admission gate. One sweep.Tournament expansion and
// one Engine.Run cover the whole cross product; the plotted series per
// policy are
//
//	ratio error:    mean over classes of |achieved ratio / target − 1|
//	mean slowdown:  the arrival-weighted system slowdown
//	shed rate:      fraction of arrivals dropped by admission
//
// with X = scenario cell (1: BP×step, 2: BP×flash, 3: lognormal×step,
// 4: lognormal×flash). The downgrading policy's ladder holds the gate
// open until every rung is engaged, so its shed rate reads the residual
// overload degradation could not absorb; heSRPT runs on the packetized
// server behind the same gate (the simulator's skeleton owns it), so its
// shed rate is comparable and its slowdowns come from size-aware
// scheduling.
//
// Replications are pinned to 1 per point: admission controllers are
// stateful and the engine runs replications of one point concurrently,
// so each expanded point gets its own controller instance instead.
func Figure14(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	if opts.Engine == sweep.Analytic {
		return Figure{}, fmt.Errorf("figure 14: %w: the tournament's transient overload scenarios only exist in a simulation", analytic.ErrNeedsSimulation)
	}
	deltas := []float64{1, 2, 4}
	// Lognormal with σ=1.5 and unit mean (μ = −σ²/2): the second
	// heavy-tail family, with all moments finite (E[1/X] included).
	lognormal, err := dist.NewLognormal(-1.125, 1.5)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 14: %w", err)
	}
	surgeAt := opts.Warmup + opts.Horizon/3
	families := []struct {
		name string
		svc  dist.Distribution
	}{
		{"BP(0.1,100,1.5)", nil},
		{"lognormal(sigma=1.5)", lognormal},
	}
	schedules := []struct {
		name   string
		phases []simsrv.LoadPhase
	}{
		{"load step", simsrv.LoadStep(surgeAt, 1.6)},
		{"flash crowd", simsrv.FlashCrowd(surgeAt, opts.Horizon/3, 1.6)},
	}
	var base []sweep.Point
	var cellNames []string
	for _, fam := range families {
		for _, sc := range schedules {
			cfg := opts.config(deltas, 0.85, fam.svc)
			cfg.LoadSchedule = sc.phases
			// The utilization bound sheds large jobs first, which
			// decouples admitted counts from admitted work; estimate
			// load from work so ρ̂ tracks the admitted process.
			cfg.EstimateFromWork = true
			base = append(base, sweep.Point{Cfg: cfg, Runs: 1})
			cellNames = append(cellNames, fam.name+" x "+sc.name)
		}
	}
	points, err := sweep.Tournament(base, TournamentPolicies)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 14: %w", err)
	}
	for i := range points {
		adm, err := admission.NewUtilizationBound(0.95, points[i].Cfg.ApplyDefaults().Window)
		if err != nil {
			return Figure{}, fmt.Errorf("figure 14: %w", err)
		}
		points[i].Cfg.Admission = adm
	}
	eng := sweep.Engine{Workers: opts.Workers, Kind: opts.Engine}
	aggs, err := eng.Run(points)
	if err != nil {
		return Figure{}, fmt.Errorf("figure 14: %w", err)
	}

	fig := Figure{
		ID:     14,
		Title:  "Policy tournament under overload (beyond the paper)",
		XLabel: "Scenario cell",
		YLabel: "Ratio error / slowdown / shed rate",
		Notes: fmt.Sprintf("Cells: %v. deltas=(1,2,4), base load 85%%, surge x1.6 at t=%g; "+
			"utilization-bound admission (bound 0.95); 1 run per cell. "+
			"heSRPT runs packetized behind the same gate.",
			cellNames, surgeAt),
	}
	nCells := len(base)
	for pi, name := range TournamentPolicies {
		ratioErr := Series{Name: name + " ratio error"}
		meanSlow := Series{Name: name + " mean slowdown"}
		shed := Series{Name: name + " shed rate"}
		for ci := 0; ci < nCells; ci++ {
			agg := aggs[pi*nCells+ci]
			var errSum float64
			for i := 1; i < len(deltas); i++ {
				target := deltas[i] / deltas[0]
				errSum += math.Abs(agg.MeanRatios[i]/target - 1)
			}
			x := float64(ci + 1)
			ratioErr.X = append(ratioErr.X, x)
			ratioErr.Y = append(ratioErr.Y, errSum/float64(len(deltas)-1))
			meanSlow.X = append(meanSlow.X, x)
			meanSlow.Y = append(meanSlow.Y, agg.SystemSlowdown)
			shed.X = append(shed.X, x)
			shed.Y = append(shed.Y, agg.MeanShedRate)
		}
		fig.Series = append(fig.Series, ratioErr, meanSlow, shed)
	}
	return fig, nil
}

// Generate runs one figure by ID (2–14; 13 and 14 are the beyond-paper
// estimator transient study and the policy tournament).
func Generate(id int, opts Options) (Figure, error) {
	gens := map[int]func(Options) (Figure, error){
		2: Figure2, 3: Figure3, 4: Figure4, 5: Figure5, 6: Figure6,
		7: Figure7, 8: Figure8, 9: Figure9, 10: Figure10, 11: Figure11, 12: Figure12,
		13: Figure13, 14: Figure14,
	}
	g, ok := gens[id]
	if !ok {
		return Figure{}, fmt.Errorf("figures: no figure %d (valid: 2-14)", id)
	}
	return g(opts)
}
