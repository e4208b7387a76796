// Package figures regenerates every figure of the paper's evaluation
// (§4, Figures 2–12) from the simulation model, plus two studies beyond
// the paper (13, 14).
//
// The figures are one table. Each row declares the grid points its
// figure plots and a render from their aggregates to Series.
// GenerateAll collects the requested rows' points, simulates each
// distinct point once in a single sweep.Engine run, and renders every
// figure; Generate is GenerateAll for one id. Many points repeat across
// figures: Figures 2 and 3 are rows of Figure 9's grid, which is Figure
// 5's grid without window statistics; Figures 4 and 10 are Figure 6's
// grid; Figures 11 and 12 repeat Figure 2's 70 % point. cmd/psdfig
// writes the figures as CSV or aligned tables, and the root package's
// bench_test.go runs a reduced-fidelity Figure 2.
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
	"slices"

	"psd/internal/admission"
	"psd/internal/analytic"
	"psd/internal/control"
	"psd/internal/dist"
	"psd/internal/simsrv"
	"psd/internal/sweep"
	"psd/internal/workload"
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
	// the per-request figures (7–8) and the studies (13–14) always
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

// row is one figure of the table: the points it declares and the render
// from their aggregates, in declaration order, to the figure (its ID is
// set by GenerateAll). Figures 7 and 8 declare no points: their render
// is one recorded run.
type row struct {
	points func(o Options) ([]point, error)
	render func(o Options, aggs []*simsrv.Aggregate) (Figure, error)
}

// point is one declared grid point: a steady-state point of the paper's
// equal-load model, named by its key alone, or a custom one. GenerateAll
// simulates equal keys once, however many figures declare them; a custom
// point (a load schedule, an estimator override, admission, window
// tracking) is never merged.
type point struct {
	key    key
	custom *sweep.Point
}

// key names a steady-state point the way a figure declares it. All
// points share the Options' runs, horizon, warm-up and seed.
type key struct {
	deltas      [3]float64 // δ vector, zero-padded
	rho         float64    // total load
	bp          [3]float64 // Bounded Pareto size law (k, p, α)
	windowStats bool       // the render reads per-window ratio percentiles
}

// paperBP is dist.PaperDefault()'s (k, p, α).
var paperBP = [3]float64{dist.PaperDefault().K, dist.PaperDefault().P, dist.PaperDefault().Alpha}

// sweepPoint builds the point k names. The paper's law is passed as nil,
// so every such point shares dist.PaperDefault()'s sampling table.
func (k key) sweepPoint(o Options) sweep.Point {
	var svc dist.Distribution
	if k.bp != paperBP {
		svc = dist.MustBoundedPareto(k.bp[0], k.bp[1], k.bp[2])
	}
	n := 0
	for n < len(k.deltas) && k.deltas[n] != 0 {
		n++
	}
	return sweep.Point{Cfg: o.config(k.deltas[:n], k.rho, svc), Runs: o.Runs, NeedWindowStats: k.windowStats}
}

// table holds every figure by id.
var table = map[int]row{
	2: slowdownsByLoad([]float64{1, 2}),
	3: slowdownsByLoad([]float64{1, 4}),
	4: slowdownsByLoad([]float64{1, 2, 3}),
	5: ratiosByLoad(Figure{
		Title:  "Percentiles of simulated slowdown ratios, two classes",
		YLabel: "Slowdown ratio (Class 2 / Class 1)",
		Notes:  "Per pre-specified ratio: p05/p50/p95 series from pooled per-window ratios.",
	}, true, targetLabel, []float64{1, 2}, []float64{1, 4}, []float64{1, 8}),
	6: ratiosByLoad(Figure{
		Title:  "Percentiles of simulated slowdown ratios, three classes",
		YLabel: "Slowdown ratio",
	}, true, ratioLabel, []float64{1, 2, 3}),
	7: individualRequests(0.5),
	// At 90 % load the paper observes short-timescale inversions of the
	// target ordering.
	8: individualRequests(0.9),
	9: ratiosByLoad(Figure{
		Title:  "Simulated slowdown ratios of two classes",
		YLabel: "Slowdown ratio",
	}, false, ratioLabel, []float64{1, 2}, []float64{1, 4}, []float64{1, 8}),
	10: ratiosByLoad(Figure{
		Title:  "Simulated slowdown ratios of three classes",
		YLabel: "Slowdown ratio",
	}, false, ratioLabel, []float64{1, 2, 3}),
	// The paper does not state Figures 11–12's load; 70 % reproduces the
	// 10–1000 slowdown range of its y-axis.
	11: slowdownsByLaw(Figure{
		Title:  "Influence of the shape parameter of the Bounded Pareto distribution",
		XLabel: "Shape parameter alpha",
		Notes:  "Fixed system load 70%, k=0.1, p=100, deltas=(1,2).",
	}, 2, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0),
	12: slowdownsByLaw(Figure{
		Title:  "Influence of the upper bound of the Bounded Pareto distribution",
		XLabel: "Upper bound p (log)",
		Notes:  "Fixed system load 70%, k=0.1, alpha=1.5, deltas=(1,2).",
	}, 1, 100, 1000, 10000),
	13: {points: transientPoints, render: transientRender},
	14: {points: tournamentPoints, render: tournamentRender},
}

// Generate regenerates one figure by ID (2–14; 13 and 14 are the
// beyond-paper estimator transient study and the policy tournament).
func Generate(id int, opts Options) (Figure, error) {
	figs, err := GenerateAll([]int{id}, opts)
	if err != nil {
		return Figure{}, err
	}
	return figs[0], nil
}

// GenerateAll regenerates the figures ids, in that order, from one grid:
// it collects their declared points, simulates each distinct point once
// in a single sweep.Engine run, and renders each figure from its own
// points' aggregates, so every figure comes out as Generate makes it
// alone. Under sweep.DES a merged point reads window statistics if any
// declarer does, which changes nothing the DES computes; under Auto and
// Analytic the flag is part of the key, so a mean figure keeps its
// closed form while a percentile figure simulates. An error names the
// figure once: for an engine error, the lowest id that declared the
// failing point (the engine's point index counts the merged grid).
func GenerateAll(ids []int, opts Options) ([]Figure, error) {
	opts = opts.withDefaults()
	var grid []sweep.Point
	var owner []int               // owner[k]: the lowest id declaring grid point k
	at := make([][]int, len(ids)) // at[i]: the grid index of each point of figure ids[i]
	merged := map[key]int{}
	for i, id := range ids {
		r, ok := table[id]
		if !ok {
			return nil, fmt.Errorf("figures: no figure %d (valid: 2-14)", id)
		}
		if r.points == nil {
			continue
		}
		pts, err := r.points(opts)
		if err != nil {
			return nil, fmt.Errorf("figure %d: %w", id, err)
		}
		for _, p := range pts {
			mk := p.key
			if opts.Engine == sweep.DES {
				mk.windowStats = false
			}
			k, ok := merged[mk]
			if p.custom != nil || !ok {
				k = len(grid)
				if p.custom != nil {
					grid = append(grid, *p.custom)
				} else {
					grid = append(grid, p.key.sweepPoint(opts))
					merged[mk] = k
				}
				owner = append(owner, id)
			}
			grid[k].NeedWindowStats = grid[k].NeedWindowStats || p.key.windowStats
			owner[k] = min(owner[k], id)
			at[i] = append(at[i], k)
		}
	}
	var aggs []*simsrv.Aggregate
	if len(grid) > 0 {
		eng := sweep.Engine{Workers: opts.Workers, Kind: opts.Engine}
		var err error
		if aggs, err = eng.Run(grid); err != nil {
			// The engine's errors start "sweep: point <k>".
			var k int
			if _, scanErr := fmt.Sscanf(err.Error(), "sweep: point %d", &k); scanErr == nil && k >= 0 && k < len(owner) {
				return nil, fmt.Errorf("figure %d: %w", owner[k], err)
			}
			return nil, fmt.Errorf("figures: %w", err)
		}
	}
	figs := make([]Figure, len(ids))
	for i, id := range ids {
		own := make([]*simsrv.Aggregate, len(at[i]))
		for j, k := range at[i] {
			own[j] = aggs[k]
		}
		f, err := table[id].render(opts, own)
		if err != nil {
			return nil, fmt.Errorf("figure %d: %w", id, err)
		}
		f.ID = id
		figs[i] = f
	}
	return figs, nil
}

// curve plots y of each aggregate against xs.
func curve(name string, xs []float64, aggs []*simsrv.Aggregate, y func(*simsrv.Aggregate) float64) Series {
	s := Series{Name: name, X: slices.Clone(xs), Y: make([]float64, len(aggs))}
	for i, a := range aggs {
		s.Y[i] = y(a)
	}
	return s
}

// loadAxis is the load sweep in percent.
func loadAxis(o Options) []float64 {
	xs := make([]float64, len(o.Loads))
	for i, rho := range o.Loads {
		xs[i] = rho * 100
	}
	return xs
}

// loadSweep declares one point per (δ vector, load), δ-major.
func loadSweep(windowStats bool, groups ...[]float64) func(Options) ([]point, error) {
	return func(o Options) ([]point, error) {
		var pts []point
		for _, d := range groups {
			for _, rho := range o.Loads {
				p := point{key: key{rho: rho, bp: paperBP, windowStats: windowStats}}
				copy(p.key.deltas[:], d)
				pts = append(pts, p)
			}
		}
		return pts, nil
	}
}

// slowdowns plots each class's simulated then expected slowdown over xs,
// one aggregate per x.
func slowdowns(f *Figure, xs []float64, aggs []*simsrv.Aggregate) {
	for _, kind := range []string{"simulated", "expected"} {
		for i := range aggs[0].MeanSlowdowns {
			f.Series = append(f.Series, curve(fmt.Sprintf("Class %d (%s)", i+1, kind), xs, aggs, func(a *simsrv.Aggregate) float64 {
				if kind == "simulated" {
					return a.MeanSlowdowns[i]
				}
				return a.ExpectedSlowdowns[i]
			}))
		}
	}
}

// slowdownsByLoad is the Figure 2/3/4 layout: simulated and expected
// class slowdowns and the simulated system slowdown over the load sweep.
func slowdownsByLoad(deltas []float64) row {
	return row{
		points: loadSweep(false, deltas),
		render: func(o Options, aggs []*simsrv.Aggregate) (Figure, error) {
			f := Figure{
				Title:  fmt.Sprintf("Simulated and expected slowdowns, deltas=%v", deltas),
				XLabel: "System load (%)",
				YLabel: "Slowdown (log)",
			}
			xs := loadAxis(o)
			slowdowns(&f, xs, aggs)
			f.Series = append(f.Series, curve("System (simulated)", xs, aggs, func(a *simsrv.Aggregate) float64 { return a.SystemSlowdown }))
			return f, nil
		},
	}
}

// slowdownsByLaw is the Figure 11/12 layout: both classes' simulated and
// expected slowdowns, δ=(1,2) at 70 % load, against one parameter of the
// paper's Bounded Pareto law (index param of k, p, α) set to each of xs.
func slowdownsByLaw(head Figure, param int, xs ...float64) row {
	head.YLabel = "Slowdown (log)"
	return row{
		points: func(Options) ([]point, error) {
			pts := make([]point, len(xs))
			for i, x := range xs {
				pts[i] = point{key: key{deltas: [3]float64{1, 2}, rho: 0.7, bp: paperBP}}
				pts[i].key.bp[param] = x
			}
			return pts, nil
		},
		render: func(_ Options, aggs []*simsrv.Aggregate) (Figure, error) {
			f := head
			slowdowns(&f, xs, aggs)
			return f, nil
		},
	}
}

// ratioLabel names class i's slowdown ratio to class 1 under deltas.
func ratioLabel(deltas []float64, i int) string {
	return fmt.Sprintf("Class%d/Class1 (d%d/d1=%g)", i+1, i+1, deltas[i]/deltas[0])
}

// targetLabel names it by the target alone (Figure 5).
func targetLabel(deltas []float64, i int) string {
	return fmt.Sprintf("d%d/d1=%g", i+1, deltas[i]/deltas[0])
}

// ratiosByLoad is the Figure 5/6/9/10 layout: over the load sweep of each
// δ vector in groups, every class's achieved slowdown ratio to class 1 —
// the across-run mean, or with windowStats the p05/p50/p95 of the pooled
// per-window ratios.
func ratiosByLoad(head Figure, windowStats bool, label func([]float64, int) string, groups ...[]float64) row {
	head.XLabel = "System load (%)"
	return row{
		points: loadSweep(windowStats, groups...),
		render: func(o Options, aggs []*simsrv.Aggregate) (Figure, error) {
			f := head
			xs := loadAxis(o)
			for g, deltas := range groups {
				ga := aggs[g*len(xs) : (g+1)*len(xs)]
				for i := 1; i < len(deltas); i++ {
					name := label(deltas, i)
					if !windowStats {
						f.Series = append(f.Series, curve(name, xs, ga, func(a *simsrv.Aggregate) float64 { return a.MeanRatios[i] }))
						continue
					}
					f.Series = append(f.Series,
						curve(name+" p05", xs, ga, func(a *simsrv.Aggregate) float64 { return a.RatioSummaries[i].P05 }),
						curve(name+" p50", xs, ga, func(a *simsrv.Aggregate) float64 { return a.RatioSummaries[i].P50 }),
						curve(name+" p95", xs, ga, func(a *simsrv.Aggregate) float64 { return a.RatioSummaries[i].P95 }))
				}
			}
			return f, nil
		},
	}
}

// individualRequests is the Figure 7/8 layout: slowdowns of individual
// requests completing in [60000, 61000] at load rho, from one recorded
// run.
func individualRequests(rho float64) row {
	return row{render: func(o Options, _ []*simsrv.Aggregate) (Figure, error) {
		if o.Engine == sweep.Analytic {
			return Figure{}, fmt.Errorf("%w: individual request trajectories only exist in a simulation", analytic.ErrNeedsSimulation)
		}
		cfg := o.config([]float64{1, 2}, rho, nil)
		// The record window sits at the paper's [60000, 61000] when the
		// horizon allows; otherwise the last full window of the run.
		from := 60000.0
		if o.Warmup+o.Horizon < 61000 {
			from = o.Warmup + o.Horizon - 1000
		}
		cfg.RecordRequests = true
		cfg.RecordFrom = from
		cfg.RecordTo = from + 1000
		res, err := simsrv.Run(cfg)
		if err != nil {
			return Figure{}, err
		}
		s := []Series{{Name: "Class 1 (simulated)"}, {Name: "Class 2 (simulated)"}}
		for _, r := range res.Records {
			s[r.Class].X = append(s[r.Class].X, r.Completion)
			s[r.Class].Y = append(s[r.Class].Y, r.Slowdown)
		}
		return Figure{
			Title:  fmt.Sprintf("Slowdown of individual requests, system load %.0f%%", rho*100),
			XLabel: "Time (time unit)",
			YLabel: "Slowdown",
			Notes:  fmt.Sprintf("Requests completing in [%.0f, %.0f); single run, seed %d.", from, from+1000, cfg.Seed),
			Series: s,
		}, nil
	}}
}

// transient is Figure 13's scenario: δ=(1,2), both classes' arrival rates
// jumping from 40 % to 88 % total utilization at mid-horizon, under the
// paper's 5-window mean estimator and under EWMA smoothing.
func transient(o Options) (win, ewma simsrv.Config, stepAt float64) {
	win = o.config([]float64{1, 2}, 0.4, nil)
	stepAt = win.Warmup + o.Horizon/2
	win.LoadSchedule = workload.LoadStep(stepAt, 2.2)
	win.Estimator = control.Window
	ewma = win
	ewma.Estimator = control.EWMA
	ewma.EWMAAlpha = 0.5
	return win, ewma, stepAt
}

// transientPoints declares Figure 13, which goes beyond the paper: the
// transient response of the control plane's estimator after a load step.
// The window estimator drags its pre-step history for HistoryWindows
// windows after the shift; EWMA re-converges faster at equal steady-state
// noise — exactly the trade-off §4.4 attributes the controllability gaps
// to.
func transientPoints(o Options) ([]point, error) {
	win, ewma, _ := transient(o)
	return []point{
		{custom: &sweep.Point{Cfg: win, Runs: o.Runs, TrackWindowRatios: true}},
		{custom: &sweep.Point{Cfg: ewma, Runs: o.Runs, TrackWindowRatios: true}},
	}, nil
}

// transientRender plots the across-run mean per-window achieved S₂/S₁
// ratio (target 2) of each estimator, and the target.
func transientRender(o Options, aggs []*simsrv.Aggregate) (Figure, error) {
	win, _, stepAt := transient(o)
	f := Figure{
		Title:  "Estimator transient response after a load step (beyond the paper)",
		XLabel: "Time (time unit)",
		YLabel: "Per-window slowdown ratio (Class 2 / Class 1)",
		Notes: fmt.Sprintf("Load steps 40%%->88%% at t=%g; window = paper's 5-window mean, "+
			"ewma alpha=0.5; target ratio 2.", stepAt),
	}
	window := win.ApplyDefaults().Window
	ticks := win.Warmup - math.Mod(win.Warmup, window) // the measurement windows start at a tick
	names := []string{"window estimator", "ewma estimator"}
	for pi, agg := range aggs {
		s := Series{Name: names[pi]}
		for k, v := range agg.WindowRatioMeans[1] {
			if math.IsNaN(v) {
				continue
			}
			s.X = append(s.X, ticks+float64(k+1)*window)
			s.Y = append(s.Y, v)
		}
		f.Series = append(f.Series, s)
	}
	// Constant target line on the window-estimator series' time axis (the
	// two estimator series share the same non-empty windows in practice;
	// the line is a visual reference, not a paired comparison).
	ref := f.Series[0].X
	target := Series{Name: "target ratio", X: slices.Clone(ref), Y: make([]float64, len(ref))}
	for i := range target.Y {
		target.Y[i] = 2
	}
	f.Series = append(f.Series, target)
	return f, nil
}

// TournamentPolicies are the rival policies Figure 14 races: the paper's
// PSD, the logarithmic-weight allocator, the downgrading allocator (which
// arms the degradation ladder) and the size-aware heSRPT discipline.
var TournamentPolicies = []string{"psd", "log", "downgrade", "hesrpt"}

// tournamentDeltas are Figure 14's three classes.
var tournamentDeltas = []float64{1, 2, 4}

// tournamentCells are Figure 14's scenario cells, family-major: the
// paper's Bounded Pareto and a heavy-tailed lognormal, each under a
// sustained load step and a flash crowd.
var tournamentCells = []string{
	"BP(0.1,100,1.5) x load step", "BP(0.1,100,1.5) x flash crowd",
	"lognormal(sigma=1.5) x load step", "lognormal(sigma=1.5) x flash crowd",
}

// tournamentPoints declares Figure 14, which goes beyond the paper: a
// policy tournament over the core registry. Every policy in
// TournamentPolicies runs the same 4-cell overload grid — 3 classes
// δ=(1,2,4), base load 85 % surging to ~136 % — behind a per-point
// utilization-bound admission gate; one sweep.Tournament expansion covers
// the whole cross product. The downgrading policy's ladder holds the gate
// open until every rung is engaged, so its shed rate reads the residual
// overload degradation could not absorb; heSRPT runs on the packetized
// server behind the same gate (the simulator's skeleton owns it), so its
// shed rate is comparable and its slowdowns come from size-aware
// scheduling.
//
// Replications are pinned to 1 per point: admission controllers are
// stateful and the engine runs replications of one point concurrently,
// so each expanded point gets its own controller instance instead.
func tournamentPoints(o Options) ([]point, error) {
	// Lognormal with σ=1.5 and unit mean (μ = −σ²/2): the second
	// heavy-tail family, with all moments finite (E[1/X] included).
	lognormal, err := dist.NewLognormal(-1.125, 1.5)
	if err != nil {
		return nil, err
	}
	surgeAt := o.Warmup + o.Horizon/3
	var base []sweep.Point
	for _, svc := range []dist.Distribution{nil, lognormal} {
		for _, phases := range [][]workload.Phase{
			workload.LoadStep(surgeAt, 1.6),
			workload.FlashCrowd(surgeAt, o.Horizon/3, 1.6),
		} {
			cfg := o.config(tournamentDeltas, 0.85, svc)
			cfg.LoadSchedule = phases
			// The utilization bound sheds large jobs first, which
			// decouples admitted counts from admitted work; estimate
			// load from work so ρ̂ tracks the admitted process.
			cfg.EstimateFromWork = true
			base = append(base, sweep.Point{Cfg: cfg, Runs: 1})
		}
	}
	expanded, err := sweep.Tournament(base, TournamentPolicies)
	if err != nil {
		return nil, err
	}
	pts := make([]point, len(expanded))
	for i := range expanded {
		adm, err := admission.NewUtilizationBound(0.95, expanded[i].Cfg.ApplyDefaults().Window)
		if err != nil {
			return nil, err
		}
		expanded[i].Cfg.Admission = adm
		pts[i].custom = &expanded[i]
	}
	return pts, nil
}

// tournamentRender plots three series per policy over the scenario cells
// (X = 1..4 in tournamentCells order):
//
//	ratio error:    mean over classes of |achieved ratio / target − 1|
//	mean slowdown:  the arrival-weighted system slowdown
//	shed rate:      fraction of arrivals dropped by admission
func tournamentRender(o Options, aggs []*simsrv.Aggregate) (Figure, error) {
	d := tournamentDeltas
	f := Figure{
		Title:  "Policy tournament under overload (beyond the paper)",
		XLabel: "Scenario cell",
		YLabel: "Ratio error / slowdown / shed rate",
		Notes: fmt.Sprintf("Cells: %v. deltas=(1,2,4), base load 85%%, surge x1.6 at t=%g; "+
			"utilization-bound admission (bound 0.95); 1 run per cell. "+
			"heSRPT runs packetized behind the same gate.",
			tournamentCells, o.Warmup+o.Horizon/3),
	}
	cells := make([]float64, len(tournamentCells))
	for ci := range cells {
		cells[ci] = float64(ci + 1)
	}
	for pi, name := range TournamentPolicies {
		pa := aggs[pi*len(cells) : (pi+1)*len(cells)]
		f.Series = append(f.Series,
			curve(name+" ratio error", cells, pa, func(a *simsrv.Aggregate) float64 {
				var errSum float64
				for i := 1; i < len(d); i++ {
					errSum += math.Abs(a.MeanRatios[i]/(d[i]/d[0]) - 1)
				}
				return errSum / float64(len(d)-1)
			}),
			curve(name+" mean slowdown", cells, pa, func(a *simsrv.Aggregate) float64 { return a.SystemSlowdown }),
			curve(name+" shed rate", cells, pa, func(a *simsrv.Aggregate) float64 { return a.MeanShedRate }))
	}
	return f, nil
}
