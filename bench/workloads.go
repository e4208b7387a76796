package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"psd/internal/analytic"
	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/figures"
	"psd/internal/rng"
	"psd/internal/simsrv"
	"psd/internal/sweep"
	"psd/internal/workload"
)

// env is what a workload is built from. The program under test sees only
// inputs generated from seed.
type env struct {
	seed    uint64
	seconds float64 // length of the measured section
	scale   float64 // 1 = the sizes README.md records; bench_test.go shrinks it
	workers int     // sweep pool size; 0 = GOMAXPROCS
	procs   int     // GOMAXPROCS, and the live workloads' client count
}

// scaled shrinks a full-size quantity by env.scale, never below floor.
func (e env) scaled(full, floor float64) float64 {
	return math.Max(floor, math.Round(full*e.scale))
}

// round is one block of fixed work inside the measured section.
type round struct {
	wallNs float64
	cpuNs  float64 // process CPU over the block
	ops    float64
	opNs   float64 // what one operation cost the caller in this block
	traced bool
}

// measurement is everything one measured section produced.
type measurement struct {
	rounds    []round
	latUs     []float64 // caller-observed time of each call into the workload's entry point
	ovhUs     []float64 // that time minus what the program's own model accounts for
	attempted int64
	failed    int64
	problems  []string           // the first few failed checks, for the report
	layer     map[string]float64 // per-layer values only this workload can report
	counts    map[string]float64 // per-round operation counts for the ledger
}

func newMeasurement() *measurement {
	return &measurement{layer: map[string]float64{}, counts: map[string]float64{}}
}

// fail records failed operations and keeps the first few reasons.
func (m *measurement) fail(n int64, format string, args ...any) {
	m.failed += n
	if len(m.problems) < 8 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// runner is one named workload. setup is everything before the
// measured section — input generation, servers, warm-up — and is timed as
// setup_s; teardown undoes it so that setup can run again.
type runner interface {
	setup() error
	measure(tr *tracer) (*measurement, error)
	teardown()
}

func newRunner(name string, e env) (runner, error) {
	switch name {
	case "fig-des":
		return &figDES{env: e}, nil
	case "sim-transient":
		return &simTransient{env: e}, nil
	case "sweep-analytic":
		return &sweepAnalytic{env: e}, nil
	case "live-http":
		return &liveHTTP{env: e}, nil
	case "live-paced":
		return &livePaced{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// runRounds repeats one — a round of fixed work — until the measured
// section has lasted e.seconds, at least twice. With a tracer, odd rounds
// run traced and even rounds untraced, so both sides of
// bench.trace_overhead_share see the same box.
func (e env) runRounds(m *measurement, tr *tracer, one func(i, parent int) (ops float64, err error)) error {
	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds() < e.seconds; i++ {
		traced := tr != nil && i%2 == 1
		tr.enable(traced)
		root := tr.begin("round", -1)
		c0, t0 := cpuNow(), time.Now()
		ops, err := one(i, root)
		wall := float64(time.Since(t0))
		cpu := cpuNow() - c0
		tr.end(root)
		if err != nil {
			return err
		}
		m.rounds = append(m.rounds, round{wallNs: wall, cpuNs: cpu, ops: ops, opNs: wall / ops, traced: traced})
	}
	return nil
}

// call times one call into a batch workload's entry point. The program's
// model accounts for none of a batch call's wall time, so its overhead
// is its latency.
func (m *measurement) call(f func() error) error {
	t0 := time.Now()
	err := f()
	us := float64(time.Since(t0)) / 1e3
	m.latUs = append(m.latUs, us)
	m.ovhUs = append(m.ovhUs, us)
	return err
}

// mirror replays every replication of a resolved grid on one goroutine
// and one arena, the way a sweep worker does. It returns the exact event
// and control-tick counts and the summed single-goroutine time, against
// which the parallel engine's wall time gives sweep.efficiency.
func mirror(points []sweep.Point) (events, ticks, reps, ns float64, err error) {
	var sim simsrv.Simulator
	var res simsrv.Result
	for i := range points {
		p := &points[i]
		for rep := 0; rep < p.Runs; rep++ {
			seed := simsrv.ReplicationSeed(p.Cfg.Seed, rep)
			t0 := time.Now()
			switch {
			case p.Trace != nil:
				err = sim.ResetTrace(p.Cfg, p.Trace, seed)
			case p.Packetized:
				err = sim.ResetPacketized(simsrv.PacketizedConfig{Config: p.Cfg, NewScheduler: p.NewScheduler}, seed)
			default:
				err = sim.Reset(p.Cfg, seed)
			}
			if err == nil {
				err = sim.RunInto(&res)
			}
			if err != nil {
				return 0, 0, 0, 0, fmt.Errorf("mirror point %d rep %d: %w", i, rep, err)
			}
			ns += float64(time.Since(t0))
			events += float64(res.EventsProcessed)
			ticks += float64(res.Reallocations + res.AllocFailures)
			reps++
		}
	}
	return events, ticks, reps, ns, nil
}

// sweepLayer fills the sweep.* and count metrics of a DES workload from
// a single-goroutine mirror of its grid.
func (e env) sweepLayer(m *measurement, points []sweep.Point, wantEvents float64) error {
	events, ticks, reps, ns, err := mirror(points)
	if err != nil {
		return err
	}
	if events != wantEvents {
		m.fail(1, "single-goroutine mirror processed %.0f events, the engine %.0f", events, wantEvents)
	}
	var walls []float64
	for _, r := range m.rounds {
		if !r.traced {
			walls = append(walls, r.wallNs)
		}
	}
	workers := float64(e.poolSize())
	busy := median(walls) * workers
	m.layer["simsrv.events"] = events
	m.layer["control.ticks"] = ticks
	m.layer["sweep.efficiency"] = ns / busy
	m.layer["sweep.overhead_us_per_rep"] = (busy - ns) / reps / 1e3
	m.counts["events"] = events
	m.counts["ticks"] = ticks
	m.counts["reps"] = reps
	return nil
}

func (e env) poolSize() int {
	if e.workers > 0 {
		return e.workers
	}
	return e.procs
}

// ---------------------------------------------------------------- fig-des

// figLoads is the paper's load sweep (and figures.Options' default). The
// bench passes it explicitly because it rebuilds Figure 2's grid itself.
var figLoads = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}

var figDeltas = []float64{1, 2}

// Model agreement, |sim−expected|/expected. At the paper's 100 runs the
// worst point of Figure 2 is 0.13 off. A round here has 8 runs, where
// single points at 5 % and 95 % load stray as far as 1.06 (30 seeds), so
// the figure as a whole is held to a median gap (worst seen: 0.17) and
// each point only to a factor of four.
const (
	figMedianGap = 0.30
	figPointGap  = 3.0
)

// figDES is the "CLI flags in → figure CSV out" path: Figure 2 through
// the DES at the paper's horizon, then WriteCSV. Every round uses the
// same seed, so every round is the same work and must print the same
// bytes.
type figDES struct {
	env
	opts   figures.Options
	grid   []sweep.Point // Figure 2's grid, rebuilt from the same options
	ref    []*simsrv.Aggregate
	events float64
	csv    bytes.Buffer
}

func (w *figDES) setup() error {
	w.opts = figures.Defaults()
	w.opts.Runs = int(w.scaled(8, 1))
	w.opts.Horizon = w.scaled(w.opts.Horizon, 3000)
	w.opts.Warmup = w.scaled(w.opts.Warmup, 1000)
	w.opts.Loads = figLoads
	w.opts.Seed = w.seed
	w.opts.Workers = w.workers
	w.opts.Engine = sweep.DES
	w.grid = make([]sweep.Point, len(figLoads))
	for i, rho := range figLoads {
		cfg := simsrv.EqualLoadConfig(figDeltas, rho, nil)
		cfg.Warmup, cfg.Horizon, cfg.Seed = w.opts.Warmup, w.opts.Horizon, w.opts.Seed
		w.grid[i] = sweep.Point{Cfg: cfg, Runs: w.opts.Runs}
	}
	// The warm-up is the grid itself, through the engine: it pages the
	// arenas in and yields the event count and the values every round's
	// figure must reproduce (figures.Generate returns neither).
	eng := sweep.Engine{Workers: w.workers}
	ref, err := eng.Run(w.grid)
	if err != nil {
		return fmt.Errorf("fig-des warm-up: %w", err)
	}
	w.ref, w.events = ref, 0
	for _, a := range ref {
		w.events += float64(a.EventsProcessed)
	}
	return nil
}

func (w *figDES) teardown() {}

func (w *figDES) measure(tr *tracer) (*measurement, error) {
	m := newMeasurement()
	var first uint64
	var fig figures.Figure
	err := w.runRounds(m, tr, func(i, parent int) (float64, error) {
		err := m.call(func() error {
			s := tr.begin("figures.Generate", parent)
			f, err := figures.Generate(2, w.opts)
			tr.end(s)
			if err != nil {
				return err
			}
			fig = f
			w.csv.Reset()
			s = tr.begin("figures.WriteCSV", parent)
			err = figures.WriteCSV(&w.csv, f)
			tr.end(s)
			return err
		})
		if err != nil {
			return 0, err
		}
		h := fnv.New64a()
		h.Write(w.csv.Bytes())
		if i == 0 {
			first = h.Sum64()
		} else if h.Sum64() != first {
			m.fail(1, "round %d printed CSV %016x, round 0 printed %016x under the same seed", i, h.Sum64(), first)
		}
		w.check(m, fig)
		return w.events, nil
	})
	if err != nil {
		return nil, err
	}
	points := 0
	for _, s := range fig.Series {
		points += len(s.Y)
	}
	var ratioErr float64
	for _, a := range w.ref {
		ratioErr = math.Max(ratioErr, math.Abs(a.MeanRatios[1]/(figDeltas[1]/figDeltas[0])-1))
	}
	m.layer["figures.points"] = float64(points)
	m.layer["figures.csv_fnv64"] = float64(first & (1<<48 - 1)) // 48 bits survive a float64
	m.layer["simsrv.ratio_err_max"] = ratioErr
	m.layer["des.pending_max"] = float64(2*len(figDeltas) + 2)
	m.counts["csvs"] = 1
	if tr != nil {
		if err := w.sweepLayer(m, w.grid, w.events); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// check holds one round's figure against the warm-up run of the same
// grid (exactly), Eq. 18 (to 1e-9) and the model-agreement tolerance.
// Each simulated point is one attempted operation.
func (w *figDES) check(m *measurement, fig figures.Figure) {
	wl, err := core.WorkloadFromDist(dist.PaperDefault())
	if err != nil {
		m.fail(1, "paper workload moments: %v", err)
		return
	}
	nc := len(figDeltas)
	var gaps []float64
	if len(fig.Series) != 2*nc+1 {
		m.attempted++
		m.fail(1, "figure 2 has %d series, want %d", len(fig.Series), 2*nc+1)
		return
	}
	for li, rho := range figLoads {
		classes := make([]core.Class, nc)
		for i, d := range figDeltas {
			classes[i] = core.Class{Delta: d, Lambda: w.grid[li].Cfg.Classes[i].Lambda}
		}
		for i := 0; i < nc; i++ {
			m.attempted++
			sim, exp := fig.Series[i], fig.Series[nc+i]
			if len(sim.Y) != len(figLoads) || len(exp.Y) != len(figLoads) || sim.X[li] != rho*100 {
				m.fail(1, "figure 2 series %q does not cover the load sweep", sim.Name)
				continue
			}
			eq18, err := core.ExpectedSlowdown(classes, wl, i)
			gap := math.Abs(sim.Y[li]-eq18) / eq18
			gaps = append(gaps, gap)
			switch {
			case err != nil:
				m.fail(1, "Eq. 18 at load %g class %d: %v", rho, i+1, err)
			case sim.Y[li] != w.ref[li].MeanSlowdowns[i]:
				m.fail(1, "load %g class %d: figure says %v, the same grid through the engine said %v", rho, i+1, sim.Y[li], w.ref[li].MeanSlowdowns[i])
			case math.Abs(exp.Y[li]-eq18) > 1e-9*eq18:
				m.fail(1, "load %g class %d: expected series %v is off Eq. 18 (%v)", rho, i+1, exp.Y[li], eq18)
			case w.scale == 1 && !(gap <= figPointGap):
				m.fail(1, "load %g class %d: simulated %v vs expected %v, gap above %g", rho, i+1, sim.Y[li], eq18, figPointGap)
			}
		}
	}
	if g := median(gaps); w.scale == 1 && !(g <= figMedianGap) {
		var off int64 // the points that drag the median up and have not failed above
		for _, gap := range gaps {
			if gap > figMedianGap && gap <= figPointGap {
				off++
			}
		}
		m.fail(off, "median |sim-expected|/expected over the figure is %.3f, above %g", g, figMedianGap)
	}
}

// ---------------------------------------------------------- sim-transient

var transientPolicies = []string{"psd", "log", "downgrade", "hesrpt", "ppsd"}

// simTransient drives the same DES the other way: a control tick every
// 10 tu, cancel+redraw at every phase switch, the packetized schedulers
// and the degradation ladder, plus one trace replay.
type simTransient struct {
	env
	points []sweep.Point
	ref    []*simsrv.Aggregate
	events float64
	trace  int // requests in the replayed trace
}

func (w *simTransient) setup() error {
	horizon := w.scaled(6000, 300)
	warmup := w.scaled(1000, 100)
	var base []sweep.Point
	for _, deltas := range [][]float64{{1, 2, 4}, {1, 2, 3, 4, 5, 6, 7, 8}} {
		nc := len(deltas)
		schedules := [][]simsrv.LoadPhase{
			simsrv.FlashCrowd(warmup+horizon/3, horizon/5, 1.5),
			// hi + (nc−1)·lo = nc keeps the offered load constant.
			simsrv.ClassMixChurn(nc, warmup, 200, int(horizon/200), 2, float64(nc-2)/float64(nc-1)),
		}
		for _, sc := range schedules {
			for _, est := range []control.EstimatorKind{control.Window, control.EWMA} {
				cfg := simsrv.EqualLoadConfig(deltas, 0.7, nil)
				cfg.Window = 10
				cfg.Warmup, cfg.Horizon, cfg.Seed = warmup, horizon, w.seed
				cfg.Estimator = est
				cfg.Feedback = true
				cfg.LoadSchedule = sc
				base = append(base, sweep.Point{Cfg: cfg, Runs: 1})
			}
		}
	}
	points, err := sweep.Tournament(base, transientPolicies)
	if err != nil {
		return fmt.Errorf("sim-transient grid: %w", err)
	}
	for i := range points {
		// ppsd's weights are meant for the packetized server; without
		// this the SCFQ scheduler would never run.
		if points[i].Policy == "ppsd" {
			points[i].Packetized = true
		}
	}
	tp, err := w.tracePoint(warmup, horizon)
	if err != nil {
		return fmt.Errorf("sim-transient trace: %w", err)
	}
	w.points = append(points, tp)
	eng := sweep.Engine{Workers: w.workers}
	if w.ref, err = eng.Run(w.points); err != nil {
		return fmt.Errorf("sim-transient warm-up: %w", err)
	}
	w.events = 0
	for _, a := range w.ref {
		w.events += float64(a.EventsProcessed)
	}
	return nil
}

// tracePoint generates a session trace at about 60 % load and wraps it
// as a replay point. The session rate that gives that load comes from a
// first, short generation: offered work is linear in it.
func (w *simTransient) tracePoint(warmup, horizon float64) (sweep.Point, error) {
	deltas := []float64{1, 2, 4}
	probs := []float64{0.5, 0.3, 0.2}
	total := warmup + horizon
	generate := func(rate, span float64) ([]workload.Request, error) {
		gen, err := workload.NewGenerator(workload.DefaultModel(), rate, probs, rng.New(w.seed))
		if err != nil {
			return nil, err
		}
		return gen.Generate(span)
	}
	pilot, err := generate(1, 500)
	if err != nil {
		return sweep.Point{}, err
	}
	mean, _, _, err := workload.SizeMoments(pilot)
	if err != nil {
		return sweep.Point{}, err
	}
	reqs, err := generate(0.6/(mean*float64(len(pilot))/500), total)
	if err != nil {
		return sweep.Point{}, err
	}
	rates, err := workload.ClassRates(reqs, len(deltas), total)
	if err != nil {
		return sweep.Point{}, err
	}
	sizes := make([]float64, len(reqs))
	trace := make([]simsrv.TraceRequest, len(reqs))
	for i, r := range reqs {
		sizes[i] = r.Size
		trace[i] = simsrv.TraceRequest{Time: r.Time, Class: r.Class, Size: r.Size}
	}
	// The allocator differentiates against the sizes that were generated.
	svc, err := dist.NewEmpirical(sizes)
	if err != nil {
		return sweep.Point{}, err
	}
	classes := make([]simsrv.ClassConfig, len(deltas))
	for i, d := range deltas {
		classes[i] = simsrv.ClassConfig{Delta: d, Lambda: rates[i]}
	}
	w.trace = len(trace)
	cfg := simsrv.Config{Classes: classes, Service: svc, Window: 10, Warmup: warmup, Horizon: horizon, Seed: w.seed}
	return sweep.Point{Cfg: cfg, Runs: 1, Trace: trace}, nil
}

func (w *simTransient) teardown() {}

func (w *simTransient) measure(tr *tracer) (*measurement, error) {
	m := newMeasurement()
	eng := sweep.Engine{Workers: w.workers}
	err := w.runRounds(m, tr, func(i, parent int) (float64, error) {
		var aggs []*simsrv.Aggregate
		err := m.call(func() error {
			s := tr.begin("sweep.Engine.Run", parent)
			var err error
			aggs, err = eng.Run(w.points)
			tr.end(s)
			return err
		})
		if err != nil {
			return 0, err
		}
		w.check(m, i, aggs)
		return w.events, nil
	})
	if err != nil {
		return nil, err
	}
	var ratioErr, pk float64
	var ev analytic.Evaluator
	var res analytic.Evaluation
	refused := 0
	for i := range w.points {
		p := &w.points[i]
		a := w.ref[i]
		for c := 1; c < len(p.Cfg.Classes); c++ {
			target := p.Cfg.Classes[c].Delta / p.Cfg.Classes[0].Delta
			ratioErr = math.Max(ratioErr, math.Abs(a.MeanRatios[c]/target-1))
		}
		if p.Packetized {
			pk += float64(a.EventsProcessed)
		}
		if p.Packetized || p.Trace != nil || ev.EvaluateInto(&res, p.Cfg) != nil {
			refused++
		}
	}
	m.layer["simsrv.ratio_err_max"] = ratioErr
	m.layer["analytic.refused_share"] = float64(refused) / float64(len(w.points))
	m.layer["des.pending_max"] = 2*8 + 2
	m.counts["pk_events"] = pk
	m.counts["trace_reqs"] = float64(w.trace)
	if tr != nil {
		if err := w.sweepLayer(m, w.points, w.events); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// check counts each grid point as one operation: it fails when it is not
// a finite, simulated result or differs from the warm-up run of the same
// seed in any statistic.
func (w *simTransient) check(m *measurement, roundNo int, aggs []*simsrv.Aggregate) {
	for i, a := range aggs {
		m.attempted++
		ref := w.ref[i]
		switch {
		case a.EventsProcessed == 0 || !(a.SystemSlowdown > 0) || math.IsInf(a.SystemSlowdown, 0):
			m.fail(1, "point %d (%s): %d events, system slowdown %v", i, w.points[i].Policy, a.EventsProcessed, a.SystemSlowdown)
		case a.EventsProcessed != ref.EventsProcessed || a.SystemSlowdown != ref.SystemSlowdown || !sameFloats(a.MeanSlowdowns, ref.MeanSlowdowns):
			m.fail(1, "round %d point %d (%s) differs from the warm-up run of the same seed", roundNo, i, w.points[i].Policy)
		}
	}
}

// sameFloats compares bit for bit, so that NaN equals NaN.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// --------------------------------------------------------- sweep-analytic

// sweepAnalytic is a capacity study the closed forms answer alone:
// class count × δ set × load × every analytic-eligible policy, through
// the Auto router. The DES must process no event.
type sweepAnalytic struct {
	env
	points []sweep.Point
}

func (w *sweepAnalytic) setup() error {
	var policies []string
	for _, p := range core.Policies() {
		if p.Caps.AnalyticEligible {
			policies = append(policies, p.Name)
		}
	}
	loads := int(w.scaled(200, 2))
	w.points = w.points[:0]
	for nc := 2; nc <= 8; nc++ {
		sets := [3][]float64{make([]float64, nc), make([]float64, nc), make([]float64, nc)}
		for i := 0; i < nc; i++ {
			sets[0][i] = float64(i + 1)
			sets[1][i] = math.Pow(2, float64(i))
			sets[2][i] = 1 + 0.5*float64(i)
		}
		for _, deltas := range sets {
			for k := 0; k < loads; k++ {
				rho := 0.05 + 0.9*float64(k)/float64(loads-1)
				cfg := simsrv.EqualLoadConfig(deltas, rho, nil)
				cfg.Seed = w.seed
				for _, name := range policies {
					w.points = append(w.points, sweep.Point{Cfg: cfg, Runs: 1, Policy: name})
				}
			}
		}
	}
	eng := sweep.Engine{Kind: sweep.Auto, Workers: w.workers}
	if _, err := eng.Run(w.points); err != nil {
		return fmt.Errorf("sweep-analytic warm-up: %w", err)
	}
	return nil
}

func (w *sweepAnalytic) teardown() {}

func (w *sweepAnalytic) measure(tr *tracer) (*measurement, error) {
	m := newMeasurement()
	eng := sweep.Engine{Kind: sweep.Auto, Workers: w.workers}
	wl, err := core.WorkloadFromDist(dist.PaperDefault())
	if err != nil {
		return nil, err
	}
	err = w.runRounds(m, tr, func(i, parent int) (float64, error) {
		var aggs []*simsrv.Aggregate
		err := m.call(func() error {
			s := tr.begin("sweep.Engine.Run", parent)
			var err error
			aggs, err = eng.Run(w.points)
			tr.end(s)
			return err
		})
		if err != nil {
			return 0, err
		}
		w.check(m, i, aggs, wl)
		return float64(len(w.points)), nil
	})
	if err != nil {
		return nil, err
	}
	m.counts["points"] = float64(len(w.points))
	return m, nil
}

// check counts each point as one operation. Every point must have cost
// zero DES events; a sample that moves with the round number is derived
// again from the policy's own allocation through core.SlowdownUnderRates,
// and PSD points from Eq. 18 itself.
func (w *sweepAnalytic) check(m *measurement, roundNo int, aggs []*simsrv.Aggregate, wl core.Workload) {
	m.attempted += int64(len(aggs))
	const stride = 53
	for i, a := range aggs {
		if a.EventsProcessed != 0 {
			m.fail(1, "point %d (%s) cost %d DES events on the analytic path", i, w.points[i].Policy, a.EventsProcessed)
			continue
		}
		if (i+roundNo)%stride != 0 {
			continue
		}
		p := &w.points[i]
		classes := make([]core.Class, len(p.Cfg.Classes))
		for c, cc := range p.Cfg.Classes {
			classes[c] = core.Class{Delta: cc.Delta, Lambda: cc.Lambda}
		}
		alloc, err := p.Cfg.Allocator.Allocate(classes, wl)
		if err != nil {
			m.fail(1, "point %d (%s): allocate: %v", i, p.Policy, err)
			continue
		}
		want, err := core.SlowdownUnderRates(classes, wl, alloc.Rates)
		if err != nil {
			m.fail(1, "point %d (%s): slowdown under rates: %v", i, p.Policy, err)
			continue
		}
		for c := range want {
			if p.Policy == "psd" {
				if eq18, err := core.ExpectedSlowdown(classes, wl, c); err == nil {
					want[c] = eq18
				}
			}
			if math.Abs(a.MeanSlowdowns[c]-want[c]) > 1e-9*want[c] {
				m.fail(1, "point %d (%s) class %d: router says %v, re-derived %v", i, p.Policy, c+1, a.MeanSlowdowns[c], want[c])
				break
			}
		}
	}
}
