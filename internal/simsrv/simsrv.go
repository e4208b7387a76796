// Package simsrv implements the paper's simulation model (§4.1, Fig. 1):
// an Internet server of normalized capacity 1 driven by per-class request
// generators with Bounded Pareto (or any dist.Distribution) job sizes,
// with a windowed load estimator and a pluggable processing-rate
// allocator.
//
// Fig. 1 is drawn once. One event skeleton (runner) owns what the picture
// shares — the generators and their streams, the admission gate and
// degradation ladder, the estimate→allocate control tick, the per-class
// metrics — and two things plug into it:
//
//   - the service model, the "server" box §2.2 swaps: N task servers each
//     pacing its class at the allocated rate (Reset; strictly partitioned,
//     or work-conserving as an ablation), or one full-speed processor
//     behind a weighted-fair scheduler from internal/sched
//     (ResetPacketized);
//   - the arrival source: Poisson generators, their piecewise-constant
//     LoadSchedule modulation, or a replayed trace (ResetTrace).
//
// Every source reaches every model through the same admit → observe →
// accept path, so any combination has the gate, the ladder and the
// request records. The control tick is the live server's control.Loop,
// set by the control.Spec that Config embeds.
//
// Timing conventions follow the paper: one time unit is the processing
// time of an average-size request at full capacity when the size law is
// normalized to mean 1; more generally the server drains 1 work unit per
// time unit and sizes are in work units. Rates are reallocated every
// Window time units from the mean load of the past HistoryWindows windows;
// the simulator warms up for Warmup time units and then measures for
// Horizon time units; per-class slowdown is also aggregated per window for
// the predictability analysis (Figures 5–8). A measurement window is the
// control window: the tick that reallocates also closes the window's
// slowdown batch, whose mean is the window's ClassStats.WindowMeans entry
// (which says where the windows fall when Warmup is not a multiple of
// Window).
//
// The execution engine is arena-based: a Simulator owns every buffer a
// replication needs (event set, request rings, estimator ring, per-class
// statistics, allocator scratch, the packetized scheduler) and replays
// them across replications via Reset+RunInto with single-digit heap
// allocations per run. Run and RunTrace are conveniences over that arena;
// internal/sweep shards whole scenario grids over a pool of them.
//
// Between two control boundaries (tick, phase switch, end of run) the
// partitioned model is N independent M/G/1 FCFS queues at fixed rates,
// and RunInto steps it that way: one class at a time, finishing each
// request when it arrives by Lindley's recursion (start = max(arrival,
// server free), completion = start + size/rate) unless it would cross the
// boundary, then the boundary through the event set. That class kernel
// calls nothing between buffer refills: each class draws its arrival
// gaps and job sizes ahead into small fixed buffers in the arena, and
// keeps what its requests add up to (slowdown batch, delay and service
// sums, feedback sums, the loop's open-window count and work) in locals
// that it writes back once per boundary. The shared-server models,
// admission, trace replay and request recording couple the classes at
// every event and run one global (time, seq) scan instead, reading
// through the same buffers and recording through the same routine. Both
// give the same Result to the last bit (FuzzClassSteppingVsScan).
package simsrv

import (
	"errors"
	"fmt"
	"math"

	"psd/internal/admission"
	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/des"
	"psd/internal/dist"
	"psd/internal/obs"
	"psd/internal/rng"
	"psd/internal/stats"
)

// ClassConfig declares one request class.
type ClassConfig struct {
	// Delta is the differentiation parameter δ (smaller = better).
	Delta float64
	// Lambda is the Poisson arrival rate, requests per time unit.
	Lambda float64
	// Service optionally overrides the shared size distribution for this
	// class (nil = use Config.Service). Per-class laws exercise the
	// PSD-vs-PDD divergence; the paper's own experiments share one law.
	Service dist.Distribution
}

// Config parametrizes one simulation run. Zero fields take the paper's
// defaults via ApplyDefaults.
type Config struct {
	Classes []ClassConfig
	// Service is the shared job-size distribution (default: the paper's
	// BP(0.1, 100, 1.5)).
	Service dist.Distribution
	// Spec is the control loop's knobs, shared with httpsrv.Config. Its
	// MinRate defaults to no floor here. The packetized model ignores
	// Feedback: it runs the loop open-loop.
	control.Spec
	// Window is the estimation/reallocation/measurement period (default
	// 1000 time units, §4.1).
	Window float64
	// Warmup is the discarded initial period (default 10000, §4.1).
	Warmup float64
	// Horizon is the measured duration after warmup (default 60000,
	// §4.1).
	Horizon float64
	// Seed selects the replication's random streams.
	Seed uint64
	// WorkConserving redistributes idle classes' capacity among busy
	// classes GPS-style. The paper's model is strictly partitioned
	// (false), which is what the closed forms assume; true is an
	// ablation.
	WorkConserving bool
	// Oracle feeds the allocator the true arrival rates instead of the
	// estimator's measurements, isolating estimation error (§4.4
	// attributes controllability gaps at large δ ratios to it).
	Oracle bool
	// ServiceFloor floors the rate of any class with backlog, after the
	// allocator, so no in-flight request is stranded by a zero allocation
	// (default 1e-4; negative disables it).
	ServiceFloor float64
	// LoadSchedule modulates the Poisson arrival rates over time as a
	// piecewise-constant phase sequence (load step, flash crowd,
	// class-mix churn — see LoadStep, FlashCrowd, ClassMixChurn). Empty
	// means stationary arrivals, the paper's model. Phase switches
	// exploit exponential memorylessness: each pending arrival is
	// redrawn at the new rate, so the process is an exact
	// piecewise-homogeneous Poisson process. Ignored by trace replay,
	// whose arrivals are externally given.
	LoadSchedule []LoadPhase
	// Admission optionally guards the door (related work §5): arrivals
	// it rejects are dropped and counted per class instead of queued.
	// Required to keep Eq. 17 feasible under sustained overload (ρ ≥ 1).
	Admission admission.Controller
	// RecordRequests captures every measured request's slowdown record
	// between RecordFrom and RecordTo (absolute simulation time), for the
	// short-timescale Figures 7–8.
	RecordRequests       bool
	RecordFrom, RecordTo float64
	// Recorder, when non-nil, flight-records every control tick (λ̂,
	// rates, effective δ, failure flags) through the shared control.Loop
	// hook — the same recorder type the live server dumps at
	// /debug/control, dumpable here via psdsim -flightrec. The run resets
	// it, so one recorder holds exactly the configured replication's tail
	// of ticks. Do not share one recorder across concurrent simulators
	// (internal/sweep replications run in parallel; attach a recorder to
	// a dedicated single run instead).
	Recorder *obs.FlightRecorder
}

// ApplyDefaults fills unset fields with the paper's §4.1 values and
// returns the completed config.
func (c Config) ApplyDefaults() Config {
	c.applyDefaults()
	return c
}

// Prepare is ApplyDefaults followed by Validate, in place: the form for a
// caller that owns the Config and handles one per grid point, where the
// by-value pair costs four copies of the struct.
func (c *Config) Prepare() error {
	c.applyDefaults()
	return c.validate()
}

func (c *Config) applyDefaults() {
	if c.Service == nil {
		c.Service = dist.PaperDefault()
	}
	c.Spec.ApplyDefaults()
	if c.Window == 0 {
		c.Window = 1000
	}
	if c.Warmup == 0 {
		c.Warmup = 10000
	}
	if c.Horizon == 0 {
		c.Horizon = 60000
	}
	if c.ServiceFloor == 0 {
		c.ServiceFloor = 1e-4
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error { return c.validate() }

func (c *Config) validate() error {
	if len(c.Classes) == 0 {
		return errors.New("simsrv: no classes configured")
	}
	for i, cl := range c.Classes {
		if !(cl.Delta > 0) {
			return fmt.Errorf("simsrv: class %d delta %v must be positive", i, cl.Delta)
		}
		if cl.Lambda < 0 || math.IsNaN(cl.Lambda) || math.IsInf(cl.Lambda, 0) {
			return fmt.Errorf("simsrv: class %d lambda %v invalid", i, cl.Lambda)
		}
	}
	if !(c.Window > 0) || !(c.Horizon > 0) || !(c.Warmup >= 0) || math.IsInf(c.Horizon, 0) || math.IsInf(c.Warmup, 0) {
		return fmt.Errorf("simsrv: window=%v warmup=%v horizon=%v: need window > 0, finite horizon > 0 and finite warmup >= 0",
			c.Window, c.Warmup, c.Horizon)
	}
	if c.RecordRequests && !(c.RecordTo > c.RecordFrom) {
		return fmt.Errorf("simsrv: record range [%v, %v) empty", c.RecordFrom, c.RecordTo)
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	return validateSchedule(c.LoadSchedule, len(c.Classes))
}

// EqualLoadConfig builds the paper's standard scenario: len(deltas)
// classes with the given δ values, all offering the same load, with total
// utilization rho under the given (or default) size law.
func EqualLoadConfig(deltas []float64, rho float64, service dist.Distribution) Config {
	if service == nil {
		service = dist.PaperDefault()
	}
	classes := make([]ClassConfig, len(deltas))
	perClass := rho / (float64(len(deltas)) * service.Mean())
	for i, d := range deltas {
		classes[i] = ClassConfig{Delta: d, Lambda: perClass}
	}
	return Config{Classes: classes, Service: service}
}

// RequestRecord is one measured request, for short-timescale analysis.
type RequestRecord struct {
	Class        int
	Arrival      float64
	ServiceStart float64
	Completion   float64
	Size         float64
	Slowdown     float64
}

// ClassStats aggregates one class's measured requests in one run.
type ClassStats struct {
	Count int64
	// Rejected counts arrivals dropped by the admission controller
	// (zero without one).
	Rejected     int64
	MeanSlowdown float64
	StdSlowdown  float64
	MaxSlowdown  float64
	MeanDelay    float64
	MeanService  float64
	// WindowMeans[i] is the mean slowdown of the measured requests that
	// completed in measurement window i (NaN when none did). A
	// measurement window is the control window: the span between two
	// ticks, or between a tick and the end of the run, reported when it
	// reaches past Warmup and starts before the end. With Warmup a
	// multiple of Window, window i is [Warmup + i·Window, Warmup +
	// (i+1)·Window) cut at the end, ⌈Horizon/Window⌉ windows in all.
	// Otherwise the first runs from Warmup to the next tick: with Warmup
	// 1500, Window 1000 and Horizon 20000 they are [1500, 2000), [2000,
	// 3000), …, [21000, 21500), 21 windows (⌈(Warmup mod Window +
	// Horizon)/Window⌉ in general).
	// A request counts in the window that was open when it completed. One
	// that completes exactly on a tick counts in the window the tick
	// closes if its completion fired first, having been armed before the
	// tick was — on a partitioned task server, a job in service at the
	// previous tick, whose completion that tick re-armed before arming
	// this one — and in the next window otherwise.
	WindowMeans []float64
}

// Result is the outcome of one replication. A Result is a reusable
// buffer: RunInto overwrites every field, reusing slice capacity, so one
// Result can absorb thousands of replications without reallocating.
type Result struct {
	Classes []ClassStats
	// SystemSlowdown is the arrival-weighted mean slowdown across
	// classes (the "achieved system slowdown" of Figure 2).
	SystemSlowdown float64
	// ExpectedSlowdowns holds the Eq. 18 model predictions under the
	// true arrival rates, for sim-vs-model comparison (NaN if the
	// allocator is not PSD or the prediction is unavailable).
	ExpectedSlowdowns []float64
	// FinalRates is the last allocation in effect.
	FinalRates []float64
	// Reallocations counts allocator invocations that succeeded.
	Reallocations int
	// AllocFailures counts windows where the allocator errored and the
	// previous rates were retained.
	AllocFailures int
	// EventsProcessed counts model events — arrivals, completions, control
	// ticks, phase switches, trace entries — whether the event set fired
	// them or the partitioned model's class stepping handled them in place
	// (for performance tracking; the two count alike).
	EventsProcessed uint64
	// LadderEngagedAt is the sim time the downgrading allocator's
	// degradation ladder first stepped off level 0 (NaN when the run used
	// no ladder or it never engaged). Only core.Downgrading arms the
	// ladder; see control.Loop.Reset.
	LadderEngagedAt float64
	// FirstShedAt is the sim time of the first admission rejection (NaN
	// when nothing was shed). With a ladder armed this is necessarily
	// ≥ LadderEngagedAt: the gate stays open until the ladder maxes out.
	FirstShedAt float64
	// LadderMaxedOut reports whether the ladder ended the run with every
	// rung engaged (always false without a ladder).
	LadderMaxedOut bool
	// Records holds request-level samples if Config.RecordRequests.
	Records []RequestRecord
}

// drawAhead is how many draws a class takes ahead from each of its two
// streams: 2 × 64 float64s, 1 KiB per class inside the arena.
const drawAhead = 64

// classState is everything Fig. 1 draws around the server box for one
// class: the generator's streams and arrival process, and the metrics.
// Class states live by value in the runner's arena, draw-ahead buffers
// included; the window means are retained across resets.
//
// Both streams are read through their buffers by every consumer — the
// class kernel, HandleRole, armArrival and so the phase redraw — so each
// is consumed in the order one draw per request would consume it: the
// arrival stream as unit exponentials (a gap is one divided by
// curLambda, exactly as ExpFloat64 divides), the size stream in
// drawAhead batches when the law is a dist.Filler and one draw per
// request otherwise.
type classState struct {
	cfg     ClassConfig
	service dist.Distribution
	filler  dist.Filler // service, when it may be drawn ahead; else nil

	arrivalRng rng.Source
	sizeRng    rng.Source
	// gaps and sizes hold the draws taken ahead; gapAt and sizeAt index
	// the next unread one (drawAhead: none left).
	gaps, sizes   [drawAhead]float64
	gapAt, sizeAt int

	// curLambda is the phase-adjusted Poisson rate (= cfg.Lambda while no
	// LoadSchedule phase is active).
	curLambda float64

	acc      classAcc      // what the requests completed since the last tick add up to
	slowRun  stats.Welford // measured slowdowns folded in so far
	winMeans []float64     // mean slowdown of each measurement window closed so far
	// rejected counts arrivals dropped by the admission controller.
	rejected int64
}

// classAcc is what a class's completions add into between two control
// ticks, with adds and compares only (plus the slowdown's own division):
// measured slowdowns gather in slow, a stats.Window whose mean at the
// tick is the window's WindowMeans entry and which then folds into the
// run's Welford; delay and service time are read only for their means,
// so they are plain sums; fbN and fbSum count and sum every slowdown,
// warm-up included, for the feedback controller.
type classAcc struct {
	slow             stats.Window
	delaySum, svcSum float64
	fbN              int64
	fbSum            float64
}

// slowdownOf is a request's queueing delay over its service time (0 for
// a service time that is not positive).
func slowdownOf(delay, service float64) float64 {
	if service > 0 {
		return delay / service
	}
	return 0
}

// record adds one completion with the given slowdown (slowdownOf),
// queueing delay and service time, measured (completed at or after
// Warmup) or not: the one copy of the per-request accumulation, which
// served runs on the class's accumulators and the class kernel on a
// local copy of them. It stays within the compiler's inlining budget, so
// the kernel's loop makes no call for it.
func (a *classAcc) record(slowdown, delay, service float64, measured bool) {
	a.fbN++
	a.fbSum += slowdown
	if measured {
		a.slow.Add(slowdown)
		a.delaySum += delay
		a.svcSum += service
	}
}

// nextGap returns the time from the class's arrival to its next at rate
// curLambda > 0.
func (cs *classState) nextGap() float64 {
	if cs.gapAt == drawAhead {
		cs.refillGaps()
	}
	cs.gapAt++
	return cs.gaps[cs.gapAt-1] / cs.curLambda
}

// refillGaps draws the next drawAhead unit exponentials. It stays out
// of line so that nextGap, the per-arrival part, inlines.
//
//go:noinline
func (cs *classState) refillGaps() {
	cs.arrivalRng.FillExp(cs.gaps[:])
	cs.gapAt = 0
}

// nextSize returns the size of the class's next request.
func (cs *classState) nextSize() float64 {
	if cs.sizeAt == drawAhead {
		cs.refillSizes()
	}
	cs.sizeAt++
	return cs.sizes[cs.sizeAt-1]
}

// refillSizes draws ahead the whole buffer from a dist.Filler, and from
// any other law the next size alone, into the last slot.
func (cs *classState) refillSizes() {
	if cs.filler == nil {
		cs.sizeAt = drawAhead - 1
		cs.sizes[cs.sizeAt] = cs.service.Sample(&cs.sizeRng)
		return
	}
	cs.filler.Fill(&cs.sizeRng, cs.sizes[:])
	cs.sizeAt = 0
}

// closeWindow ends the class's measurement window at a control tick or
// at the end of the run: its mean slowdown becomes the next WindowMeans
// entry when the window is reported (see ClassStats.WindowMeans), and
// its slowdowns fold into the run's.
func (cs *classState) closeWindow(reported bool) {
	if reported {
		cs.winMeans = append(cs.winMeans, cs.acc.slow.Mean())
	}
	cs.acc.slow.FoldInto(&cs.slowRun)
}

// serviceModel is the "server" box of Fig. 1 — the one part §2.2 swaps.
// The runner hands it admitted requests and allocations; it arms its own
// completion roles, r.compBase+i, in r.sim and reports each finished
// request through runner.served.
type serviceModel interface {
	// reset re-arms the model for r's classes (r.src is the replication's
	// root source, for a model that needs a stream of its own) and returns
	// how many completion roles it uses.
	reset(r *runner) int
	// accept takes an admitted request into the model at time now.
	accept(class int, size, now float64)
	// complete handles its fired completion role i.
	complete(i int)
	// setRates installs an allocation.
	setRates(rates []float64) error
	// finalRates reports the installed allocation (Result.FinalRates).
	finalRates(dst []float64)
}

// runner is the event skeleton of one replication: per-class generators
// and metrics, the three arrival sources (Poisson, LoadSchedule redraw,
// trace cursor) feeding one admit → observe → accept path, the control
// tick with the degradation ladder, and result collection. The server box
// itself is the serviceModel. Every pending event is a role of r.sim, laid
// out as HandleRole reads them: [0, compBase) each class's next Poisson
// arrival (none under trace replay), [compBase, tickRole) the model's
// completions, then the control tick, the LoadSchedule phase switch and
// (replay only) the trace cursor. Arming one costs no allocation, and
// every buffer the runner owns survives reset(). The roles fire in one of
// two steppings: runByClass, when classesIndependent holds, advances class
// i's pair (i, compBase+i) alone up to the next boundary role, outside the
// event set; otherwise one sim.RunUntil scans every role in global (time,
// seq) order.
type runner struct {
	cfg      Config
	sim      des.Slots
	model    serviceModel
	src      rng.Source // the replication's root source; streams split off it
	classes  []classState
	loop     control.Loop   // the shared estimate→control→allocate plane
	total    float64        // warmup + horizon
	trace    []TraceRequest // non-nil only for trace replay
	traceIdx int            // next trace entry to arrive
	phaseIdx int            // next LoadSchedule phase to apply

	compBase, tickRole int     // role layout, see above
	stepped            uint64  // model events runByClass handled outside r.sim
	winFrom            float64 // when the open control window began

	// Reallocation scratch, reused every window tick (the loop owns its
	// own estimator/allocator buffers; these feed its Tick inputs).
	allocDeltas   []float64
	allocMeasured []float64
	allocLambdas  []float64
	allocShed     []float64 // work the admission gate refused this window

	// The degradation ladder lives in r.loop (armed for a downgrading
	// allocator); the runner only records when it first engaged.
	ladderEngagedAt float64 // first time off level 0 (NaN = never)
	firstShedAt     float64 // first admission rejection (NaN = never)

	reallocOK   int
	reallocFail int
	records     []RequestRecord
}

// HandleRole dispatches one fired role. The order in which handlers arm
// roles is the determinism contract (see TestGoldenDeterminism): a
// completion or dispatch is armed before the class's next arrival.
func (r *runner) HandleRole(role int) {
	switch {
	case role < r.compBase:
		r.arrive(role, r.classes[role].nextSize())
		r.armArrival(role)
	case role < r.tickRole:
		r.model.complete(role - r.compBase)
	case role == r.tickRole:
		r.onRealloc()
	case role == r.tickRole+1:
		r.onPhase()
	default:
		tr := &r.trace[r.traceIdx]
		r.traceIdx++
		r.arrive(tr.Class, tr.Size)
		r.armTrace()
	}
}

// arrive is the one door every arrival source goes through: pass the
// admission gate, feed the load estimator, enter the service model.
func (r *runner) arrive(class int, size float64) {
	now := r.sim.Now()
	if r.cfg.Admission == nil || !r.shed(class, size, now) {
		r.loop.Observe(class, size)
		r.model.accept(class, size, now)
	}
}

// resizeFloat returns a length-n float slice reusing s's capacity.
// Contents are unspecified; callers overwrite every element.
func resizeFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// reset re-arms the runner for one replication of cfg (already defaulted
// and validated) with the given workload moments, service model and
// arrival trace (nil = Poisson generators), reusing every retained
// buffer. A reset runner is observationally identical to a freshly
// constructed one: the RNG streams are re-derived from cfg.Seed and the
// event core restarts its sequence numbering, so seeded replications stay
// bit-for-bit reproducible across arena reuse.
func (r *runner) reset(cfg *Config, w core.Workload, model serviceModel, trace []TraceRequest) error {
	r.cfg = *cfg
	r.model = model
	r.total = cfg.Warmup + cfg.Horizon
	r.trace = trace
	if trace != nil {
		// Externally given arrivals: the schedule only modulates Poisson
		// rates, so replay runs without phases.
		r.cfg.LoadSchedule = nil
	}
	r.traceIdx, r.phaseIdx, r.stepped, r.winFrom = 0, 0, 0, 0
	r.reallocOK = 0
	r.reallocFail = 0
	r.records = r.records[:0]

	nc := len(cfg.Classes)
	if cap(r.classes) < nc {
		old := r.classes
		r.classes = make([]classState, nc)
		copy(r.classes, old) // keep the retained window buffers
	} else {
		r.classes = r.classes[:nc]
	}
	r.src.Reseed(cfg.Seed)
	for i := range r.classes {
		cs := &r.classes[i]
		cc := cfg.Classes[i]
		svc := cc.Service
		if svc == nil {
			svc = cfg.Service
		}
		cs.cfg = cc
		cs.service = svc
		cs.filler, _ = svc.(dist.Filler)
		r.src.SplitInto(&cs.arrivalRng, uint64(2*i+1))
		r.src.SplitInto(&cs.sizeRng, uint64(2*i+2))
		cs.gapAt, cs.sizeAt = drawAhead, drawAhead
		cs.curLambda = cc.Lambda
		cs.acc = classAcc{}
		cs.slowRun = stats.Welford{}
		cs.winMeans = cs.winMeans[:0]
		cs.rejected = 0
	}
	r.allocDeltas = resizeFloat(r.allocDeltas, nc)
	r.allocMeasured = resizeFloat(r.allocMeasured, nc)
	r.allocLambdas = resizeFloat(r.allocLambdas, nc)
	r.allocShed = resizeFloat(r.allocShed, nc)
	for i, cc := range cfg.Classes {
		r.allocDeltas[i] = cc.Delta
		r.allocShed[i] = 0
	}
	// Note: with per-class service overrides the shared-law assumption of
	// Eq. 17 is already broken; the loop still gets the Config.Service
	// moments, which is precisely the mismatch the feedback ablation
	// studies.
	if err := r.loop.Reset(cfg.Spec.LoopConfig(r.allocDeltas, cfg.Window, w, cfg.Recorder)); err != nil {
		return err
	}
	r.ladderEngagedAt = math.NaN()
	r.firstShedAt = math.NaN()

	// The event set holds exactly the roles this run can arm.
	roles := 2 // tick and phase, plus the cursor under replay
	r.compBase = nc
	if trace != nil {
		r.compBase, roles = 0, 3
	}
	r.tickRole = r.compBase + model.reset(r)
	r.sim.Reset(r.tickRole + roles)

	// Initial rates: the operator provisions from the declared arrival
	// rates (the estimator has no history yet); thereafter measurements
	// drive reallocation. Any error (e.g. declared overload or all-zero
	// lambdas) falls back to an equal split — the warmup discards the
	// transient either way.
	declared := r.allocLambdas // scratch; overwritten at the first tick
	for i, cc := range cfg.Classes {
		declared[i] = cc.Lambda
	}
	if a, err := r.loop.AllocateDeclared(declared); err == nil {
		return model.setRates(a.Rates)
	}
	for i := range declared {
		declared[i] = 1 / float64(nc)
	}
	return model.setRates(declared)
}

// start arms the run's first events, in the order the determinism
// contract fixes: the arrival source, the first control tick, the first
// LoadSchedule phase.
func (r *runner) start() {
	if r.trace != nil {
		r.armTrace()
	} else {
		for i := range r.classes {
			r.armArrival(i)
		}
	}
	r.sim.SetAfter(r.tickRole, r.cfg.Window)
	r.armPhase()
}

// classesIndependent reports whether the armed run's classes share no
// state between control boundaries: Poisson arrivals into strictly
// partitioned task servers, with no admission gate (its budget spans
// classes) and no request records (one list in completion order). Each
// class then owns its streams, its statistics, its Loop.Observe counters
// and its task server, and only the tick and the phase switch read across
// classes.
func (r *runner) classesIndependent() bool {
	_, tasks := r.model.(*taskServers)
	return tasks && r.trace == nil && !r.cfg.WorkConserving &&
		r.cfg.Admission == nil && !r.cfg.RecordRequests
}

// runByClass is sim.RunUntil(total) for a run whose classes are
// independent between boundaries, the earliest of the tick, the phase
// switch and the run's end. Up to each boundary the class kernel
// (taskServers.stepClass) advances one class at a time, in index order,
// through its arrivals and completions strictly before it, finishing each
// request when it arrives unless the request crosses the boundary, and
// writes the class's two roles back to the event set; RunUntil then fires
// the boundary and anything else at that instant in (time, seq) order.
// The result is bit-identical to the global scan: within a class both
// paths serve the same requests in the same order at the same float
// times, and a class role and a boundary role are armed in the same
// relative order on both paths, so a tie at the boundary breaks the same
// way.
func (r *runner) runByClass() {
	m := r.model.(*taskServers)
	for {
		bound := math.Min(r.sim.At(r.tickRole), r.sim.At(r.tickRole+1))
		bound = math.Min(bound, r.total)
		for i := range r.classes {
			r.stepped += m.stepClass(i, bound)
		}
		r.sim.RunUntil(bound, r)
		if bound == r.total {
			return
		}
	}
}

// armArrival draws class i's next Poisson arrival, replacing a pending
// one (the memoryless redraw at a phase switch).
func (r *runner) armArrival(i int) {
	cs := &r.classes[i]
	if cs.curLambda <= 0 {
		r.sim.Clear(i)
		return
	}
	r.sim.SetAfter(i, cs.nextGap())
}

// armTrace arms the trace cursor at the next entry within the run.
func (r *runner) armTrace() {
	if r.traceIdx < len(r.trace) && r.trace[r.traceIdx].Time <= r.total {
		r.sim.Set(r.tickRole+2, r.trace[r.traceIdx].Time)
	}
}

// shed asks the admission controller about one arrival and counts a
// refusal. With a degradation ladder armed, the gate stays open until
// every rung is engaged — degrade first, shed only when degradation has
// nothing left to give (same ordering as the live server's admit path).
func (r *runner) shed(class int, size, now float64) bool {
	if r.loop.GateHeldOpen() || r.cfg.Admission.Admit(class, size, now) {
		return false
	}
	r.classes[class].rejected++
	r.allocShed[class] += size
	if math.IsNaN(r.firstShedAt) {
		r.firstShedAt = now
	}
	return true
}

// served records one request finished at now, the one place every
// service model and the global scan report a completion (the class
// kernel records into a local copy of the same accumulators, through the
// same classAcc.record). service is the time it occupied its server:
// completion − start on a paced task server, the size itself on the
// full-speed processor. onRealloc and collectInto fold what it adds.
func (r *runner) served(now float64, class int, size, arrival, start, service float64) {
	measured := now >= r.cfg.Warmup
	delay := start - arrival
	slowdown := slowdownOf(delay, service)
	r.classes[class].acc.record(slowdown, delay, service, measured)
	if measured && r.cfg.RecordRequests && now >= r.cfg.RecordFrom && now < r.cfg.RecordTo {
		r.records = append(r.records, RequestRecord{
			Class: class, Arrival: arrival, ServiceStart: start,
			Completion: now, Size: size, Slowdown: slowdown,
		})
	}
}

// onRealloc drives one tick of the shared control plane: close each
// class's measurement window (its mean joins WindowMeans once the window
// reaches past Warmup; its slowdowns fold into the run's), feed the loop
// this window's mean slowdowns (feedback mode), the true rates (oracle
// mode) and the work the admission gate shed, let control.Loop close the
// estimation window, re-run the allocator and step its degradation
// ladder, and install the resulting rates. The loop owns every buffer
// it needs, so a window tick performs no steady-state allocation at all.
//
// Both steppings reach the tick at the same point of each class's
// completion order, so the folds, and with them every statistic, agree
// to the last bit.
func (r *runner) onRealloc() {
	now := r.sim.Now()
	measured := r.allocMeasured
	for i := range r.classes {
		cs := &r.classes[i]
		cs.closeWindow(now > r.cfg.Warmup)
		if cs.acc.fbN > 0 {
			measured[i] = cs.acc.fbSum / float64(cs.acc.fbN)
		} else {
			measured[i] = math.NaN()
		}
		cs.acc.fbN, cs.acc.fbSum = 0, 0
	}
	r.winFrom = now
	var in control.TickInput
	if r.cfg.Feedback {
		in.MeasuredSlowdowns = measured
	}
	if r.cfg.Oracle {
		oracle := r.allocLambdas
		for i := range r.classes {
			oracle[i] = r.classes[i].curLambda
		}
		in.OracleLambdas = oracle
	}
	if r.cfg.Admission != nil {
		in.Shed = r.allocShed
	}
	rates, err := r.loop.Tick(in)
	clear(in.Shed)
	if err == nil && r.model.setRates(rates) == nil {
		r.reallocOK++
	} else {
		// Transient estimate infeasibility (ρ̂ ≥ 1 at very high loads) or
		// a vector the model refuses: retain the previous rates for this
		// window.
		r.reallocFail++
	}
	if math.IsNaN(r.ladderEngagedAt) && r.loop.LadderEngaged() {
		r.ladderEngagedAt = now
	}
	if now < r.total {
		r.sim.SetAfter(r.tickRole, r.cfg.Window)
	}
}

// armPhase arms the next LoadSchedule phase switch, if any lies within
// the run.
func (r *runner) armPhase() {
	if r.phaseIdx < len(r.cfg.LoadSchedule) && r.cfg.LoadSchedule[r.phaseIdx].Start <= r.total {
		r.sim.Set(r.tickRole+1, r.cfg.LoadSchedule[r.phaseIdx].Start)
	}
}

// onPhase applies one LoadSchedule phase: rescale every class's arrival
// rate and redraw its pending arrival at the new rate (exact for Poisson
// processes by memorylessness — the residual exponential wait under the
// new rate is a fresh draw).
func (r *runner) onPhase() {
	ph := r.cfg.LoadSchedule[r.phaseIdx]
	r.phaseIdx++
	for i := range r.classes {
		cs := &r.classes[i]
		cs.curLambda = cs.cfg.Lambda * ph.scaleFor(i)
		r.armArrival(i)
	}
	r.armPhase()
}

// collectInto assembles the Result, reusing res's slice capacity.
func (r *runner) collectInto(res *Result) {
	nc := len(r.classes)
	if cap(res.Classes) < nc {
		res.Classes = make([]ClassStats, nc)
	} else {
		res.Classes = res.Classes[:nc]
	}
	res.ExpectedSlowdowns = resizeFloat(res.ExpectedSlowdowns, nc)
	res.FinalRates = resizeFloat(res.FinalRates, nc)
	r.model.finalRates(res.FinalRates)
	res.Reallocations = r.reallocOK
	res.AllocFailures = r.reallocFail
	res.EventsProcessed = r.sim.Processed() + r.stepped
	res.SystemSlowdown = 0
	res.LadderEngagedAt = r.ladderEngagedAt
	res.FirstShedAt = r.firstShedAt
	res.LadderMaxedOut = r.loop.LadderMaxedOut()
	// Hand the accumulated records to the Result and adopt its buffer
	// for the next replication (ping-pong, so neither side reallocates).
	r.records, res.Records = res.Records[:0], r.records

	var sysSlow, sysCount float64
	for i := range r.classes {
		cs := &r.classes[i]
		st := &res.Classes[i]
		// The open window ends with the run; one that a tick at the end
		// opened lies wholly after it.
		cs.closeWindow(r.winFrom < r.total)
		st.Count = cs.slowRun.N()
		st.Rejected = cs.rejected
		st.MeanSlowdown = cs.slowRun.Mean()
		st.StdSlowdown = cs.slowRun.Std()
		st.MaxSlowdown = cs.slowRun.Max()
		st.MeanDelay = cs.acc.delaySum / float64(st.Count)
		st.MeanService = cs.acc.svcSum / float64(st.Count)
		st.WindowMeans = append(st.WindowMeans[:0], cs.winMeans...)
		if st.Count > 0 {
			sysSlow += st.MeanSlowdown * float64(st.Count)
			sysCount += float64(st.Count)
		}
	}
	if sysCount > 0 {
		res.SystemSlowdown = sysSlow / sysCount
	}
	// Model predictions under true (declared, base-phase) demand — Eq. 18
	// when PSD; otherwise Theorem 1 at the allocator's own rates.
	declared := r.allocLambdas
	for i, cc := range r.cfg.Classes {
		declared[i] = cc.Lambda
	}
	if a, err := r.loop.AllocateDeclared(declared); err == nil {
		copy(res.ExpectedSlowdowns, a.ExpectedSlowdowns)
	} else {
		for i := range res.ExpectedSlowdowns {
			res.ExpectedSlowdowns[i] = math.NaN()
		}
	}
}
