package psd

import (
	"psd/internal/analytic"
	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/figures"
	"psd/internal/queueing"
	"psd/internal/simsrv"
	"psd/internal/sweep"
	"psd/internal/workload"
)

// Re-exported core types: see the respective internal packages for full
// documentation.
type (
	// Class pairs a differentiation parameter δ with an arrival rate.
	Class = core.Class
	// Workload carries the job-size moments the allocator needs.
	Workload = core.Workload
	// Allocation is a rate split plus its predicted slowdowns.
	Allocation = core.Allocation
	// Allocator is the pluggable rate-allocation strategy interface.
	Allocator = core.Allocator
	// Distribution is a positive job-size law with analytic moments.
	Distribution = dist.Distribution
	// BoundedPareto is the paper's heavy-tailed size distribution.
	BoundedPareto = dist.BoundedPareto
	// SimConfig parametrizes one simulation run (paper §4.1 defaults).
	// Its control knobs (Allocator, Estimator, Feedback, MinRate, …) are
	// promoted from the embedded control spec: set them by field
	// assignment (cfg.Allocator = psd.PSDAllocator()).
	SimConfig = simsrv.Config
	// SimClass declares one class in a simulation.
	SimClass = simsrv.ClassConfig
	// SimResult is a single replication's outcome.
	SimResult = simsrv.Result
	// SimAggregate averages many replications (paper: 100 runs).
	SimAggregate = simsrv.Aggregate
	// Figure is one regenerated evaluation figure.
	Figure = figures.Figure
	// FigureOptions sets figure fidelity (runs, horizon, loads).
	FigureOptions = figures.Options
	// SweepPoint is one scenario grid point (config + replication count).
	SweepPoint = sweep.Point
	// SweepEngine runs scenario grids over a pool of reusable arenas.
	SweepEngine = sweep.Engine
	// SweepEngineKind routes points: simulate, closed forms where
	// analytic, or closed forms only.
	SweepEngineKind = sweep.EngineKind
	// AnalyticEvaluation is one point's closed-form result (Theorem 1 /
	// Eq. 18 at the stationary allocation).
	AnalyticEvaluation = analytic.Evaluation
	// ControlLoop is the shared estimate→control→allocate plane driven by
	// both the simulator and the live HTTP server.
	ControlLoop = control.Loop
	// ControlLoopConfig parametrizes a ControlLoop.
	ControlLoopConfig = control.LoopConfig
	// EstimatorKind selects the control plane's load smoothing.
	EstimatorKind = control.EstimatorKind
	// LoadPhase is one segment of a transient arrival-rate schedule.
	LoadPhase = workload.Phase
	// Policy is one registered allocation policy: name, summary,
	// capability flags and allocator factory.
	Policy = core.Policy
	// PolicyCapabilities are a policy's registry capability flags
	// (analytic-eligible, needs-size-info, degradation-aware).
	PolicyCapabilities = core.Capabilities
)

// Estimator kinds for SimConfig.Estimator / ControlLoopConfig.Estimator.
const (
	// WindowEstimation is the paper's §4.1 sliding-window mean.
	WindowEstimation = control.Window
	// EWMAEstimation reacts faster after load shifts at equal noise.
	EWMAEstimation = control.EWMA
)

// Sweep engine kinds for SweepEngine.Kind.
const (
	// EngineDES simulates every point (the default; bit-identical to the
	// pre-router engine).
	EngineDES = sweep.DES
	// EngineAuto evaluates analytic steady states in closed form and
	// simulates the rest.
	EngineAuto = sweep.Auto
	// EngineAnalytic refuses to simulate: non-analytic points error with
	// ErrNeedsSimulation.
	EngineAnalytic = sweep.Analytic
)

// ErrNeedsSimulation marks a configuration the closed forms cannot
// evaluate (transient, packetized, trace-driven, closed-loop, or with
// divergent moments). Test with errors.Is.
var ErrNeedsSimulation = analytic.ErrNeedsSimulation

// EvaluateAnalytic computes a configuration's stationary slowdowns,
// rates and achieved ratios directly from the paper's closed forms —
// the 100–1000× fast path behind SweepEngine's Auto/Analytic kinds.
func EvaluateAnalytic(cfg SimConfig) (*AnalyticEvaluation, error) {
	return analytic.Evaluate(cfg)
}

// LoadStep builds a SimConfig.LoadSchedule with one global rate step at
// time at (absolute simulation time, warmup included).
func LoadStep(at, factor float64) []LoadPhase { return workload.LoadStep(at, factor) }

// FlashCrowd builds a transient surge schedule: factor× the configured
// rates during [at, at+duration), then back to base.
func FlashCrowd(at, duration, factor float64) []LoadPhase {
	return workload.FlashCrowd(at, duration, factor)
}

// ClassMixChurn rotates a traffic surge across classes every period while
// keeping the aggregate offered load roughly constant.
func ClassMixChurn(classes int, at, period float64, count int, hi, lo float64) []LoadPhase {
	return workload.ClassMixChurn(classes, at, period, count, hi, lo)
}

// NewBoundedPareto constructs BP(k, p, α); the paper's default is
// BP(0.1, 100, 1.5) via PaperWorkload.
func NewBoundedPareto(k, p, alpha float64) (*BoundedPareto, error) {
	return dist.NewBoundedPareto(k, p, alpha)
}

// PaperWorkload returns the paper's §4.1 Bounded Pareto: k=0.1, p=100,
// α=1.5.
func PaperWorkload() *BoundedPareto { return dist.PaperDefault() }

// AllocateRates runs the paper's Eq. 17 strategy: given per-class demand
// and δ, split unit capacity so expected slowdowns are proportional to δ.
func AllocateRates(classes []Class, d Distribution) (Allocation, error) {
	w, err := core.WorkloadFromDist(d)
	if err != nil {
		return Allocation{}, err
	}
	return core.PSD{}.Allocate(classes, w)
}

// ExpectedSlowdown evaluates Theorem 1: the mean slowdown of a Poisson(λ)
// class on a task server of capacity rate with job sizes from d.
func ExpectedSlowdown(lambda float64, d Distribution, rate float64) (float64, error) {
	return queueing.TaskServerSlowdown(lambda, d, rate)
}

// Simulate runs one replication of the paper's simulation model.
func Simulate(cfg SimConfig) (*SimResult, error) { return simsrv.Run(cfg) }

// SimulateN runs n independent replications and aggregates them (the
// paper reports averages of 100 runs). It is a one-point sweep: the
// replications share a worker pool of reusable simulation arenas and
// stream into the aggregate in replication order.
func SimulateN(cfg SimConfig, n int) (*SimAggregate, error) {
	aggs, err := sweep.Run([]sweep.Point{{Cfg: cfg, Runs: n}})
	if err != nil {
		return nil, err
	}
	return aggs[0], nil
}

// Sweep executes a whole scenario grid — the unit a figure or a capacity
// study actually runs — across a fixed pool of reusable simulation
// arenas, returning one aggregate per point in order. See internal/sweep
// for the engine's scheduling and determinism guarantees.
func Sweep(points []SweepPoint) ([]*SimAggregate, error) { return sweep.Run(points) }

// EqualLoadSimConfig builds the paper's standard scenario: classes with
// the given δ values at equal per-class load summing to utilization rho.
// Pass nil for the paper's default service distribution.
func EqualLoadSimConfig(deltas []float64, rho float64, service Distribution) SimConfig {
	return simsrv.EqualLoadConfig(deltas, rho, service)
}

// GenerateFigure regenerates one of the paper's evaluation figures
// (IDs 2–12) or the beyond-paper studies (13: estimator transient,
// 14: policy tournament).
func GenerateFigure(id int, opts FigureOptions) (Figure, error) {
	return figures.Generate(id, opts)
}

// PSDAllocator returns the paper's allocator. The rest of the policy zoo
// is reachable by name through ParseAllocator / Policies.
func PSDAllocator() Allocator { return core.PSD{} }

// ParseAllocator resolves a registered policy name ("psd", "pdd",
// "equal", "demand", "ppsd", "log", "downgrade", "hesrpt") to a fresh
// allocator — the single parsing seam every CLI shares.
func ParseAllocator(name string) (Allocator, error) { return core.Parse(name) }

// AllocatorNames lists the registered policy names, sorted.
func AllocatorNames() []string { return core.Names() }

// Policies lists every registered policy with its capability flags, in
// registration order.
func Policies() []Policy { return core.Policies() }
