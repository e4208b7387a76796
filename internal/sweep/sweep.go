// Package sweep shards whole scenario grids across a fixed worker pool of
// reusable simulation arenas. A grid — the unit internal/figures and
// cmd/psdsim actually execute — is a list of Points, each a simsrv
// configuration with a replication count; every figure of the paper's
// evaluation is (load sweep × class mix × replications), i.e. thousands
// of replications whose per-run construction cost and aggregation memory
// used to dominate everything outside the event loop.
//
// The engine differs from a per-point replication fan-out in three ways:
//
//   - One global (point, replication) task queue spans the whole grid, so
//     workers never idle at per-point barriers: while one worker finishes
//     the last replication of point k, the rest are already deep into
//     point k+1.
//   - Each worker owns one simsrv.Simulator arena for the entire sweep —
//     rings, pooled statistics, estimator scratch, the packetized packet
//     heap — so a replication costs single-digit heap allocations instead
//     of rebuilding the model (~100 allocations) millions of times per
//     figure.
//   - Results stream through per-point simsrv.Aggregators (Welford + P²
//     quantiles) in strict replication order via a reorder buffer, so
//     memory stays O(workers + points) and the output is bit-reproducible
//     regardless of worker scheduling.
//
// Replication seeds derive from each point's base seed via rng.Split
// (simsrv.ReplicationSeed), so a point's replication streams are
// independent of its position in the grid and identical to a sequential
// Reset(cfg, ReplicationSeed(seed, rep)) + RunInto loop's.
//
// The engine also routes: in Auto (or Analytic) mode every steady-state
// point whose closed form internal/analytic can evaluate skips the DES
// entirely and collapses to a single exact "replication" — a synthesized
// Aggregate whose means ARE the closed-form values, with zero-width
// confidence intervals and zero events. Transient, packetized, trace,
// window-statistics and moment-divergent points keep simulating; the
// default DES kind (the zero value) never consults the analytic path at
// all, so existing call sites stay bit-identical.
//
// Validation and routing run as one chunked phase ahead of the
// replication pipeline: the workers claim contiguous chunks of
// chunkPoints points off an atomic counter, each evaluating through its
// own analytic.Evaluator arena, and the closed-form aggregates of a chunk
// are carved out of two slabs per chunk — a closed-form point costs one
// Aggregate plus 4·nc floats and no allocation of its own, and a
// 10⁵-point capacity grid uses every core. The trade-off is retention:
// the aggregates of one chunk share backing arrays, so holding on to one
// of them keeps its chunk's slabs alive.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"psd/internal/analytic"
	"psd/internal/core"
	"psd/internal/sched"
	"psd/internal/simsrv"
)

// EngineKind selects how the engine evaluates each point.
type EngineKind int

const (
	// DES simulates every point (the zero value: existing call sites
	// keep their bit-identical replication pipeline).
	DES EngineKind = iota
	// Auto evaluates analytic-eligible points from the closed forms and
	// simulates the rest.
	Auto
	// Analytic refuses to simulate: any point needing the DES fails the
	// sweep with an error wrapping analytic.ErrNeedsSimulation.
	Analytic
)

// ParseEngineKind maps the CLI spellings (des | auto | analytic) to an
// EngineKind.
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "des":
		return DES, nil
	case "auto":
		return Auto, nil
	case "analytic":
		return Analytic, nil
	}
	return DES, fmt.Errorf("sweep: unknown engine kind %q (want des, auto or analytic)", s)
}

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case DES:
		return "des"
	case Auto:
		return "auto"
	case Analytic:
		return "analytic"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// Point is one grid point: a scenario configuration plus how many
// replications to average (the paper uses 100).
type Point struct {
	// Cfg is the scenario; Cfg.Seed is the point's base seed from which
	// replication seeds derive.
	Cfg simsrv.Config
	// Runs is the replication count (≥ 1).
	Runs int
	// Packetized selects the packetized-server model (SCFQ by default)
	// instead of the paper's partitioned task servers.
	Packetized bool
	// NewScheduler optionally overrides the packetized discipline; see
	// simsrv.PacketizedConfig.
	NewScheduler func(classes int) sched.Scheduler
	// Trace, when non-nil, replays this arrival trace instead of the
	// Poisson generators (simsrv.RunTrace semantics). Replications then
	// differ only in their estimator/allocator-independent random
	// streams, which for a fixed trace makes runs 1..n-1 redundant —
	// trace points normally use Runs = 1.
	Trace []simsrv.TraceRequest
	// TrackWindowRatios asks the point's aggregator to accumulate the
	// per-measurement-window achieved slowdown ratios across runs
	// (Aggregate.WindowRatioMeans) — the transient time series behind the
	// estimator-convergence figure. Costs O(classes × windows) memory per
	// point.
	TrackWindowRatios bool
	// NeedWindowStats pins the point to the DES in Auto mode: its
	// consumer reads the per-window ratio distribution
	// (Aggregate.RatioSummaries percentiles), which only simulation
	// produces — the closed forms predict means, not window-to-window
	// variability. The percentile figures (5–6) set it.
	NeedWindowStats bool
	// Policy optionally names a registered allocation policy (core.Names());
	// Run resolves it in place before anything executes: Cfg.Allocator is
	// overridden with the policy's allocator, and a size-aware policy
	// (core.Capabilities.NeedsSizeInfo, e.g. heSRPT) additionally switches
	// the point to the packetized model with its matching internal/sched
	// discipline. This is the grid's policy axis: crossing one scenario
	// list with a policy list (see Tournament) sweeps a whole policy
	// tournament in a single engine invocation.
	Policy string
}

// needsDES returns the reason this point cannot take the analytic path
// regardless of its Config (model shape, not steady-state eligibility),
// or "" if the Config decides.
func (p *Point) needsDES() string {
	switch {
	case p.Packetized:
		return "packetized server model"
	case p.Trace != nil:
		return "trace replay"
	case p.NewScheduler != nil:
		return "custom packet scheduler"
	case p.TrackWindowRatios:
		return "per-window ratio tracking"
	case p.NeedWindowStats:
		return "window-distribution statistics"
	}
	return ""
}

// Engine runs grids. The zero value uses GOMAXPROCS workers, streaming
// (P²) ratio quantiles, and simulates every point.
type Engine struct {
	// Workers fixes the pool size; 0 means GOMAXPROCS.
	Workers int
	// ExactQuantiles switches every point's ratio summaries to the exact
	// batch path (buffer + sort) — the pre-streaming behavior, kept for
	// golden comparisons and accuracy tests.
	ExactQuantiles bool
	// Kind routes points between the DES and the closed-form evaluator.
	// The zero value (DES) simulates everything.
	Kind EngineKind
}

// Run executes the grid on a default Engine.
func Run(points []Point) ([]*simsrv.Aggregate, error) {
	var e Engine
	return e.Run(points)
}

// Run executes every point's replications and returns one Aggregate per
// point, in point order. All configurations are validated up front
// (traces are validated by each worker's arena once, on its first
// replication of the point) and the first invalid point in point order
// fails the sweep; an execution error (first in task order,
// deterministically) aborts it.
//
// In Auto and Analytic kinds, analytic-eligible points are solved from
// the closed forms in that same up-front phase (see prepare) — they
// contribute zero tasks, so a fully analytic grid never starts the
// replication pipeline. DES-routed points keep the exact task ordering,
// seeds and reorder-buffer aggregation of a pure-DES sweep: routing a
// grid through Auto leaves every simulated point bit-identical to Kind
// DES.
func (e *Engine) Run(points []Point) ([]*simsrv.Aggregate, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]*simsrv.Aggregate, len(points))
	if err := e.prepare(points, out, workers); err != nil {
		return nil, err
	}

	if !slices.Contains(out, nil) {
		// Every point solved in closed form: nothing to simulate.
		return out, nil
	}

	// Lay the DES-routed points out on the task queue; a closed-form
	// point is a zero-width entry.
	total := 0
	offsets := make([]int, len(points))
	aggs := make([]*simsrv.Aggregator, len(points))
	for i := range points {
		offsets[i] = total
		if out[i] != nil {
			continue
		}
		p := &points[i]
		total += p.Runs
		aggs[i] = simsrv.NewAggregator(p.Cfg)
		if e.ExactQuantiles {
			aggs[i].UseExactQuantiles()
		}
		if p.TrackWindowRatios {
			aggs[i].TrackWindowRatios()
		}
	}
	runTask := func(sim *simsrv.Simulator, res *simsrv.Result, task int) error {
		pt, rep := locate(offsets, task)
		p := &points[pt]
		seed := simsrv.ReplicationSeed(p.Cfg.Seed, rep)
		var err error
		switch {
		case p.Trace != nil:
			err = sim.ResetTrace(p.Cfg, p.Trace, seed)
		case p.Packetized:
			err = sim.ResetPacketized(simsrv.PacketizedConfig{Config: p.Cfg, NewScheduler: p.NewScheduler}, seed)
		default:
			err = sim.Reset(p.Cfg, seed)
		}
		if err == nil {
			err = sim.RunInto(res)
		}
		if err != nil {
			return fmt.Errorf("sweep: point %d rep %d: %w", pt, rep, err)
		}
		return nil
	}
	err := simsrv.RunOrdered(total, workers, runTask, func(task int, res *simsrv.Result) {
		pt, _ := locate(offsets, task)
		aggs[pt].Add(res)
	})
	if err != nil {
		return nil, err
	}
	for i, a := range aggs {
		if a == nil {
			continue
		}
		if out[i], err = a.Aggregate(); err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", i, err)
		}
	}
	return out, nil
}

// locate maps a global task index back to (point, replication): the last
// point whose offset is ≤ task. Closed-form points are zero-width, so
// they share their offset with the next DES-routed point, which is the
// last of the run and therefore the one found.
func locate(offsets []int, task int) (pt, rep int) {
	pt = sort.Search(len(offsets), func(i int) bool { return offsets[i] > task }) - 1
	return pt, task - offsets[pt]
}

// chunkPoints is how many consecutive points one worker claims at a time
// in prepare: large enough that two slab allocations and one atomic add
// vanish per point, small enough that a 10⁴-point grid still spreads over
// every worker.
const chunkPoints = 1024

// pointWorker is what one goroutine of prepare owns for the whole sweep:
// the closed-form arena, the Evaluation it fills, and the registry
// entries of the policy names it has met.
type pointWorker struct {
	evaluator analytic.Evaluator
	ev        analytic.Evaluation
	policies  []core.Policy
}

// policy returns the registered policy called name, or nil. The registry
// is probed once per distinct name a worker meets; a policy axis repeats
// a handful of names over thousands of points.
func (w *pointWorker) policy(name string) *core.Policy {
	for i := range w.policies {
		if w.policies[i].Name == name {
			return &w.policies[i]
		}
	}
	pol, ok := core.Lookup(name)
	if !ok {
		return nil
	}
	w.policies = append(w.policies, pol)
	return &w.policies[len(w.policies)-1]
}

// prepare resolves, validates and routes every point: out[i] is set to
// the synthesized Aggregate of each point the closed forms answered and
// left nil for the points Run must simulate. Chunks are claimed off an
// atomic counter by min(workers, chunks) goroutines; a grid of a single
// chunk runs on the caller's goroutine. The error returned is that of
// the first failing point in point order, whatever the interleaving.
func (e *Engine) prepare(points []Point, out []*simsrv.Aggregate, workers int) error {
	chunks := (len(points) + chunkPoints - 1) / chunkPoints
	errs := make([]error, chunks) // each chunk's first error in point order
	var next atomic.Int64
	work := func() {
		var w pointWorker
		for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
			lo := c * chunkPoints
			errs[c] = e.prepareChunk(&w, points, out, lo, min(lo+chunkPoints, len(points)))
		}
	}
	if n := min(workers, chunks); n <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(n)
		for ; n > 0; n-- {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// prepareChunk runs points[lo:hi] in order and stops at the first error.
// The slab is sized at the chunk's first closed-form point, for the rest
// of the chunk, so a chunk the DES takes whole allocates nothing.
func (e *Engine) prepareChunk(w *pointWorker, points []Point, out []*simsrv.Aggregate, lo, hi int) error {
	var s slab
	for i := lo; i < hi; i++ {
		p := &points[i]
		if p.Runs < 1 {
			return fmt.Errorf("sweep: point %d needs at least 1 run, got %d", i, p.Runs)
		}
		pol, err := p.resolvePolicy(w)
		if err != nil {
			return fmt.Errorf("sweep: point %d: %w", i, err)
		}
		// The defaulted copy stays on the stack: a heap copy of the
		// pointerful Config would pay write barriers on every point while
		// the GC is marking.
		cfg := p.Cfg
		if err := cfg.Prepare(); err != nil {
			return fmt.Errorf("sweep: point %d: %w", i, err)
		}
		if e.Kind == DES {
			continue
		}
		closed, err := e.evalPoint(w, p, &cfg, pol)
		if err != nil {
			return fmt.Errorf("sweep: point %d: %w", i, err)
		}
		if closed {
			if s.aggs == nil {
				s = newSlab(points[i:hi])
			}
			out[i] = s.take(&w.ev)
		}
	}
	return nil
}

// evalPoint routes one point p, defaulted and validated as cfg: true when
// the closed forms answered it into w.ev, false to fall back to the DES
// in Auto mode, or an error (always in Analytic mode, where simulation is
// refused).
func (e *Engine) evalPoint(w *pointWorker, p *Point, cfg *simsrv.Config, pol *core.Policy) (bool, error) {
	if reason := p.needsDES(); reason != "" {
		if e.Kind == Analytic {
			return false, fmt.Errorf("%w: %s", analytic.ErrNeedsSimulation, reason)
		}
		return false, nil
	}
	if err := w.evaluator.EvaluatePrepared(&w.ev, cfg, pol); err != nil {
		if e.Kind == Auto && errors.Is(err, analytic.ErrNeedsSimulation) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// slab backs the closed-form aggregates of one chunk: the Aggregate
// structs and their four float vectors per point are two allocations per
// chunk instead of five per point.
type slab struct {
	aggs   []simsrv.Aggregate
	floats []float64
}

// newSlab sizes a slab for every point of rest taking the closed form.
func newSlab(rest []Point) slab {
	classes := 0
	for i := range rest {
		classes += len(rest[i].Cfg.Classes)
	}
	return slab{
		aggs:   make([]simsrv.Aggregate, len(rest)),
		floats: make([]float64, 4*classes),
	}
}

// take carves the next Aggregate off the slab and shapes ev as a single
// exact "replication": the means ARE the stationary values, the
// confidence intervals are zero-width, RatioSummaries stays nil (no
// window was simulated) and no DES events were processed — which is also
// how callers can tell an analytic point from a simulated one. Every
// slice is cut with cap == len, so an append on one aggregate cannot
// write into its neighbour.
func (s *slab) take(ev *analytic.Evaluation) *simsrv.Aggregate {
	nc := len(ev.Slowdowns)
	agg := &s.aggs[0]
	s.aggs = s.aggs[1:]
	f := s.floats[:4*nc]
	s.floats = s.floats[4*nc:]
	agg.Runs = 1
	agg.MeanSlowdowns = f[0*nc : 1*nc : 1*nc]
	agg.CI95 = f[1*nc : 2*nc : 2*nc]
	agg.ExpectedSlowdowns = f[2*nc : 3*nc : 3*nc]
	agg.MeanRatios = f[3*nc : 4*nc : 4*nc]
	agg.SystemSlowdown = ev.SystemSlowdown
	copy(agg.MeanSlowdowns, ev.Slowdowns)
	copy(agg.ExpectedSlowdowns, ev.Slowdowns)
	copy(agg.MeanRatios[1:], ev.Ratios[1:])
	return agg
}
