package simsrv

import (
	"errors"

	"psd/internal/core"
	"psd/internal/rng"
)

// Simulator is a reusable simulation arena. It owns every buffer a
// replication needs — the event set, estimator ring, statistics
// accumulators, allocator scratch, and both service models' state (the
// task servers' request rings, the packetized scheduler's packet heap) —
// and replays them across replications and grid points:
//
//	var sim Simulator
//	var res Result
//	for rep := 0; rep < runs; rep++ {
//		if err := sim.Reset(cfg, ReplicationSeed(cfg.Seed, rep)); err != nil { ... }
//		if err := sim.RunInto(&res); err != nil { ... }
//		agg.Add(&res)
//	}
//
// Construction cost is paid once: after the first replication a
// Reset+RunInto cycle performs single-digit heap allocations (the
// pre-arena engine performed ~100 per replication, dominating figure
// sweeps where a single curve is thousands of replications). Reset fully
// re-derives the random streams from the seed and restarts event sequence
// numbering, so arena reuse is bit-for-bit identical to fresh
// construction, whatever the arena ran before — the golden tests in
// determinism_test.go and TestArenaModeCycling pin this.
//
// A Simulator is single-goroutine; use one per worker (see RunOrdered
// and internal/sweep).
type Simulator struct {
	run   runner
	tasks taskServers
	proc  processor
	armed bool
	// validatedTrace remembers the last trace that passed validation (by
	// slice identity, for the class count below), so replaying one trace
	// across many replications — the sweep engine's trace-point pattern —
	// validates it once instead of O(len) per reset.
	validatedTrace        []TraceRequest
	validatedTraceClasses int
	// scanOnly makes RunInto take the global event scan even for a run
	// whose classes could be stepped alone; the differential tests set it.
	scanOnly bool
}

// prepare is the arming every Reset* shares: apply defaults, validate,
// and reset the runner around the given service model and arrival source
// (trace == nil selects the Poisson generators). cfg is the caller's own
// copy.
func (s *Simulator) prepare(cfg *Config, seed uint64, model serviceModel, trace []TraceRequest) error {
	s.armed = false
	cfg.Seed = seed
	if err := cfg.Prepare(); err != nil {
		return err
	}
	w, err := core.WorkloadFromDist(cfg.Service)
	if err != nil {
		return err
	}
	if err := s.run.reset(cfg, w, model, trace); err != nil {
		return err
	}
	s.armed = true
	return nil
}

// Reset arms the arena for one partitioned-model replication of cfg under
// the given seed (overriding cfg.Seed). Defaults are applied and the
// config validated here, so RunInto cannot fail on configuration.
func (s *Simulator) Reset(cfg Config, seed uint64) error {
	return s.prepare(&cfg, seed, &s.tasks, nil)
}

// ResetTrace arms the arena for a trace-driven replication: the trace
// replaces the Poisson generators, everything else follows Reset. The
// trace must be time-sorted with in-range classes and positive sizes; it
// is NOT copied, and the caller must not mutate it while this Simulator
// is using it — validation of the exact same slice (same backing array
// and length) is cached across resets, so replaying one trace over many
// replications pays the O(len) checks once.
func (s *Simulator) ResetTrace(cfg Config, trace []TraceRequest, seed uint64) error {
	sameTrace := len(trace) > 0 && len(s.validatedTrace) == len(trace) &&
		&s.validatedTrace[0] == &trace[0] &&
		s.validatedTraceClasses == len(cfg.Classes)
	if !sameTrace {
		if err := validateTrace(len(cfg.Classes), trace); err != nil {
			s.validatedTrace = nil
			return err
		}
		s.validatedTrace = trace
		s.validatedTraceClasses = len(cfg.Classes)
	}
	return s.prepare(&cfg, seed, &s.tasks, trace)
}

// ResetPacketized arms the arena for one packetized-server replication:
// the same skeleton around one full-speed processor behind a scheduler.
// With the default SCFQ discipline the scheduler itself is part of the
// arena (its packet heap is retained across replications); a custom
// NewScheduler factory is invoked on every reset and must hand back a
// scheduler in its freshly constructed state.
func (s *Simulator) ResetPacketized(pc PacketizedConfig, seed uint64) error {
	cfg := pc.Config
	if cfg.WorkConserving {
		return errors.New("simsrv: packetized mode is inherently work-conserving; WorkConserving flag is not applicable")
	}
	if cfg.Allocator == nil {
		// The fluid default would systematically overshoot here; make
		// the packetized-correct allocator the default for this model.
		cfg.Allocator = core.PacketizedPSD{}
	}
	// The packetized model runs the loop open-loop: the ratio controller
	// trims paced rates, which a full-speed processor does not have.
	cfg.Feedback = false
	s.proc.newScheduler = pc.NewScheduler
	return s.prepare(&cfg, seed, &s.proc, nil)
}

// RunInto executes the armed replication and writes its outcome into res,
// reusing res's buffers. Each Reset* arms exactly one RunInto; calling it
// again without resetting is an error (the arena's state is consumed).
// A Reset run whose classes stay independent between control boundaries
// is stepped one class at a time (runByClass); every other run takes the
// global event scan. The Result is the same either way.
func (s *Simulator) RunInto(res *Result) error {
	if !s.armed {
		return errors.New("simsrv: RunInto requires a prior Reset (each Reset arms one run)")
	}
	s.armed = false
	s.run.start()
	if s.run.classesIndependent() && !s.scanOnly {
		s.run.runByClass()
	} else {
		s.run.sim.RunUntil(s.run.total, &s.run)
	}
	s.run.collectInto(res)
	return nil
}

// ReplicationSeed derives replication rep's seed from a scenario's base
// seed via an rng.Split of a base-seeded source. Unlike base+rep
// arithmetic, nearby base seeds cannot collide onto overlapping
// replication seed ranges, and every replication loop (internal/sweep,
// the tests' sequential references) shares the derivation, so
// "replication rep of scenario s" names the same stream everywhere.
func ReplicationSeed(base uint64, rep int) uint64 {
	var src, child rng.Source
	src.Reseed(base)
	src.SplitInto(&child, uint64(rep))
	return child.Uint64()
}

// Run executes one replication and returns its Result. It is a
// convenience over a throwaway Simulator arena; batch callers should hold
// a Simulator (or use internal/sweep) to amortize construction.
func Run(cfg Config) (*Result, error) {
	var s Simulator
	if err := s.Reset(cfg, cfg.Seed); err != nil {
		return nil, err
	}
	res := new(Result)
	if err := s.RunInto(res); err != nil {
		return nil, err
	}
	return res, nil
}
