package simsrv

import "psd/internal/sched"

// PacketizedConfig parametrizes a packetized-server simulation: one
// processor runs whole requests at full speed and a weighted-fair
// scheduler (internal/sched) picks the next request, with weights
// refreshed by the allocator every window. This mode validates that the
// paper's assumed proportional-share facility is realizable by practical
// packet-by-packet schedulers — and quantifies the slowdown-model
// correction (core.PacketizedPSD) that the run-to-completion service
// model requires.
type PacketizedConfig struct {
	// Config supplies classes, service law, windows, warmup, horizon and
	// seed. Its Allocator provides the weights; use core.PacketizedPSD
	// for proportional slowdowns on this server model (core.PSD's fluid
	// weights overshoot by design — see the ablation bench).
	Config
	// NewScheduler builds the discipline for the class count. Defaults to
	// SCFQ, in which case the scheduler is retained as part of the
	// simulation arena across replications.
	NewScheduler func(classes int) sched.Scheduler
}

// processor is the packetized service model: one full-speed processor
// serializes whole requests and a sched.Scheduler picks the next one, with
// the allocation installed as (positive-floored) weights. Jobs flow
// through the scheduler by value (its heap stores them inline), so
// the model sits on the same ~zero allocs/event budget as the task
// servers.
type processor struct {
	r *runner
	// newScheduler is the PacketizedConfig factory for the armed run (nil
	// = the retained SCFQ below).
	newScheduler func(classes int) sched.Scheduler
	scheduler    sched.Scheduler
	ownSCFQ      *sched.SCFQ // retained default-discipline arena
	ownSCFQSize  int         // class count ownSCFQ was built for

	// cur* describe the request occupying the processor; service is
	// serialized, so one completion role serves every job.
	busy       bool
	curClass   int
	curSize    float64
	curArrival float64
	curStart   float64

	weights []float64
	// lastWeights is the most recent weight vector the scheduler accepted,
	// reported as Result.FinalRates.
	lastWeights []float64
}

func (p *processor) reset(r *runner) int {
	p.r = r
	p.busy = false
	nc := len(r.classes)
	switch {
	case p.newScheduler != nil:
		p.scheduler = p.newScheduler(nc)
	case p.ownSCFQ != nil && p.ownSCFQSize == nc:
		p.ownSCFQ.Reset()
		p.scheduler = p.ownSCFQ
	default:
		p.ownSCFQ, p.ownSCFQSize = sched.NewSCFQ(nc), nc
		p.scheduler = p.ownSCFQ
	}
	p.weights = resizeFloat(p.weights, nc)
	p.lastWeights = resizeFloat(p.lastWeights, nc)
	return 1
}

func (p *processor) accept(class int, size, now float64) {
	p.scheduler.Enqueue(sched.Job{Class: class, Size: size, Arrival: now})
	if !p.busy {
		p.dispatch()
	}
}

// dispatch pulls the scheduler's next choice onto the processor.
func (p *processor) dispatch() {
	j, ok := p.scheduler.Dequeue()
	p.busy = ok
	if !ok {
		return
	}
	p.curClass, p.curSize, p.curArrival, p.curStart = j.Class, j.Size, j.Arrival, p.r.sim.Now()
	p.r.sim.SetAfter(p.r.compBase, j.Size) // full-speed service
}

func (p *processor) complete(int) {
	p.r.served(p.r.sim.Now(), p.curClass, p.curSize, p.curArrival, p.curStart, p.curSize)
	p.dispatch()
}

// setRates installs the rates as scheduler weights, floored positive
// (schedulers reject non-positive weights; an idle class's zero rate
// becomes a negligible share).
func (p *processor) setRates(rates []float64) error {
	floor := p.r.cfg.MinRate
	if floor <= 0 {
		floor = 1e-6
	}
	for i, w := range rates {
		p.weights[i] = max(w, floor)
	}
	if err := p.scheduler.SetWeights(p.weights); err != nil {
		return err
	}
	copy(p.lastWeights, p.weights)
	return nil
}

func (p *processor) finalRates(dst []float64) { copy(dst, p.lastWeights) }
