// Package chaos is the repo's deterministic fault-injection harness: a
// seeded catalog of the failures a production PSD server actually sees —
// stalled workers, service-latency spikes, poisoned estimator inputs
// (NaN/Inf/negative counts and work), non-monotone control clocks,
// dropped or late reallocation ticks, and slow-loris clients — wired into
// the live server (httpsrv.Config.Chaos) and the load generator
// (loadgen.Config.Chaos) through narrow per-site hooks.
//
// Two properties drive the design:
//
//   - Determinism: every fault decision is drawn from an rng stream
//     derived from Config.Seed, one independent stream per injection site
//     (per worker, one for the control tick), so the same seed and the
//     same sequence of opportunities yields bit-identical fault schedules
//     — a chaos run is replayable, and a chaos regression is bisectable.
//   - Zero cost when absent: consumers hold a nil *Injector and guard
//     every hook with one branch; with chaos disabled the hot paths are
//     untouched (the front-door and control-tick allocation gates, and
//     the sim/live parity goldens, hold bit-identically).
//
// Faults only fire while the injector is armed (Arm/Disarm), so a test
// can bracket a mid-run fault phase and then assert recovery. Every
// injected fault is counted (Counts) for assertions and reports.
package chaos

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"psd/internal/rng"
)

// SlowLoris parametrizes client-side connection-exhaustion faults: Conns
// raw TCP connections that send a syntactically valid request preamble
// and then dribble one header byte every Interval, holding server-side
// file descriptors without ever completing a request. Executed by
// loadgen (the server cannot inject its own clients).
type SlowLoris struct {
	// Conns is how many loris connections to hold open (0 disables).
	Conns int
	// Interval is the per-connection gap between dribbled bytes
	// (default 500ms).
	Interval time.Duration
}

// Config selects and parametrizes the fault injectors. The zero value of
// each field disables that fault; probabilities are per opportunity
// (per job for worker faults, per tick for control-plane faults).
type Config struct {
	// Seed derives every fault stream; same seed ⇒ same fault schedule
	// for the same sequence of opportunities.
	Seed uint64

	// StallProb stalls a worker for StallDur before it starts serving a
	// job — the "stuck goroutine" fault: the class loses a task server's
	// capacity while queueing delay builds behind it.
	StallProb float64
	// StallDur is the stall length (default 100ms).
	StallDur time.Duration

	// SpikeProb inflates one job's effective service demand by
	// SpikeFactor — a latency spike the estimator did not see coming
	// (the arrival was accounted at its true size).
	SpikeProb float64
	// SpikeFactor multiplies the job's size (default 8, must be ≥ 1).
	SpikeFactor float64

	// CorruptProb poisons one reallocation tick's input vectors with
	// NaN/Inf/negative counts, work, or slowdowns (cycling through the
	// corruption modes) — the "poisoned estimator" fault the control
	// plane's input guards must reject.
	CorruptProb float64

	// DropProb drops a reallocation tick outright (the loop never runs),
	// and DelayProb runs one late by DelayDur — the stalled-control-loop
	// faults the stale-tick watchdog must catch.
	DropProb  float64
	DelayProb float64
	// DelayDur is the tick delay (default 4× whatever period the
	// consumer runs at is a good choice; there is no universal default —
	// 200ms when unset).
	DelayDur time.Duration

	// JumpProb jumps the admission clock by ±JumpUnits time units at a
	// tick boundary (alternating sign, starting backwards — the harder
	// case for interval-integrating admission controllers).
	JumpProb float64
	// JumpUnits is the jump magnitude in time units (default 100).
	JumpUnits float64

	// Loris configures client-side slow-loris connections (executed by
	// loadgen, counted here).
	Loris SlowLoris
}

func (c Config) withDefaults() Config {
	if c.StallDur == 0 {
		c.StallDur = 100 * time.Millisecond
	}
	if c.SpikeFactor == 0 {
		c.SpikeFactor = 8
	}
	if c.DelayDur == 0 {
		c.DelayDur = 200 * time.Millisecond
	}
	if c.JumpUnits == 0 {
		c.JumpUnits = 100
	}
	if c.Loris.Interval == 0 {
		c.Loris.Interval = 500 * time.Millisecond
	}
	return c
}

func (c Config) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"StallProb", c.StallProb}, {"SpikeProb", c.SpikeProb},
		{"CorruptProb", c.CorruptProb}, {"DropProb", c.DropProb},
		{"DelayProb", c.DelayProb}, {"JumpProb", c.JumpProb},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("chaos: %s = %v must be in [0, 1]", p.name, p.v)
		}
	}
	if !(c.SpikeFactor >= 1) || math.IsInf(c.SpikeFactor, 0) {
		return fmt.Errorf("chaos: SpikeFactor %v must be finite and >= 1", c.SpikeFactor)
	}
	if c.StallDur < 0 || c.DelayDur < 0 || c.Loris.Interval < 0 {
		return fmt.Errorf("chaos: durations must not be negative")
	}
	if !(c.JumpUnits > 0) || math.IsInf(c.JumpUnits, 0) {
		return fmt.Errorf("chaos: JumpUnits %v must be positive and finite", c.JumpUnits)
	}
	if c.Loris.Conns < 0 {
		return fmt.Errorf("chaos: Loris.Conns %d must not be negative", c.Loris.Conns)
	}
	return nil
}

// Counts is a snapshot of how many faults of each kind have fired since
// the injector was created.
type Counts struct {
	Stalls       int64
	Spikes       int64
	CorruptTicks int64
	DroppedTicks int64
	DelayedTicks int64
	ClockJumps   int64
	LorisBytes   int64
}

// Injector owns the fault streams for one consumer (a server plus its
// load generator). It is created armed; Disarm/Arm bracket fault phases.
// The per-site hook handles (Worker, Tick) are safe to use from their
// owning goroutines; the injector's own state is atomics only.
type Injector struct {
	cfg   Config
	armed atomic.Bool

	stalls, spikes, corrupts, drops, delays, jumps, lorisBytes atomic.Int64

	tick     TickFaults
	tickOnce sync.Once

	parent rng.Source // split root for site streams (read-only after New)
}

// Stream identifiers: each injection site derives its stream from the
// seed with a distinct id, so adding draws at one site never perturbs
// another site's schedule.
const (
	streamTick = 1
	// Worker streams use streamWorkerBase + class·maxWorkersPerClass + idx.
	streamWorkerBase   = 1 << 16
	maxWorkersPerClass = 1 << 10
)

// New builds an armed injector for the config.
func New(cfg Config) (*Injector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	inj := &Injector{cfg: cfg}
	rng.New(cfg.Seed).SplitInto(&inj.parent, 0)
	inj.armed.Store(true)
	return inj, nil
}

// Arm enables fault injection (the constructed state).
func (inj *Injector) Arm() { inj.armed.Store(true) }

// Disarm suspends fault injection: every hook reports "no fault" without
// consuming a draw, so the fault schedule resumes exactly where it
// paused when re-armed.
func (inj *Injector) Disarm() { inj.armed.Store(false) }

// Armed reports whether faults currently fire.
func (inj *Injector) Armed() bool { return inj.armed.Load() }

// Config returns the injector's (defaulted) configuration.
func (inj *Injector) Config() Config { return inj.cfg }

// Counts snapshots the fault counters.
func (inj *Injector) Counts() Counts {
	return Counts{
		Stalls:       inj.stalls.Load(),
		Spikes:       inj.spikes.Load(),
		CorruptTicks: inj.corrupts.Load(),
		DroppedTicks: inj.drops.Load(),
		DelayedTicks: inj.delays.Load(),
		ClockJumps:   inj.jumps.Load(),
		LorisBytes:   inj.lorisBytes.Load(),
	}
}

// CountLorisByte accounts one dribbled slow-loris byte (loadgen calls
// this).
func (inj *Injector) CountLorisByte() { inj.lorisBytes.Add(1) }

// WorkerFaults is the per-worker fault stream: one per (class, worker
// index), owned by that worker goroutine, with a schedule deterministic
// in the seed and the worker's own job sequence.
type WorkerFaults struct {
	inj *Injector
	src rng.Source
}

// Worker derives the fault stream for class c's worker idx. Call once at
// worker start; the returned handle is not safe for concurrent use
// (workers are single goroutines).
func (inj *Injector) Worker(class, idx int) *WorkerFaults {
	w := &WorkerFaults{inj: inj}
	inj.parent.SplitInto(&w.src, streamWorkerBase+uint64(class)*maxWorkersPerClass+uint64(idx))
	return w
}

// StallFor reports how long the worker should stall before serving its
// next job: zero almost always, StallDur when the stall fault fires.
func (w *WorkerFaults) StallFor() time.Duration {
	if w == nil || !w.inj.armed.Load() || w.inj.cfg.StallProb <= 0 {
		return 0
	}
	if w.src.Float64() >= w.inj.cfg.StallProb {
		return 0
	}
	w.inj.stalls.Add(1)
	return w.inj.cfg.StallDur
}

// InflateSize returns the job's effective service demand: the true size,
// or size·SpikeFactor when the latency-spike fault fires. The estimator
// has already seen the true size — the spike is exactly the modeling
// error the control plane must absorb.
func (w *WorkerFaults) InflateSize(size float64) float64 {
	if w == nil || !w.inj.armed.Load() || w.inj.cfg.SpikeProb <= 0 {
		return size
	}
	if w.src.Float64() >= w.inj.cfg.SpikeProb {
		return size
	}
	w.inj.spikes.Add(1)
	return size * w.inj.cfg.SpikeFactor
}

// TickFaults is the control-plane fault stream. One per injector
// (reallocation loops are single goroutines); a mutex guards the stream
// anyway so tests that tick manually from another goroutine stay
// race-clean — the tick path is far off the request hot path.
type TickFaults struct {
	inj *Injector

	mu         sync.Mutex
	src        rng.Source
	corruptSeq int
	jumpSign   float64
}

// Tick returns the injector's control-tick fault stream.
func (inj *Injector) Tick() *TickFaults {
	inj.tickOnce.Do(func() {
		inj.tick.inj = inj
		inj.tick.jumpSign = -1 // first jump goes backwards: the harder case
		inj.parent.SplitInto(&inj.tick.src, streamTick)
	})
	return &inj.tick
}

// Drop reports whether this reallocation tick should be dropped outright.
func (t *TickFaults) Drop() bool {
	if t == nil || !t.inj.armed.Load() || t.inj.cfg.DropProb <= 0 {
		return false
	}
	t.mu.Lock()
	hit := t.src.Float64() < t.inj.cfg.DropProb
	t.mu.Unlock()
	if hit {
		t.inj.drops.Add(1)
	}
	return hit
}

// Delay reports how late this tick should run (0: on time).
func (t *TickFaults) Delay() time.Duration {
	if t == nil || !t.inj.armed.Load() || t.inj.cfg.DelayProb <= 0 {
		return 0
	}
	t.mu.Lock()
	hit := t.src.Float64() < t.inj.cfg.DelayProb
	t.mu.Unlock()
	if !hit {
		return 0
	}
	t.inj.delays.Add(1)
	return t.inj.cfg.DelayDur
}

// ClockJump returns the admission-clock jump for this tick in time units
// (0: none). Jumps alternate sign starting backwards, exercising both
// the non-monotone-clock guards and credit-accrual capping.
func (t *TickFaults) ClockJump() float64 {
	if t == nil || !t.inj.armed.Load() || t.inj.cfg.JumpProb <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.src.Float64() >= t.inj.cfg.JumpProb {
		return 0
	}
	jump := t.jumpSign * t.inj.cfg.JumpUnits
	t.jumpSign = -t.jumpSign
	t.inj.jumps.Add(1)
	return jump
}

// Corrupt poisons the tick's input vectors in place with probability
// CorruptProb and reports whether it did. The corruption cycles through
// the estimator-poison catalog — NaN count, negative count, +Inf work,
// NaN work, -Inf slowdown, negative slowdown — on a victim class drawn
// from the stream, so a sustained corruption phase exercises every guard.
func (t *TickFaults) Corrupt(counts, work, slowdowns []float64) bool {
	if t == nil || !t.inj.armed.Load() || t.inj.cfg.CorruptProb <= 0 || len(counts) == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.src.Float64() >= t.inj.cfg.CorruptProb {
		return false
	}
	victim := t.src.Intn(len(counts))
	switch t.corruptSeq % 6 {
	case 0:
		counts[victim] = math.NaN()
	case 1:
		counts[victim] = -1
	case 2:
		work[victim] = math.Inf(1)
	case 3:
		work[victim] = math.NaN()
	case 4:
		if len(slowdowns) > victim {
			slowdowns[victim] = math.Inf(-1)
		} else {
			counts[victim] = math.Inf(1)
		}
	case 5:
		if len(slowdowns) > victim {
			slowdowns[victim] = -2
		} else {
			work[victim] = -3
		}
	}
	t.corruptSeq++
	t.inj.corrupts.Add(1)
	return true
}
