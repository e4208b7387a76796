// Package httpsrv applies the PSD rate-allocation strategy to a real
// net/http server.
//
// Architecture (the paper's Fig. 1 realized on the HTTP path):
//
//	requests → admission gate → classifier → per-class FCFS queue →
//	per-class task servers (paced to the class rate) → response
//
// Each incoming request is classified (X-PSD-Class header or ?class=
// query parameter), assigned a service demand in work units (?size= or
// drawn from the configured distribution), optionally vetted by a
// pluggable admission.Controller, and queued. WorkersPerClass worker
// goroutines per class serve its queue, each pacing at an equal share of
// the class rate, emulating a processor share on CPU-bound work. The
// pacing is rate-change-aware: a worker pins each in-flight job's
// remaining work and re-paces whenever the control plane installs a new
// class rate, so a size-x job served at rate r₁ for its first stretch
// and r₂ afterwards completes after x₁/r₁ + x₂/r₂ time units — exactly
// the GPS fluid model the allocator assumes. A background loop drives
// the SAME control plane as the simulator — one shared control.Loop tick
// (estimate → feedback trim → allocate) every Window, set by the same
// control.Spec, which Config embeds — so the live server's rate
// trajectory under a given windowed observation sequence is
// bit-identical to the simulator's (pinned by TestSimVsLiveRateParity).
//
// The front door is sharded: an admitted request on the steady-state
// path takes no server-wide mutex and performs no allocation. Class
// rates are published as atomic float64 bits with an epoch counter
// (readers never lock, writes wake the class workers); window
// observations land in striped per-class accumulators that the
// reallocation tick drains with Swap (N shards merge to exactly the
// single-stream totals); undeclared sizes are sampled from striped
// seed-derived RNG streams; and per-class admission controllers
// (admission.ClassIsolated) get per-class locks. Jobs are pooled. See
// the README's "Scaling the live server" section for the protocol
// details and invariants.
//
// Only admitted requests feed the load estimator: traffic shed by the
// admission gate or a full class queue is accounted separately (rejected
// counts and rejected work in the metrics document), so overload does
// not inflate λ̂ for the very class being shed.
//
// Slowdown is measured per request as queueing delay divided by actual
// service duration. Telemetry is first-class (internal/obs): per-class
// slowdown and latency histograms, rejection and clamp counters, and the
// control-plane gauges live in a zero-allocation metric registry exposed
// both as the JSON document (/metrics) and in Prometheus text format
// (/metrics/prom or /metrics?format=prom); every control tick is
// additionally flight-recorded and dumpable at /debug/control. Metric
// reads never take the control-plane mutex, so a slow scrape cannot
// delay a reallocation tick.
package httpsrv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"psd/internal/admission"
	"psd/internal/chaos"
	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/obs"
	"psd/internal/timeutil"
)

// Config parametrizes the server.
type Config struct {
	// Deltas are the per-class differentiation parameters (class 0
	// should be 1 by convention). len(Deltas) defines the class count.
	Deltas []float64
	// Service is the size law used when a request does not declare
	// ?size= (default: the paper's Bounded Pareto).
	Service dist.Distribution
	// Spec is the control loop's knobs, shared with simsrv.Config. Its
	// MinRate defaults to minPaceRate (1e-3) here, so the pacing-side
	// clamp (rate_floor_clamps) is a tripwire that should stay at zero.
	control.Spec
	// TimeUnit is the wall-clock duration of one simulated time unit: a
	// size-1 request at rate 1 occupies its worker for TimeUnit.
	// Default 10ms.
	TimeUnit time.Duration
	// Window is the reallocation period in time units (default 100).
	Window float64
	// QueueCapacity bounds each class queue; excess requests receive
	// 503. Default 4096.
	QueueCapacity int
	// WorkersPerClass is how many task-server goroutines serve each
	// class queue (default 1). Each worker paces at an equal share of
	// the class rate, so the class's aggregate service capacity is the
	// allocated r_i regardless of the worker count; more workers let one
	// class's service overlap across cores (and let a huge job stop
	// blocking the whole class) at the cost of strict FCFS completion
	// order within the class.
	WorkersPerClass int
	// MaxSize bounds the client-declared ?size= in work units (default
	// 1e6). Without a bound one request could pin a class worker for an
	// arbitrary wall-clock span — or overflow the pacing-duration
	// conversion and poison the load estimator with absurd work.
	MaxSize float64
	// Admission optionally gates requests before they reach the class
	// queues (nil admits everything). The controller's clock runs in time
	// units since server start; rejected requests receive 503 and are
	// accounted per class without feeding the load estimator. Admit
	// calls are serialized per class when the controller implements
	// admission.ClassIsolated (TokenBucket), globally
	// otherwise, so non-thread-safe controllers are fine either way.
	Admission admission.Controller
	// FlightRecorderSize is the control-plane flight recorder's ring
	// capacity in ticks (default 256): the last N control decisions are
	// always dumpable at /debug/control.
	FlightRecorderSize int
	// Seed drives the server-side size sampling.
	Seed uint64
	// WatchdogFactor arms the stale-tick watchdog: a reallocation gap
	// longer than WatchdogFactor reallocation periods marks the control
	// loop stalled (psd_watchdog_stalled gauge + a FlagStaleTick flight
	// record), freezes pacing at the last-good rates, and discards the
	// overlong window rather than feeding its inflated counts to the
	// estimator. 0 means the default factor 4; negative disables the
	// watchdog.
	WatchdogFactor float64
	// Chaos optionally wires the fault-injection harness into the worker
	// and control-tick paths (worker stalls, service spikes, corrupted
	// tick inputs, dropped/late ticks, admission-clock jumps). Nil — the
	// production configuration — leaves every hot path untouched.
	Chaos *chaos.Injector
}

// ApplyDefaults fills unset fields with their defaults and returns the
// completed config.
func (c Config) ApplyDefaults() Config {
	if c.Service == nil {
		c.Service = dist.PaperDefault()
	}
	c.Spec.ApplyDefaults()
	if c.TimeUnit == 0 {
		c.TimeUnit = 10 * time.Millisecond
	}
	if c.Window == 0 {
		c.Window = 100
	}
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 4096
	}
	if c.WorkersPerClass == 0 {
		c.WorkersPerClass = 1
	}
	if c.MinRate == 0 {
		c.MinRate = minPaceRate
	}
	if c.MaxSize == 0 {
		c.MaxSize = 1e6
	}
	if c.FlightRecorderSize == 0 {
		c.FlightRecorderSize = 256
	}
	if c.WatchdogFactor == 0 {
		c.WatchdogFactor = 4
	}
	return c
}

// job is one queued request. Jobs are pooled (Server.jobPool): the done
// channel is created once per job and reused, and a job returns to the
// pool only after its result has been consumed — an abandoned job
// (caller gone, or shutdown mid-service) is simply dropped for the GC so
// a late worker send can never leak into a fresh checkout.
type job struct {
	size     float64
	enqueued time.Time
	done     chan jobResult
}

type jobResult struct {
	delay    time.Duration
	service  time.Duration
	slowdown float64
}

// classRuntime is one class's task-server state. The hot-path fields are
// all lock-free: the rate is atomic float64 bits with an epoch version,
// and the window observations live in cache-line-padded stripes drained
// by the reallocation tick (see shard.go).
type classRuntime struct {
	queue chan *job

	// rateBits is the installed class rate as float64 bits: one-word
	// atomic loads cannot tear. rateEpoch counts actual changes.
	rateBits  atomic.Uint64
	rateEpoch atomic.Uint64

	// sigs holds one buffered wake channel per class worker: setRate
	// posts a non-blocking signal to each so in-flight jobs re-pace
	// instead of finishing at a stale deadline.
	sigs []chan struct{}

	// stripes are the current-window arrival/work/slowdown accumulators
	// (admitted requests only), Swap-drained by closeWindow.
	stripes []windowStripe

	// All completion/rejection accounting lives in the server's metric
	// registry (Server.met): lock-free atomics, not fields here.
}

// Server is the PSD HTTP front end. Create with New, then use as an
// http.Handler (or drive it in-process via Do); Close releases the
// workers.
type Server struct {
	cfg     Config
	classes []*classRuntime

	// perWorkerDiv divides the class rate among its workers
	// (float64(cfg.WorkersPerClass), precomputed for the pacing path).
	perWorkerDiv float64

	// loopMu serializes the shared control plane: only the reallocation
	// tick takes it (metrics snapshots read registry atomics instead, so
	// a slow scrape never delays a tick). The tick itself is
	// allocation-free (control.Loop owns every buffer; the scratch below
	// feeds it and carries its outputs to the published gauges).
	loopMu      sync.Mutex
	loop        control.Loop
	tickCounts  []float64
	tickWork    []float64
	tickSlows   []float64
	tickLambdas []float64
	tickDeltas  []float64
	// tickShed is the window's shed work per class: the growth of the
	// rejected-work counters since the last tick, which shedWork holds.
	tickShed []float64
	shedWork []float64

	// lastRejected mirrors loop.InputRejected into the registry counter
	// (delta per tick, under loopMu).
	lastRejected uint64

	// ladderHold mirrors loop.GateHeldOpen after each tick: the ladder
	// lives in the loop under loopMu, and the degrade-before-shed decision
	// crosses to the lock-free admit path through this atomic.
	ladderHold atomic.Bool

	// publishSeq brackets reallocate's writes of one tick's scrape gauges
	// (λ̂, effective δ, window slowdown, degradation level, ladder
	// shedding, rate and the tick counters): odd while they are being
	// written. Snapshot retries
	// until it reads the same even value before and after its loads, so
	// it never mixes two ticks' vectors.
	publishSeq atomic.Uint64

	// Stale-tick watchdog: lastTickNano is the wall clock of the last
	// reallocation attempt, staleAfter the stall threshold (0 disables).
	// The monitor goroutine never takes loopMu — a stalled tick may be
	// holding it.
	lastTickNano atomic.Int64
	staleAfter   time.Duration
	stalledFlag  atomic.Bool

	// Fault injection (nil in production). clockSkewBits accumulates
	// injected admission-clock jumps (float64 bits, time units).
	chaos         *chaos.Injector
	chaosTick     *chaos.TickFaults
	clockSkewBits atomic.Uint64

	// Observability: the metric registry (served as JSON and Prometheus
	// text) and the control-plane flight recorder (hooked into the loop,
	// dumped at /debug/control).
	reg *obs.Registry
	met serverMetrics
	rec *obs.FlightRecorder

	// sizeStripes shard the size-sampling RNG (see shard.go).
	sizeStripes []rngStripe

	// admLocks guards the admission controller: one lock per class when
	// the controller is admission.ClassIsolated, a single global lock
	// otherwise. nil adm admits everything without locking.
	admLocks []paddedMutex
	adm      admission.Controller

	// jobPool recycles job structs (with their done channels) so the
	// admitted path allocates nothing in steady state.
	jobPool sync.Pool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	started time.Time
}

// New builds and starts a Server (workers + reallocation loop).
func New(cfg Config) (*Server, error) {
	cfg = cfg.ApplyDefaults()
	if len(cfg.Deltas) == 0 {
		return nil, errors.New("httpsrv: no classes")
	}
	if !(cfg.MaxSize > 0) || math.IsInf(cfg.MaxSize, 0) {
		// +Inf would let ?size=+Inf through the (0, MaxSize] check and
		// overflow the pacing conversion — the hole MaxSize exists to close.
		return nil, fmt.Errorf("httpsrv: max size %v must be positive and finite", cfg.MaxSize)
	}
	if cfg.WorkersPerClass < 0 {
		return nil, fmt.Errorf("httpsrv: workers per class %d must be positive", cfg.WorkersPerClass)
	}
	// New refuses what time.NewTicker would panic on in reallocLoop.
	if _, ok := wallDuration(cfg.Window * float64(cfg.TimeUnit)); !ok || cfg.TimeUnit <= 0 {
		return nil, fmt.Errorf("httpsrv: window %v × time unit %v is not a reallocation period of at least 1ns", cfg.Window, cfg.TimeUnit)
	}
	staleAfter, ok := wallDuration(cfg.WatchdogFactor * cfg.Window * float64(cfg.TimeUnit))
	if cfg.WatchdogFactor < 0 {
		staleAfter = 0 // disabled
	} else if !ok {
		return nil, fmt.Errorf("httpsrv: watchdog threshold of %v windows is not a duration of at least 1ns", cfg.WatchdogFactor)
	}
	w, err := core.WorkloadFromDist(cfg.Service)
	if err != nil {
		return nil, err
	}
	rec, err := obs.NewFlightRecorder(len(cfg.Deltas), cfg.FlightRecorderSize)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := len(cfg.Deltas)
	reg := obs.NewRegistry()
	s := &Server{
		cfg:          cfg,
		perWorkerDiv: float64(cfg.WorkersPerClass),
		staleAfter:   staleAfter,
		tickCounts:   make([]float64, n),
		tickWork:     make([]float64, n),
		tickSlows:    make([]float64, n),
		tickShed:     make([]float64, n),
		shedWork:     make([]float64, n),
		tickLambdas:  make([]float64, n),
		tickDeltas:   make([]float64, n),
		chaos:        cfg.Chaos,
		reg:          reg,
		met:          newServerMetrics(reg, n),
		rec:          rec,
		sizeStripes:  newRNGStripes(cfg.Seed, nStripes()),
		adm:          cfg.Admission,
		ctx:          ctx,
		cancel:       cancel,
		started:      time.Now(),
	}
	s.jobPool.New = func() any { return &job{done: make(chan jobResult, 1)} }
	if _, iso := cfg.Admission.(admission.ClassIsolated); iso {
		s.admLocks = make([]paddedMutex, n)
	} else {
		s.admLocks = make([]paddedMutex, 1)
	}
	if err := s.loop.Reset(cfg.Spec.LoopConfig(cfg.Deltas, cfg.Window, w, rec)); err != nil {
		cancel()
		return nil, err
	}
	s.ladderHold.Store(s.loop.GateHeldOpen())
	if s.chaos != nil {
		s.chaosTick = s.chaos.Tick()
	}
	s.lastTickNano.Store(time.Now().UnixNano())
	s.classes = make([]*classRuntime, n)
	even := 1 / float64(n)
	stripes := nStripes()
	for i := range s.classes {
		cr := &classRuntime{
			queue:   make(chan *job, cfg.QueueCapacity),
			sigs:    make([]chan struct{}, cfg.WorkersPerClass),
			stripes: make([]windowStripe, stripes),
		}
		for wi := range cr.sigs {
			cr.sigs[wi] = make(chan struct{}, 1)
		}
		cr.rateBits.Store(math.Float64bits(even))
		s.classes[i] = cr
		s.met.delta.At(i).Set(cfg.Deltas[i])
		s.met.effDelta.At(i).Set(cfg.Deltas[i])
		s.met.rate.At(i).Set(even)
		s.met.windowSlow.At(i).Set(math.NaN())
	}
	for i := range s.classes {
		for wi := 0; wi < cfg.WorkersPerClass; wi++ {
			s.wg.Add(1)
			go s.worker(i, wi)
		}
	}
	s.wg.Add(1)
	go s.reallocLoop()
	if s.staleAfter > 0 {
		s.wg.Add(1)
		go s.watchdogLoop()
	}
	return s, nil
}

// Close stops the workers and the reallocation loop. Queued jobs are
// failed fast.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// wallDuration converts a span in nanoseconds to a Duration, reporting
// false unless it is at least 1ns and representable (not overflowed).
func wallDuration(ns float64) (time.Duration, bool) {
	if !(ns >= 1) || ns >= math.MaxInt64 {
		return 0, false
	}
	return time.Duration(ns), true
}

// minPaceRate floors the pacing rate when the installed class rate is
// non-positive (a positive allocation, however small, is honored
// honestly); each floored segment is counted per class in
// rateFloorClamps (exposed at /metrics). With the allocator-side
// core.MinRate floor active (Config.MinRate), this clamp is a pure
// regression tripwire that should never fire.
const minPaceRate = 1e-3

// worker is one task server for a class: paced to its share of the class
// rate, re-pacing in flight whenever the rate changes.
func (s *Server) worker(class, widx int) {
	defer s.wg.Done()
	cr := s.classes[class]
	sig := cr.sigs[widx]
	timer := timeutil.NewStoppedTimer()
	defer timer.Stop()
	// Per-worker fault stream (nil without chaos; the handle's methods
	// no-op on nil, so the production path pays one nil check).
	var wf *chaos.WorkerFaults
	if s.chaos != nil {
		wf = s.chaos.Worker(class, widx)
	}
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-cr.queue:
			if d := wf.StallFor(); d > 0 {
				// Injected worker stall: the job (and everything queued
				// behind it) accrues real queueing delay before service.
				timer.Reset(d)
				select {
				case <-timer.C:
				case <-s.ctx.Done():
					timeutil.StopTimer(timer)
					close(j.done)
					return
				}
			}
			start := time.Now()
			delay := start.Sub(j.enqueued)
			// An injected service spike inflates the paced demand only —
			// the estimator saw the true size at arrival, which is exactly
			// the modeling error the control plane must absorb.
			service, ok := s.pace(cr, class, sig, wf.InflateSize(j.size), timer)
			if !ok {
				close(j.done)
				return
			}
			slowdown := 0.0
			if service > 0 {
				slowdown = float64(delay) / float64(service)
			}
			s.recordCompletion(class, cr, delay, service, slowdown)
			j.done <- jobResult{delay: delay, service: service, slowdown: slowdown}
		}
	}
}

// paceOutcome reports how one occupy segment ended.
type paceOutcome int

const (
	paceDone     paceOutcome = iota // segment deadline reached
	paceRepace                      // rate changed mid-segment: recompute
	paceShutdown                    // server closed mid-service
)

// pace occupies the worker for size work units against the class's live
// rate — the GPS fluid model on wall clock. The worker paces at
// rate/WorkersPerClass so the class's W workers jointly honor the
// allocated r_i. The job's remaining work is pinned here, not a
// deadline: each segment runs at the rate read at its start, and a rate
// change ends the segment early, converts its elapsed wall time back
// into completed work at the segment's rate, and re-paces the remainder
// at the new rate. A size-x job served at r₁ then r₂ therefore completes
// after x₁/r₁ + x₂/r₂ time units (pinned within 1% by
// TestMultiWindowFluidCompletion). Returns the total service duration,
// or ok=false if the server shut down mid-service.
func (s *Server) pace(cr *classRuntime, class int, sig <-chan struct{}, size float64, timer *time.Timer) (service time.Duration, ok bool) {
	start := time.Now()
	segStart := start
	remaining := size
	for {
		rate := cr.currentRate()
		if rate <= 0 {
			rate = minPaceRate
			s.met.rateFloorClamps.At(class).Inc()
		}
		rate /= s.perWorkerDiv
		deadline := segStart.Add(time.Duration(remaining / rate * float64(s.cfg.TimeUnit)))
		switch s.occupy(deadline, sig, timer) {
		case paceDone:
			return time.Since(start), true
		case paceRepace:
			now := time.Now()
			remaining -= float64(now.Sub(segStart)) / float64(s.cfg.TimeUnit) * rate
			if remaining <= 0 {
				return now.Sub(start), true
			}
			segStart = now
		case paceShutdown:
			return 0, false
		}
	}
}

// occupy blocks the worker until the deadline, emulating CPU-bound work.
// Timers in Go routinely overshoot by hundreds of microseconds, which
// would silently tax slow classes (whose utilization sits closest to 1)
// and skew the achieved slowdown ratios; so the bulk of the wait uses a
// (caller-owned, reused) timer and the final stretch spins on the clock,
// yielding the processor each probe so sibling workers on the same P
// still run. A rate-change signal or shutdown ends the wait early.
func (s *Server) occupy(deadline time.Time, rateSig <-chan struct{}, timer *time.Timer) paceOutcome {
	const spinWindow = 500 * time.Microsecond
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return paceDone
		}
		if remain > spinWindow {
			timer.Reset(remain - spinWindow)
			select {
			case <-timer.C:
			case <-rateSig:
				timeutil.StopTimer(timer)
				return paceRepace
			case <-s.ctx.Done():
				timeutil.StopTimer(timer)
				return paceShutdown
			}
			continue
		}
		// Spin the last stretch; stay rate-change- and shutdown-responsive.
		select {
		case <-rateSig:
			return paceRepace
		case <-s.ctx.Done():
			return paceShutdown
		default:
			runtime.Gosched()
		}
	}
}

// recordCompletion accounts one served request: the lifetime slowdown and
// latency histograms (lock-free registry atomics) plus the current-window
// slowdown stripe that feeds the controller.
func (s *Server) recordCompletion(class int, cr *classRuntime, delay, service time.Duration, sl float64) {
	s.met.slowdown.At(class).Observe(sl)
	s.met.latency.At(class).Observe((delay + service).Seconds())
	cr.observeSlowdown(sl)
}

// reject accounts one shed request (admission gate or full queue) in the
// metric registry. Shed traffic never reaches the load estimator; the
// tick hands its work to the degradation ladder (closeShedWindow).
func (s *Server) reject(class int, size float64, byAdmission bool) {
	if byAdmission {
		s.met.rejAdmission.At(class).Inc()
	} else {
		s.met.rejQueueFull.At(class).Inc()
	}
	s.met.rejWork.At(class).Add(size)
}

// reallocLoop closes estimation windows and re-runs the allocator. With
// chaos armed, a tick may be dropped outright, delayed, or preceded by an
// admission-clock jump — the faults the stale-tick watchdog and the clock
// guards exist to absorb.
func (s *Server) reallocLoop() {
	defer s.wg.Done()
	period := time.Duration(s.cfg.Window * float64(s.cfg.TimeUnit))
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	delay := timeutil.NewStoppedTimer()
	defer delay.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			if tf := s.chaosTick; tf != nil {
				if tf.Drop() {
					continue
				}
				if d := tf.Delay(); d > 0 {
					delay.Reset(d)
					select {
					case <-s.ctx.Done():
						timeutil.StopTimer(delay)
						return
					case <-delay.C:
					}
				}
				if jump := tf.ClockJump(); jump != 0 {
					s.addClockSkew(jump)
				}
			}
			s.reallocate()
		}
	}
}

// addClockSkew shifts the admission clock by the given number of time
// units (fault injection only; the skew is 0 forever in production).
func (s *Server) addClockSkew(units float64) {
	for {
		old := s.clockSkewBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + units)
		if s.clockSkewBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// watchdogLoop monitors the reallocation loop from outside: if no tick
// has run for staleAfter it marks the control plane stalled (gauge +
// FlagStaleTick flight record with the frozen last-good rates) without
// ever taking loopMu — the stalled tick may be holding it. Pacing needs
// no intervention to freeze: workers keep serving at the last installed
// rates until a healthy tick replaces them.
func (s *Server) watchdogLoop() {
	defer s.wg.Done()
	poll := s.staleAfter / 4
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	rates := make([]float64, len(s.classes))
	lambdas := make([]float64, len(s.classes))
	deltas := make([]float64, len(s.classes))
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			elapsed := time.Duration(time.Now().UnixNano() - s.lastTickNano.Load())
			if elapsed <= s.staleAfter {
				if s.stalledFlag.CompareAndSwap(true, false) {
					s.met.watchdogStalled.Set(0)
				}
				continue
			}
			if s.stalledFlag.CompareAndSwap(false, true) {
				s.met.watchdogStalled.Set(1)
				s.met.watchdogStaleTicks.Inc()
				// Freeze marker: the last-good control state, stamped on
				// the wall clock (the control clock is unreachable without
				// loopMu). Reads are registry atomics and currentRate loads.
				for i, cr := range s.classes {
					rates[i] = cr.currentRate()
					lambdas[i] = s.met.lambda.At(i).Load()
					deltas[i] = s.met.effDelta.At(i).Load()
				}
				s.rec.Record(s.nowUnits(), obs.FlagStaleTick, lambdas, rates, nil, deltas)
			}
		}
	}
}

// reallocate performs one tick of the shared control plane: Swap-drain
// each class's window stripes into preallocated scratch, drive
// control.Loop (the exact step the simulator runs), and install the
// resulting rates. The tick itself allocates nothing (gated by
// BenchmarkReallocate). Exposed via the metrics reallocation counters;
// also called by tests directly for determinism.
func (s *Server) reallocate() {
	now := time.Now().UnixNano()
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	last := s.lastTickNano.Swap(now)
	if s.staleAfter > 0 && time.Duration(now-last) > s.staleAfter {
		// The loop went stale (stalled goroutine, dropped ticks): the
		// overlong window's counts would read as an inflated per-window λ̂,
		// so the stripes are drained and DISCARDED, pacing stays frozen at
		// the last-good rates, and the episode is counted and
		// flight-recorded instead of fed to the estimator.
		for _, cr := range s.classes {
			cr.closeWindow()
		}
		s.closeShedWindow()
		s.met.watchdogStaleTicks.Inc()
		s.met.watchdogStalled.Set(1)
		s.stalledFlag.Store(true)
		for i, cr := range s.classes {
			s.tickLambdas[i] = s.met.lambda.At(i).Load()
			s.tickCounts[i] = cr.currentRate() // scratch reuse: frozen rates
		}
		s.loop.EffectiveDeltasInto(s.tickDeltas)
		s.rec.Record(s.nowUnits(), obs.FlagStaleTick, s.tickLambdas, s.tickCounts, nil, s.tickDeltas)
		return
	}
	if s.stalledFlag.CompareAndSwap(true, false) {
		s.met.watchdogStalled.Set(0)
	}
	for i, cr := range s.classes {
		s.tickCounts[i], s.tickWork[i], s.tickSlows[i] = cr.closeWindow()
	}
	s.closeShedWindow()
	if tf := s.chaosTick; tf != nil {
		// Estimator-corruption fault: poison this tick's input vectors in
		// place — the control plane's guards must reject them.
		tf.Corrupt(s.tickCounts, s.tickWork, s.tickSlows)
	}
	rates, err := s.loop.Tick(control.TickInput{
		Counts:            s.tickCounts,
		Work:              s.tickWork,
		MeasuredSlowdowns: s.tickSlows,
		Shed:              s.tickShed,
	})
	if rej := s.loop.InputRejected(); rej != s.lastRejected {
		s.met.tickInputRejected.Add(int64(rej - s.lastRejected))
		s.lastRejected = rej
	}
	// Publish the tick's control state into the scrape gauges while still
	// holding loopMu (the loop's buffers are only stable under it); the
	// gauge writes themselves are lock-free atomics, so concurrent
	// snapshots read them without ever taking loopMu.
	s.loop.LambdasInto(s.tickLambdas)
	s.loop.EffectiveDeltasInto(s.tickDeltas)
	s.publishSeq.Add(1)
	for i := range s.classes {
		s.met.lambda.At(i).Set(s.tickLambdas[i])
		s.met.effDelta.At(i).Set(s.tickDeltas[i])
		s.met.windowSlow.At(i).Set(s.tickSlows[i])
		s.met.degradationLevel.At(i).Set(float64(s.loop.DegradationLevel(i)))
	}
	s.ladderHold.Store(s.loop.GateHeldOpen())
	if s.loop.LadderMaxedOut() {
		s.met.ladderShedding.Set(1)
	} else {
		s.met.ladderShedding.Set(0)
	}
	if err != nil {
		s.met.allocFailures.Inc() // transient infeasibility: keep previous rates
	} else {
		s.met.reallocations.Inc()
		for i, cr := range s.classes {
			cr.setRate(rates[i])
			s.met.rate.At(i).Set(rates[i])
		}
	}
	s.publishSeq.Add(1)
}

// closeShedWindow fills tickShed with each class's work shed since the
// last tick, read off the rejected-work counters, so the door's reject
// path pays nothing extra.
func (s *Server) closeShedWindow() {
	for i := range s.classes {
		total := s.met.rejWork.At(i).Load()
		s.tickShed[i] = total - s.shedWork[i]
		s.shedWork[i] = total
	}
}

// classify extracts the request's class (header beats query), clamped to
// the configured range; absent/invalid values map to the lowest class.
func (s *Server) classify(r *http.Request) int {
	v := r.Header.Get("X-PSD-Class")
	if v == "" {
		v = r.URL.Query().Get("class")
	}
	c, err := strconv.Atoi(v)
	if err != nil || c < 0 {
		return len(s.cfg.Deltas) - 1 // unclassified traffic gets the lowest tier
	}
	if c >= len(s.cfg.Deltas) {
		return len(s.cfg.Deltas) - 1
	}
	return c
}

// sizeOf extracts the declared work size or samples the configured law.
// Declared sizes are bounded by Config.MaxSize: an unbounded declaration
// could pin a class worker for an arbitrary span or overflow the
// float64→time.Duration pacing conversion (implementation-defined, on
// amd64 a past deadline — the job would "complete" instantly while its
// absurd work still poisons the estimator window).
func (s *Server) sizeOf(r *http.Request) (float64, error) {
	if v := r.URL.Query().Get("size"); v != "" {
		size, err := strconv.ParseFloat(v, 64)
		if err != nil || !(size > 0) || size > s.cfg.MaxSize {
			return 0, fmt.Errorf("httpsrv: invalid size %q (must be in (0, %g])", v, s.cfg.MaxSize)
		}
		return size, nil
	}
	return s.sampleSize(), nil
}

// Response is the JSON body returned for served work requests.
type Response struct {
	Class     int     `json:"class"`
	Size      float64 `json:"size"`
	DelayMs   float64 `json:"delay_ms"`
	ServiceMs float64 `json:"service_ms"`
	Slowdown  float64 `json:"slowdown"`
}

// nowUnits is the admission controllers' clock: time units since server
// start, plus any injected clock skew (0 forever in production — the
// skew load adds one uncontended atomic read to the admission path).
func (s *Server) nowUnits() float64 {
	return float64(time.Since(s.started))/float64(s.cfg.TimeUnit) +
		math.Float64frombits(s.clockSkewBits.Load())
}

// admit consults the configured admission controller (nil admits all)
// under the class's admission lock. charged reports whether the
// controller actually accounted the request (so a queue-full drop knows
// whether a refund is owed). With the degradation ladder armed, the
// gate stays open — uncharged — until every rung is engaged: degrade
// first, shed only when degradation has nothing left to give.
func (s *Server) admit(class int, size float64) (ok, charged bool) {
	if s.adm == nil {
		return true, false
	}
	if s.ladderHold.Load() {
		return true, false
	}
	now := s.nowUnits()
	mu := s.admLock(class)
	mu.Lock()
	ok = s.adm.Admit(class, size, now)
	mu.Unlock()
	return ok, ok
}

// refundAdmission returns an admitted request's credit when it was
// dropped before service (full class queue): without the refund the
// gate's admitted-load state double-counts shed demand and later
// admissible traffic is rejected below the contracted rate.
func (s *Server) refundAdmission(class int, size float64) {
	ref, ok := s.adm.(admission.Refunder)
	if !ok {
		return
	}
	now := s.nowUnits()
	mu := s.admLock(class)
	mu.Lock()
	ref.Refund(class, size, now)
	mu.Unlock()
}

// ServeHTTP implements http.Handler: every request is classified, vetted
// by the admission gate, queued, served by its class's task servers, and
// answered with its measured slowdown. GET /metrics (or the path the
// caller mounts Metrics on) should be routed to the Metrics handler
// instead.
//
// Only requests that actually enter a class queue feed the load
// estimator. Observing at arrival time (the old behavior) let
// 503-rejected traffic inflate λ̂ and the work estimate, over-allocating
// rate to the very class being shed; shed demand is instead counted per
// class in the rejected_* metrics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	class := s.classify(r)
	size, err := s.sizeOf(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out, status := s.Do(r.Context(), class, size)
	switch status {
	case Served:
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(Response{
			Class:     class,
			Size:      size,
			DelayMs:   float64(out.Delay) / float64(time.Millisecond),
			ServiceMs: float64(out.Service) / float64(time.Millisecond),
			Slowdown:  out.Slowdown,
		})
	case RejectedByAdmission:
		http.Error(w, "admission denied", http.StatusServiceUnavailable)
	case RejectedQueueFull:
		http.Error(w, "class queue full", http.StatusServiceUnavailable)
	case ShuttingDown:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	case Canceled:
		// Client gave up; the worker will still drain the job.
	}
}

// Mux returns a ready-to-serve mux: work at "/", the JSON metrics
// document at "/metrics" (Prometheus text with ?format=prom), the
// Prometheus exposition at "/metrics/prom", and the control-plane flight
// recorder dump at "/debug/control".
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.Metrics())
	mux.Handle("/metrics/prom", s.PromMetrics())
	mux.Handle("/debug/control", s.ControlDump())
	mux.Handle("/", s)
	return mux
}
