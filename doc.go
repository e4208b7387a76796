// Package psd reproduces "Processing Rate Allocation for Proportional
// Slowdown Differentiation on Internet Servers" (Zhou, Wei, Xu — IPDPS
// 2004) as a production-quality Go library.
//
// # The problem
//
// Slowdown — a request's queueing delay divided by its service time — is
// the natural responsiveness metric for servers handling jobs of wildly
// different sizes: clients expect small requests to come back fast and
// tolerate proportionally longer waits for big ones. Proportional
// slowdown differentiation (PSD) keeps the *ratio* of average slowdowns
// between service classes pinned to operator-chosen parameters δ_i,
// independent of load:
//
//	E[S_i] / E[S_j] = δ_i / δ_j
//
// # The paper's solution, reproduced here
//
// Partition the server's capacity among per-class FCFS task servers. For
// M/G_B/1 traffic (Poisson arrivals, Bounded Pareto sizes) the expected
// slowdown of a task server has the closed form (Theorem 1)
//
//	E[S_i] = λ_i·E[X²]·E[1/X] / (2(r_i − λ_i·E[X]))
//
// and the rate vector (Eq. 17)
//
//	r_i = λ_i·E[X] + (λ_i/δ_i)·(1 − ρ)/Σ_j(λ_j/δ_j)
//
// yields exactly proportional slowdowns. This module implements the
// closed forms, the allocator, the paper's simulation model, a real
// net/http server applying the strategy, every substrate they need
// (random streams, heavy-tailed distributions, a DES engine,
// proportional-share schedulers, load estimators), and a harness that
// regenerates all eleven evaluation figures.
//
// # Layout
//
// This root package is a thin facade over the implementation packages:
//
//	internal/core      Eq. 17 allocator (the contribution) + the policy
//	                   zoo: a registry (Register/Parse/Names) of rival
//	                   allocation policies — baselines, the logarithmic-
//	                   weight allocator, the degradation-aware downgrading
//	                   allocator, heSRPT weights — with per-policy
//	                   capability flags (analytic-eligible, needs-size-
//	                   info, degradation-aware)
//	internal/queueing  Lemma 1/2, Theorem 1, Eq. 15 closed forms
//	internal/dist      job-size laws (Bounded Pareto & friends) with
//	                   closed-form E[X], E[X²], E[1/X] and exact seeded
//	                   samplers; the Bounded Pareto draws from a lazily
//	                   built 256-layer ziggurat of its own density
//	internal/rng       xoshiro256** PRNG with split/jump substreams and
//	                   ziggurat exponential/normal variates (a draw takes
//	                   a variable number of words; streams per component
//	                   keep common random numbers)
//	internal/des       allocation-free discrete-event core: Slots, the
//	                   fixed-role event set the simulator runs (linear
//	                   scan over ≤ 2N+3 roles), and Simulator, the
//	                   general 4-ary value heap kept as its reference
//	internal/stats     streaming moments, window series, P² quantiles
//	internal/sched     the packetized disciplines on one value heap: SCFQ
//	                   (PGPS family) and the size-aware heSRPT (weighted
//	                   shortest-job-first)
//	internal/control   the shared control plane: one allocation-free
//	                   estimate→control→allocate Loop (window | EWMA
//	                   estimation, optional feedback trim, the
//	                   degradation ladder step under the downgrade
//	                   policy) driven by both the simulator and the live
//	                   HTTP server
//	internal/admission overload protection complementing differentiation
//	                   (utilization bound, per-class token bucket), shared
//	                   by the simulator and the live server's pre-queue gate,
//	                   plus the graceful-degradation ladder state machine
//	                   (scale per-class δ targets through rungs before
//	                   shedding, hysteresis recovery) that control.Loop
//	                   steps
//	internal/chaos     seeded deterministic fault injection for the live
//	                   path: worker stalls, service spikes, corrupted tick
//	                   inputs, dropped/late ticks, clock jumps, slow-loris
//	                   clients — per-site rng streams, nil-safe hooks,
//	                   zero cost when absent
//	internal/analytic  closed-form steady-state evaluator (Theorem 1 at
//	                   the allocated rates): exact slowdowns/ratios for
//	                   stationary fixed-rate points in ~100ns with zero
//	                   allocations, ErrNeedsSimulation for everything else
//	internal/simsrv    the paper's simulation model (Fig. 1) as a
//	                   reusable arena: one event skeleton (generators,
//	                   admission gate, control tick, metrics) ×
//	                   two service models (paced task servers | one
//	                   scheduler-driven processor) × three arrival
//	                   sources (Poisson, LoadSchedule redraw, trace
//	                   replay); Simulator Reset*/RunInto plus streaming
//	                   replication aggregation
//	internal/sweep     scenario-grid engine: (point, replication) task
//	                   queue over a pool of per-worker arenas, with an
//	                   Engine.Kind router (DES | Auto | Analytic) that
//	                   sends analytic-eligible points to closed forms —
//	                   validated and solved in 1024-point chunks across
//	                   the workers, their aggregates carved from three
//	                   slabs per chunk (no per-point allocation) —
//	                   plus the policy axis (Point.Policy, Tournament)
//	                   that races registered policies over one grid
//	internal/obs       allocation-free observability: atomic metrics
//	                   registry with log₂ histograms, Prometheus text
//	                   exposition, control-plane flight recorder
//	internal/workload  session-based e-commerce request streams
//	internal/loadgen   open-loop Poisson HTTP load driver with phased
//	                   (load-step) schedules and per-phase reports
//	internal/httpsrv   PSD on a real net/http server: a lock-free sharded
//	                   front door (atomic epoch-versioned rate publication,
//	                   striped Swap-drained window accounting, pooled jobs,
//	                   N pacing workers per class), rate-change-aware
//	                   worker pacing (GPS fluid model under rate churn),
//	                   pluggable admission gate, overload-honest estimation,
//	                   guarded control inputs, stale-tick watchdog, and the
//	                   degrade-before-shed gate the control loop's ladder
//	                   holds open
//	internal/figures   Figures 2–12 regeneration (on internal/sweep) plus
//	                   the beyond-paper estimator transient (13) and
//	                   policy tournament (14) studies
//	internal/cli       the flag vocabulary the cmd/ tools share: one
//	                   float-list parser and fatal exit, the -deltas,
//	                   -seed, size-law, control and sweep-engine groups
//
// Start with AllocateRates for the analytic strategy, Simulate for the
// paper's experiment rig, or internal/httpsrv for a live server. The
// runnable examples under examples/ walk through each.
//
// # Performance
//
// Every paper result averages 100 replications of a 70,000-time-unit
// simulation, so events/sec of internal/des bounds how many scenarios
// the harness can explore — and every figure is a grid of such scenario
// points, which internal/sweep shards across a pool of reusable
// simulation arenas (simsrv.Simulator) with streaming Welford+P²
// aggregation. Between control ticks the partitioned model is N
// independent FCFS queues at fixed rates, and the simulator steps it one
// class at a time there, finishing each request when it arrives
// (Lindley's recursion) unless it crosses the next tick, instead of
// scheduling it through the event set; the coupled models keep the
// global scan, and both give bit-identical results. BenchmarkReplication (root package) runs full
// paper-fidelity replications through one arena and gates allocs/event
// (< 0.01, both server models) and allocs/replication (< 10);
// BenchmarkFigureSweep gates a reduced Figure 2 grid at < 25
// allocs/replication, BenchmarkPolicyTournament every registered policy
// at <= 0.01, and BenchmarkAnalyticSweep the closed-form fast path at
// zero allocations and >= 100x the DES timed in the same process. The
// control loop, the instrumented request path and the live server's
// sharded front door carry the same <= 0.01 allocation gates in their
// packages' tests and benchmarks; CI runs every gate on each push, and
// the bench/ harness measures end-to-end throughput.
// For stationary fixed-rate points, EvaluateAnalytic (or -engine auto
// on the CLIs) skips simulation entirely and returns the paper's
// closed forms exactly.
// Seeded replications are reproducible bit-for-bit across engine
// versions and across arena reuse — the golden tests in internal/simsrv
// pin exact trajectories.
package psd
