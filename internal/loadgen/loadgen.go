// Package loadgen drives HTTP load at a PSD server (internal/httpsrv):
// one open-loop Poisson arrival process per class with client-side
// latency and server-reported slowdown collection. The arrivals are the
// simulator's: each class walks a workload.Stream through the run's
// workload.Phase schedule in time units, as internal/simsrv does, so for
// one seed a live and a simulated run serve the same requests. Reports
// break out each schedule segment, so a mid-run load step can be asserted
// on directly. It backs cmd/psdload and the httpserver example.
//
// An arrival at t time units is sent at start + t·TimeUnit, against an
// absolute clock with a reused timer, so per-iteration work (size
// sampling, dispatch) never stacks onto the gaps, and the achieved rate
// tracks the nominal λ even at thousands of requests per second (pinned
// by TestOpenLoopRateAccuracy). Requests are issued by a fixed worker
// pool over keep-alive connections (Config.Workers bounds in-flight
// concurrency, Config.MaxPending the dispatch queue); an arrival that
// would have to wait for a worker is shed client-side as sent+error, so
// a saturated server degrades the report, never the arrival process.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"psd/internal/chaos"
	"psd/internal/dist"
	"psd/internal/obs"
	"psd/internal/rng"
	"psd/internal/stats"
	"psd/internal/timeutil"
	"psd/internal/workload"
)

// Client-side latency histogram layout: log₂ buckets over
// [2⁻¹, 2²⁰) ms ≈ [0.5 ms, 17.5 min); faster responses underflow,
// slower ones overflow.
const (
	latencyHistFirstExp = -1
	latencyHistBuckets  = 21
)

// Config parametrizes a load run.
type Config struct {
	// BaseURL is the work endpoint (e.g. "http://127.0.0.1:8080/").
	BaseURL string
	// Lambdas are the per-class base arrival rates in requests per *time
	// unit*; TimeUnit converts to wall-clock (must match the server's).
	Lambdas []float64
	// TimeUnit is the wall-clock duration of one time unit (default
	// 10ms, matching httpsrv's default).
	TimeUnit time.Duration
	// Service draws request sizes client-side so the server and client
	// agree on the demand (default: the paper's Bounded Pareto).
	Service dist.Distribution
	// Duration is the wall-clock length of the run.
	Duration time.Duration
	// Schedule optionally scales the base rates piecewise, as
	// simsrv.Config.LoadSchedule does: each Start is in time units from
	// the run's start and must fall inside Duration, and each class's
	// pending arrival is redrawn at every boundary (exact for
	// piecewise-homogeneous Poisson, by memorylessness).
	Schedule []workload.Phase
	// Drain extends the wait for in-flight requests after arrival
	// generation stops (default 0: outstanding requests are canceled at
	// the end of the run, biasing the tail of heavy-tailed runs).
	Drain time.Duration
	// Workers sizes the request worker pool: the hard bound on
	// concurrently in-flight HTTP requests across all classes (default
	// 256). The pool reuses keep-alive connections (see the default
	// client's transport) instead of spawning one goroutine — and, under
	// churn, one connection — per arrival, so the client side stops
	// being the λ ceiling in saturation studies.
	Workers int
	// MaxPending bounds the dispatch queue between the arrival
	// schedulers and the worker pool (default 4×Workers). An arrival
	// that finds every worker busy and the queue full is shed
	// client-side and counted as sent+error: the open-loop clock never
	// blocks on a slow server, which would silently turn the generator
	// closed-loop.
	MaxPending int
	// Seed drives the arrival and size streams.
	Seed uint64
	// Client optionally overrides the HTTP client (default: keep-alives
	// with an idle-connection pool sized to Workers).
	Client *http.Client
	// Timeout bounds each individual request attempt (0: only the
	// client's own timeout applies). A timed-out attempt is a transport
	// error: retried while MaxRetries allows, an error otherwise.
	Timeout time.Duration
	// MaxRetries is how many times one arrival may be re-attempted after
	// a retryable failure — a transport error (including Timeout) or a
	// 5xx response (0: no retries). Retries are counted separately in the
	// report (ClassReport.Retries) and only the final attempt's latency
	// and slowdown are recorded, so retries never skew the achieved-
	// slowdown statistics; each arrival still counts as sent exactly
	// once.
	MaxRetries int
	// RetryBackoff is the base backoff before the first retry (default
	// 10ms), doubling per attempt up to 32× the base, with ±50%
	// deterministic seeded jitter so synchronized failures don't
	// re-arrive in lockstep.
	RetryBackoff time.Duration
	// Chaos optionally attaches the fault-injection harness's client-side
	// faults: while the injector is armed and configured with slow-loris
	// connections, the generator holds Loris.Conns raw TCP connections to
	// the server dribbling one header byte every Loris.Interval —
	// connection-exhaustion pressure outside the measured request
	// streams.
	Chaos *chaos.Injector
}

// ClassReport aggregates one class's observations (for one segment of
// the schedule, or the whole run).
type ClassReport struct {
	Sent      int64
	Completed int64
	Errors    int64
	// Retries counts re-attempts after retryable failures (transport
	// errors, 5xx). Kept apart from Sent/Completed/Errors: an arrival
	// that eventually succeeds is one sent + one completed regardless of
	// how many attempts it took, and only its final attempt's latency
	// and slowdown enter the statistics.
	Retries       int64
	MeanSlowdown  float64 // server-reported
	P95Slowdown   float64
	MeanLatencyMs float64 // client-observed end-to-end
	MeanServiceMs float64 // server-reported
	// NominalRate and AchievedRate compare the configured λ against
	// Sent over the covered interval, both in requests per time unit;
	// open-loop drift shows up as Achieved < Nominal.
	NominalRate  float64
	AchievedRate float64
	// LatencyHist is the client-observed end-to-end latency distribution
	// in milliseconds (log₂ buckets; see obs.HistogramSnapshot), exported
	// as JSON by psdload -report-json.
	LatencyHist obs.HistogramSnapshot
}

// Report is the run outcome.
type Report struct {
	// Classes aggregates the whole run.
	Classes []ClassReport
	// Phases holds one report per class per schedule segment, attributed
	// by arrival time: the first runs until the first phase's Start, then
	// one per phase (length 1 without a schedule).
	Phases  [][]ClassReport
	Elapsed time.Duration
}

// serverResponse mirrors httpsrv.Response.
type serverResponse struct {
	Slowdown  float64 `json:"slowdown"`
	ServiceMs float64 `json:"service_ms"`
}

type classCollector struct {
	mu        sync.Mutex
	sent      int64
	completed int64
	errors    int64
	retries   int64
	slow      stats.Welford
	slowP95   *stats.P2
	latency   stats.Welford
	service   stats.Welford
	// latHist bins the same client-observed latencies (ms) the Welford
	// mean summarizes; Observe is atomic, so it lives outside mu.
	latHist *obs.Histogram
}

func newCollector() *classCollector {
	h, err := obs.NewHistogram(latencyHistFirstExp, latencyHistBuckets)
	if err != nil {
		panic(err) // layout constants are compile-time; cannot fail
	}
	return &classCollector{slowP95: stats.NewP2(0.95), latHist: h}
}

// report snapshots the collector; nominal is the configured λ and units
// the covered interval's length in time units.
func (c *classCollector) report(nominal, units float64) ClassReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	achieved := math.NaN()
	if units > 0 {
		achieved = float64(c.sent) / units
	}
	return ClassReport{
		Sent:          c.sent,
		Completed:     c.completed,
		Errors:        c.errors,
		Retries:       c.retries,
		MeanSlowdown:  c.slow.Mean(),
		P95Slowdown:   c.slowP95.Value(),
		MeanLatencyMs: c.latency.Mean(),
		MeanServiceMs: c.service.Mean(),
		NominalRate:   nominal,
		AchievedRate:  achieved,
		LatencyHist:   c.latHist.Snapshot(),
	}
}

func validate(cfg Config) error {
	if cfg.BaseURL == "" {
		return errors.New("loadgen: BaseURL required")
	}
	if _, err := url.Parse(cfg.BaseURL); err != nil {
		return fmt.Errorf("loadgen: bad BaseURL: %w", err)
	}
	if cfg.TimeUnit < 0 {
		return fmt.Errorf("loadgen: time unit %v must not be negative", cfg.TimeUnit)
	}
	n := len(cfg.Lambdas)
	if n == 0 {
		return errors.New("loadgen: no class lambdas")
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("loadgen: duration %v must be positive", cfg.Duration)
	}
	if err := workload.ValidateSchedule(cfg.Schedule, n); err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	for seg := 0; seg <= len(cfg.Schedule); seg++ {
		if seg > 0 && !(cfg.Schedule[seg-1].Start < cfg.units()) {
			return fmt.Errorf("loadgen: load phase %d start %v is not inside the %v run", seg-1, cfg.Schedule[seg-1].Start, cfg.Duration)
		}
		for class := range cfg.Lambdas {
			// !(l >= 0) catches NaN. A mean gap under the clock's 1 ns
			// resolution, +Inf's included, draws zero-length gaps: the
			// generator would spin.
			if l := cfg.rate(seg, class); !(l >= 0) || (l > 0 && float64(cfg.TimeUnit)/l < 1) {
				return fmt.Errorf("loadgen: segment %d class %d arrival rate %v per %v must be >= 0 with a mean gap of at least 1ns", seg, class, l, cfg.TimeUnit)
			}
		}
	}
	if cfg.Drain < 0 {
		return fmt.Errorf("loadgen: drain %v must not be negative", cfg.Drain)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("loadgen: workers %d must not be negative", cfg.Workers)
	}
	if cfg.MaxPending < 0 {
		return fmt.Errorf("loadgen: max pending %d must not be negative", cfg.MaxPending)
	}
	if cfg.Timeout < 0 || cfg.RetryBackoff < 0 {
		return fmt.Errorf("loadgen: timeout %v and retry backoff %v must not be negative", cfg.Timeout, cfg.RetryBackoff)
	}
	if cfg.MaxRetries < 0 {
		return fmt.Errorf("loadgen: max retries %d must not be negative", cfg.MaxRetries)
	}
	return nil
}

// units returns the run's length in time units.
func (cfg *Config) units() float64 { return float64(cfg.Duration) / float64(cfg.TimeUnit) }

// rate returns class's arrival rate in schedule segment seg, scaled as
// workload.Stream.Scale scales it.
func (cfg *Config) rate(seg, class int) float64 {
	if seg == 0 {
		return cfg.Lambdas[class]
	}
	return cfg.Lambdas[class] * cfg.Schedule[seg-1].ScaleFor(class)
}

// walkArrivals is class's arrival script in time units from the run's
// start, walked as the simulator walks it: each arrival a gap after the
// last, and at each phase's Start the pending one redrawn from Start at
// the new rate (none while it is 0). It hands send each arrival before
// the end of the run, with its size and schedule segment, until send
// returns false.
func walkArrivals(cfg *Config, root *rng.Source, class int, send func(t, size float64, seg int) bool) {
	var s workload.Stream
	s.Reset(root, class, cfg.Lambdas[class], cfg.Service)
	after := func(t float64) float64 {
		if s.Rate() > 0 {
			return t + s.NextGap()
		}
		return math.Inf(1)
	}
	end, seg := cfg.units(), 0
	for t := after(0); ; t = after(t) {
		for ; seg < len(cfg.Schedule) && t >= cfg.Schedule[seg].Start; seg++ {
			s.Scale(cfg.Schedule[seg].ScaleFor(class))
			t = after(cfg.Schedule[seg].Start)
		}
		if !(t < end) || !send(t, s.NextSize(), seg) {
			return
		}
	}
}

// task is one scheduled arrival handed from a class's arrival generator
// to the worker pool.
type task struct {
	class      int
	size       float64
	pcol, ocol *classCollector
}

// Run drives the configured load until the schedule elapses (or ctx is
// canceled) and returns the aggregated report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.TimeUnit == 0 {
		cfg.TimeUnit = 10 * time.Millisecond
	}
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if cfg.Service == nil {
		cfg.Service = dist.PaperDefault()
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = 256
	}
	maxPending := cfg.MaxPending
	if maxPending == 0 {
		maxPending = 4 * workers
	}
	client := cfg.Client
	if client == nil {
		// Idle pool sized to the worker pool: every worker can hold a
		// keep-alive connection, so steady-state load runs over reused
		// connections instead of a dial per request.
		client = &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns:        workers,
				MaxIdleConnsPerHost: workers,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	nClasses := len(cfg.Lambdas)
	segs := len(cfg.Schedule) + 1

	// start anchors the arrival clock and MUST be captured before the
	// context deadlines below: the deadlines then land at or after the
	// run's end (start+Duration), so generation is never cut off inside
	// a normally-completed run.
	start := time.Now()

	// genCtx bounds arrival generation; reqCtx lets in-flight requests
	// drain for cfg.Drain beyond the end of the run.
	genCtx, genCancel := context.WithTimeout(ctx, cfg.Duration)
	defer genCancel()
	reqCtx, reqCancel := context.WithTimeout(ctx, cfg.Duration+cfg.Drain)
	defer reqCancel()

	// One collector per class for each schedule segment, and one for the
	// whole run.
	cols := make([][]*classCollector, segs+1)
	for k := range cols {
		cols[k] = make([]*classCollector, nClasses)
		for i := range cols[k] {
			cols[k][i] = newCollector()
		}
	}
	perPhase, overall := cols[:segs], cols[segs]

	src := rng.New(cfg.Seed)
	pol := retryPolicy{timeout: cfg.Timeout, maxRetries: cfg.MaxRetries, backoff: cfg.RetryBackoff}
	if pol.backoff == 0 {
		pol.backoff = 10 * time.Millisecond
	}

	// The worker pool: a fixed set of request goroutines draining the
	// dispatch queue, bounding in-flight requests at `workers`. Each
	// worker carries its own backoff-jitter stream (ids offset by 2³² so
	// they can never collide with the per-class arrival/size streams).
	tasks := make(chan task, maxPending)
	var poolWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		poolWG.Add(1)
		go func(jitter *rng.Source) {
			defer poolWG.Done()
			timer := timeutil.NewStoppedTimer()
			defer timer.Stop()
			for tk := range tasks {
				fire(reqCtx, client, cfg.BaseURL, tk, pol, jitter, timer)
			}
		}(src.Split(uint64(1)<<32 + uint64(w)))
	}

	// Client-side slow-loris faults ride alongside the measured load.
	var lorisWG sync.WaitGroup
	if cfg.Chaos != nil && cfg.Chaos.Config().Loris.Conns > 0 {
		runSlowLoris(reqCtx, &lorisWG, cfg.Chaos, cfg.BaseURL)
	}

	var wg sync.WaitGroup
	for class := 0; class < nClasses; class++ {
		wg.Add(1)
		go func(class int) {
			defer wg.Done()
			timer := timeutil.NewStoppedTimer()
			defer timer.Stop()
			walkArrivals(&cfg, src, class, func(t, size float64, seg int) bool {
				// Absolute clock: each arrival is sent at its scheduled
				// instant from the run's start, so sampling and spawn
				// overhead never accumulate into rate sag.
				if !sleepUntil(genCtx, timer, start.Add(time.Duration(t*float64(cfg.TimeUnit)))) {
					return false
				}
				tk := task{class: class, size: size, pcol: perPhase[seg][class], ocol: overall[class]}
				markSent(tk)
				select {
				case tasks <- tk:
				default:
					// Pool saturated and queue full: shed the arrival
					// client-side (sent+error) instead of blocking the
					// open-loop clock.
					fail([]*classCollector{tk.pcol, tk.ocol})
				}
				return true
			})
			sleepUntil(genCtx, timer, start.Add(cfg.Duration))
		}(class)
	}
	wg.Wait()
	close(tasks) // generators done: let the pool drain and exit
	poolWG.Wait()
	reqCancel() // release the loris connections before reporting
	lorisWG.Wait()

	rep := &Report{
		Classes: make([]ClassReport, nClasses),
		Phases:  make([][]ClassReport, segs),
		Elapsed: time.Since(start),
	}
	// Rates are computed over the COVERED interval: if the caller's ctx
	// cut the run short, each segment counts only the portion that
	// actually ran (a fully skipped one reports NaN achieved, not a fake
	// 100% drift against its nominal λ).
	bounds := make([]time.Duration, segs+1) // segment k is [bounds[k], bounds[k+1])
	for k, ph := range cfg.Schedule {
		bounds[k+1] = time.Duration(ph.Start * float64(cfg.TimeUnit))
	}
	bounds[segs] = cfg.Duration
	covered := make([]time.Duration, segs)
	for k := range covered {
		covered[k] = min(max(rep.Elapsed-bounds[k], 0), bounds[k+1]-bounds[k])
	}
	coveredTotal := min(rep.Elapsed, cfg.Duration)
	for k, cols := range perPhase {
		rep.Phases[k] = make([]ClassReport, nClasses)
		units := float64(covered[k]) / float64(cfg.TimeUnit)
		for i, col := range cols {
			rep.Phases[k][i] = col.report(cfg.rate(k, i), units)
		}
	}
	for i, col := range overall {
		// Whole-run nominal rate: the segment λs weighted by each
		// segment's share of the covered time (a share, not nanoseconds,
		// so the products stay as large as the λs themselves).
		nominal := math.NaN()
		if coveredTotal > 0 {
			nominal = 0
			for k := range covered {
				nominal += float64(cfg.rate(k, i) * (float64(covered[k]) / float64(coveredTotal)))
			}
		}
		rep.Classes[i] = col.report(nominal, float64(coveredTotal)/float64(cfg.TimeUnit))
	}
	return rep, nil
}

// sleepUntil blocks until the absolute instant at (or ctx cancellation,
// returning false) using the caller's reused timer. An instant already
// in the past returns immediately: open-loop arrivals fire late rather
// than thinning out.
func sleepUntil(ctx context.Context, timer *time.Timer, at time.Time) bool {
	wait := time.Until(at)
	if wait <= 0 {
		return ctx.Err() == nil
	}
	timer.Reset(wait)
	select {
	case <-ctx.Done():
		timeutil.StopTimer(timer)
		return false
	case <-timer.C:
		return true
	}
}

// markSent accounts an arrival at dispatch time (before it reaches a
// worker), so the sent counters reflect the open-loop arrival process
// even when the pool sheds.
func markSent(tk task) {
	for _, col := range []*classCollector{tk.pcol, tk.ocol} {
		col.mu.Lock()
		col.sent++
		col.mu.Unlock()
	}
}

// retryPolicy carries the per-attempt timeout and capped-exponential-
// backoff retry parameters into the worker pool.
type retryPolicy struct {
	timeout    time.Duration
	maxRetries int
	backoff    time.Duration
}

// attemptResult classifies one request attempt.
type attemptResult int

const (
	// attemptOK: served and recorded.
	attemptOK attemptResult = iota
	// attemptPermanent: failed in a way another attempt cannot cure
	// (malformed request, 4xx, undecodable body).
	attemptPermanent
	// attemptRetryable: transport error (including a per-attempt
	// timeout) or 5xx — the failures a healthy-again server would serve.
	attemptRetryable
)

// fire pushes one arrival through at most 1+maxRetries attempts. The
// arrival was already counted as sent (markSent); success records the
// FINAL attempt's latency and slowdown only, so retried arrivals carry
// no inflated latency into the achieved-slowdown statistics — the price
// of the retries is visible in the separate Retries counter instead.
func fire(ctx context.Context, client *http.Client, base string, tk task, pol retryPolicy, jitter *rng.Source, timer *time.Timer) {
	cols := []*classCollector{tk.pcol, tk.ocol}
	u := fmt.Sprintf("%s?class=%d&size=%s", base, tk.class, strconv.FormatFloat(tk.size, 'g', -1, 64))
	for attempt := 0; ; attempt++ {
		switch fireOnce(ctx, client, u, cols, pol.timeout) {
		case attemptOK:
			return
		case attemptPermanent:
			fail(cols)
			return
		case attemptRetryable:
			if attempt >= pol.maxRetries || ctx.Err() != nil {
				fail(cols)
				return
			}
			for _, col := range cols {
				col.mu.Lock()
				col.retries++
				col.mu.Unlock()
			}
			if !sleepBackoff(ctx, timer, pol.backoff, attempt, jitter) {
				fail(cols)
				return
			}
		}
	}
}

// fireOnce performs one request attempt, recording the outcome only on
// success.
func fireOnce(ctx context.Context, client *http.Client, u string, cols []*classCollector, timeout time.Duration) attemptResult {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return attemptPermanent
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return attemptRetryable
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= http.StatusInternalServerError {
			return attemptRetryable
		}
		return attemptPermanent
	}
	var sr serverResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return attemptPermanent
	}
	lat := time.Since(t0)
	latMs := float64(lat) / float64(time.Millisecond)
	for _, col := range cols {
		col.latHist.Observe(latMs)
		col.mu.Lock()
		col.completed++
		col.slow.Add(sr.Slowdown)
		col.slowP95.Add(sr.Slowdown)
		col.latency.Add(latMs)
		col.service.Add(sr.ServiceMs)
		col.mu.Unlock()
	}
	return attemptOK
}

// sleepBackoff waits base·2^attempt (capped at 32× base) with ±50%
// seeded jitter; false means the context ended first.
func sleepBackoff(ctx context.Context, timer *time.Timer, base time.Duration, attempt int, jitter *rng.Source) bool {
	d := base
	for i := 0; i < attempt && d < 32*base; i++ {
		d *= 2
	}
	if d > 32*base {
		d = 32 * base
	}
	d = time.Duration(float64(d) * (0.5 + jitter.Float64()))
	timer.Reset(d)
	select {
	case <-ctx.Done():
		timeutil.StopTimer(timer)
		return false
	case <-timer.C:
		return true
	}
}

// runSlowLoris holds inj.Config().Loris.Conns raw TCP connections to the
// base URL's host, each sending a valid request preamble and then
// dribbling one header byte per Loris.Interval while the injector is
// armed — the classic connection-exhaustion client. Connections redial
// on error and are torn down when ctx ends; the dribbled bytes are
// counted on the injector for reports.
func runSlowLoris(ctx context.Context, wg *sync.WaitGroup, inj *chaos.Injector, base string) {
	u, err := url.Parse(base)
	if err != nil || u.Host == "" {
		return
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	loris := inj.Config().Loris
	for i := 0; i < loris.Conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(loris.Interval)
			defer ticker.Stop()
			var conn net.Conn
			defer func() {
				if conn != nil {
					conn.Close()
				}
			}()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				if !inj.Armed() {
					continue
				}
				if conn == nil {
					var d net.Dialer
					c, err := d.DialContext(ctx, "tcp", host)
					if err != nil {
						continue
					}
					conn = c
					if _, err := fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: %s\r\nX-Loris: ", u.Hostname()); err != nil {
						conn.Close()
						conn = nil
						continue
					}
				}
				if _, err := conn.Write([]byte{'z'}); err != nil {
					conn.Close()
					conn = nil
					continue
				}
				inj.CountLorisByte()
			}
		}()
	}
}

func fail(cols []*classCollector) {
	for _, col := range cols {
		col.mu.Lock()
		col.errors++
		col.mu.Unlock()
	}
}

// SlowdownRatio returns the achieved whole-run mean slowdown ratio of
// class i to class 0, or NaN when unavailable (out-of-range i, class 0
// without a positive mean). NaN — not 0 — so a `ratio < bound` check can
// never silently pass on missing data.
func (r *Report) SlowdownRatio(i int) float64 {
	return slowdownRatio(r.Classes, i)
}

// PhaseSlowdownRatio is SlowdownRatio restricted to one phase.
func (r *Report) PhaseSlowdownRatio(phase, i int) float64 {
	if phase < 0 || phase >= len(r.Phases) {
		return math.NaN()
	}
	return slowdownRatio(r.Phases[phase], i)
}

func slowdownRatio(classes []ClassReport, i int) float64 {
	if i <= 0 || i >= len(classes) {
		return math.NaN()
	}
	base := classes[0].MeanSlowdown
	if !(base > 0) {
		return math.NaN()
	}
	return classes[i].MeanSlowdown / base
}
