package simsrv

import (
	"fmt"
	"math"
	"sync"

	"psd/internal/stats"
)

// Aggregate summarizes many independent replications of one Config, the
// paper's "each reported result is an average of 100 runs".
type Aggregate struct {
	Runs int
	// MeanSlowdowns[i] is the across-run mean of class i's per-run mean
	// slowdown; CI95 the 95% normal-approximation half-width.
	MeanSlowdowns []float64
	CI95          []float64
	// ExpectedSlowdowns are the model (Eq. 18) predictions.
	ExpectedSlowdowns []float64
	// SystemSlowdown is the across-run mean of the arrival-weighted
	// system slowdown.
	SystemSlowdown float64
	// RatioSummaries[i] summarizes the pooled per-window achieved
	// slowdown ratios of class i to class 0 across all runs (entry 0 is
	// the degenerate self-ratio and is left zero). Percentiles are P²
	// streaming estimates unless the aggregator ran in exact mode. Nil
	// when no window was simulated (a closed-form sweep point).
	RatioSummaries []stats.Summary
	// MeanRatios[i] is the across-run mean of (class i mean slowdown /
	// class 0 mean slowdown), the statistic plotted in Figures 9–10.
	MeanRatios []float64
	// WindowRatioMeans[i][k] is the across-run mean of measurement window
	// k's achieved class-i/class-0 slowdown ratio (NaN where no run had
	// both classes completing in that window). Nil unless the aggregator
	// ran with TrackWindowRatios — the transient-response figures use it
	// to plot estimator convergence after a load shift.
	WindowRatioMeans [][]float64
	// MeanShedRate is the across-run mean of the per-run shed fraction
	// ΣRejected/(ΣRejected+ΣCount) — the fraction of arrivals dropped by
	// admission control (0 without an admission gate). Rejections during
	// warmup are included: shedding is a capacity decision, not a
	// steady-state statistic, and the tournament figure compares
	// policies on everything they refused to serve.
	MeanShedRate float64
	// AllocFailures totals allocator fallbacks across runs.
	AllocFailures int
	// EventsProcessed totals DES events across runs (for throughput
	// accounting).
	EventsProcessed uint64
}

// Aggregator folds replication Results into an Aggregate as a stream, in
// O(classes) space: across-run means via Welford and pooled per-window
// ratio summaries via P² quantile markers (stats.StreamingSummary). The
// pre-streaming implementation buffered every window ratio of every run
// in [][]float64 and sorted the pool at the end — memory linear in
// runs×windows, which is exactly the batch-vs-streaming trade-off the P²
// estimator exists for. Because the consumed Result is fully copied into
// the accumulators, the SAME Result buffer can be recycled for the next
// replication — RunOrdered, the pipeline under internal/sweep,
// circulates a fixed pool of Results this way.
//
// Add must be called in replication order (rep 0, 1, 2, …): the P²
// markers and Welford accumulators are order-sensitive in the last few
// floating-point bits, and fixed order is what makes an Aggregate
// reproducible run-to-run regardless of worker scheduling.
type Aggregator struct {
	nc         int
	numWindows int
	runs       int
	exact      bool

	perClass   []stats.Welford
	ratioMeans []stats.Welford
	ratios     []stats.StreamingSummary
	pooled     [][]float64 // exact mode only
	// winRatios[i*numWindows+k] accumulates window k's class-i/class-0
	// ratio across runs; nil unless TrackWindowRatios.
	winRatios []stats.Welford
	system    stats.Welford
	shed      stats.Welford
	expected  []float64
	allocFail int
	events    uint64
}

// NewAggregator builds a streaming aggregator for replications of cfg
// (defaults applied here, so the class count is final).
func NewAggregator(cfg Config) *Aggregator {
	cfg = cfg.ApplyDefaults()
	nc := len(cfg.Classes)
	a := &Aggregator{
		nc:         nc,
		numWindows: measuredWindows(&cfg),
		perClass:   make([]stats.Welford, nc),
		ratioMeans: make([]stats.Welford, nc),
		ratios:     make([]stats.StreamingSummary, nc),
		expected:   make([]float64, nc),
	}
	for i := range a.ratios {
		a.ratios[i].Init()
	}
	return a
}

// measuredWindows is how many measurement windows a run of cfg reports
// (ClassStats.WindowMeans): the control windows from the last tick at or
// before Warmup to the end of the run.
func measuredWindows(cfg *Config) int {
	return int(math.Ceil((math.Mod(cfg.Warmup, cfg.Window) + cfg.Horizon) / cfg.Window))
}

// TrackWindowRatios additionally accumulates each measurement window's
// achieved slowdown ratios across runs (the transient time series behind
// the estimator-convergence figure). Must be selected before the first
// Add; memory is O(classes × windows).
func (a *Aggregator) TrackWindowRatios() {
	if a.runs > 0 {
		panic("simsrv: TrackWindowRatios after Add")
	}
	a.winRatios = make([]stats.Welford, a.nc*a.numWindows)
}

// UseExactQuantiles switches the ratio summaries to the exact batch path:
// every pooled window ratio is buffered and the percentiles computed by
// sorting, exactly as the pre-streaming engine did. Golden comparisons
// and accuracy tests use this; it must be selected before the first Add.
func (a *Aggregator) UseExactQuantiles() {
	if a.runs > 0 {
		panic("simsrv: UseExactQuantiles after Add")
	}
	a.exact = true
	a.pooled = make([][]float64, a.nc)
}

// Add folds one replication's Result into the aggregate. res must have
// the aggregator's class count; it is fully consumed and may be reused
// for the next replication.
func (a *Aggregator) Add(res *Result) {
	a.runs++
	for i := 0; i < a.nc; i++ {
		if res.Classes[i].Count > 0 {
			a.perClass[i].Add(res.Classes[i].MeanSlowdown)
		}
		if i > 0 {
			if s0 := res.Classes[0].MeanSlowdown; s0 > 0 && res.Classes[i].Count > 0 {
				a.ratioMeans[i].Add(res.Classes[i].MeanSlowdown / s0)
			}
			// Pool this run's per-window class-i/class-0 ratios,
			// skipping windows where either class has no completions.
			wi, w0 := res.Classes[i].WindowMeans, res.Classes[0].WindowMeans
			n := len(wi)
			if len(w0) < n {
				n = len(w0)
			}
			for k := 0; k < n; k++ {
				x, y := wi[k], w0[k]
				if math.IsNaN(x) || math.IsNaN(y) || y == 0 {
					continue
				}
				if a.exact {
					a.pooled[i] = append(a.pooled[i], x/y)
				} else {
					a.ratios[i].Add(x / y)
				}
				if a.winRatios != nil && k < a.numWindows {
					a.winRatios[i*a.numWindows+k].Add(x / y)
				}
			}
		}
	}
	if a.runs == 1 {
		copy(a.expected, res.ExpectedSlowdowns)
	}
	a.system.Add(res.SystemSlowdown)
	var served, rejected float64
	for i := 0; i < a.nc; i++ {
		served += float64(res.Classes[i].Count)
		rejected += float64(res.Classes[i].Rejected)
	}
	if total := served + rejected; total > 0 {
		a.shed.Add(rejected / total)
	} else {
		a.shed.Add(0)
	}
	a.allocFail += res.AllocFailures
	a.events += res.EventsProcessed
}

// Aggregate finalizes the accumulated replications.
func (a *Aggregator) Aggregate() (*Aggregate, error) {
	if a.runs == 0 {
		return nil, fmt.Errorf("simsrv: aggregate of zero replications")
	}
	agg := &Aggregate{
		Runs:              a.runs,
		MeanSlowdowns:     make([]float64, a.nc),
		CI95:              make([]float64, a.nc),
		ExpectedSlowdowns: make([]float64, a.nc),
		RatioSummaries:    make([]stats.Summary, a.nc),
		MeanRatios:        make([]float64, a.nc),
		SystemSlowdown:    a.system.Mean(),
		MeanShedRate:      a.shed.Mean(),
		AllocFailures:     a.allocFail,
		EventsProcessed:   a.events,
	}
	for i := 0; i < a.nc; i++ {
		agg.MeanSlowdowns[i] = a.perClass[i].Mean()
		agg.CI95[i] = a.perClass[i].ConfidenceInterval(0.95)
		agg.ExpectedSlowdowns[i] = a.expected[i]
		if i > 0 {
			agg.MeanRatios[i] = a.ratioMeans[i].Mean()
			if a.exact {
				if len(a.pooled[i]) > 0 {
					s, err := stats.Summarize(a.pooled[i])
					if err != nil {
						return nil, err
					}
					agg.RatioSummaries[i] = s
				}
			} else if a.ratios[i].N() > 0 {
				agg.RatioSummaries[i] = a.ratios[i].Summary()
			}
		}
	}
	if a.winRatios != nil {
		agg.WindowRatioMeans = make([][]float64, a.nc)
		for i := 0; i < a.nc; i++ {
			row := make([]float64, a.numWindows)
			for k := 0; k < a.numWindows; k++ {
				if w := &a.winRatios[i*a.numWindows+k]; w.N() > 0 {
					row[k] = w.Mean()
				} else {
					row[k] = math.NaN()
				}
			}
			agg.WindowRatioMeans[i] = row
		}
	}
	return agg, nil
}

// resultsPerWorker sizes RunOrdered's Result pool, and with it how far
// the other workers can run ahead of the task the consumer waits for.
// When that task's worker is descheduled (a host preempting its CPU), the
// others stop once the pool is parked in the reorder buffer, so the slack
// must cover a stall of some milliseconds even when a replication takes
// well under one.
const resultsPerWorker = 8

// RunOrdered is the replication pipeline under sweep.Engine: it runs tasks 0..total−1 on at most workers goroutines,
// each owning one reusable Simulator arena, and hands every finished
// Result to consume on the caller's goroutine in strict task order. A
// Result is only valid during its consume call — a small pool of them
// circulates. The error returned is that of the first failing task in
// task order (deterministically); consume is not called from that task
// on.
//
// A task travels with the Result it will fill: the feeder takes a
// Result from the pool before it hands out the next task, so the worker
// running the task the consumer is waiting for always owns one, however
// the scheduler interleaves the others. (Workers that took a task first
// and a Result second could park the whole pool in the reorder buffer
// behind a descheduled holder of that task, and block everyone.)
func RunOrdered(total, workers int, run func(sim *Simulator, res *Result, task int) error, consume func(task int, res *Result)) error {
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		// Sequential fast path: one arena, one Result, zero goroutines.
		var sim Simulator
		var res Result
		for task := 0; task < total; task++ {
			if err := run(&sim, &res, task); err != nil {
				return err
			}
			consume(task, &res)
		}
		return nil
	}

	type job struct {
		task int
		res  *Result
		err  error
	}
	poolSize := resultsPerWorker * workers
	// recycle and out each hold every pooled Result at once, so neither
	// the consumer returning a Result nor a worker delivering one blocks.
	recycle := make(chan *Result, poolSize)
	out := make(chan job, poolSize)
	for i := 0; i < poolSize; i++ {
		recycle <- new(Result)
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var sim Simulator
			for j := range jobs {
				j.err = run(&sim, j.res, j.task)
				out <- j
			}
		}()
	}
	go func() {
		for task := 0; task < total; task++ {
			jobs <- job{task: task, res: <-recycle}
		}
		close(jobs)
	}()

	// Consume in task order through a reorder buffer. Every task is
	// received even after a failure, which is what ends the feeder and
	// the workers.
	pending := make(map[int]job, poolSize)
	next := 0
	var firstErr error
	for received := 0; received < total; received++ {
		j := <-out
		pending[j.task] = j
		for {
			nj, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			switch {
			case firstErr != nil:
			case nj.err != nil:
				firstErr = nj.err
			default:
				consume(next, nj.res)
			}
			recycle <- nj.res
			next++
		}
	}
	wg.Wait()
	return firstErr
}

// ExpectedSystemSlowdown returns the arrival-weighted Eq. 18 prediction
// for the aggregate, mirroring SystemSlowdown.
func ExpectedSystemSlowdown(cfg Config, agg *Aggregate) float64 {
	cfg = cfg.ApplyDefaults()
	var num, den float64
	for i, c := range cfg.Classes {
		if math.IsNaN(agg.ExpectedSlowdowns[i]) {
			return math.NaN()
		}
		num += agg.ExpectedSlowdowns[i] * c.Lambda
		den += c.Lambda
	}
	if den == 0 {
		return 0
	}
	return num / den
}
