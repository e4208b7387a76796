package httpsrv

import (
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"time"

	"psd/internal/obs"
)

// The server's metric catalog. Every name here must be documented in the
// README's Observability section — CI greps this file and fails on an
// undocumented metric.
const (
	metricUptime          = "psd_uptime_seconds"
	metricReallocations   = "psd_reallocations_total"
	metricAllocFailures   = "psd_alloc_failures_total"
	metricRateFloorClamps = "psd_rate_floor_clamps_total"
	metricDelta           = "psd_class_delta"
	metricEffDelta        = "psd_class_effective_delta"
	metricRate            = "psd_class_rate"
	metricLambda          = "psd_class_lambda_estimate"
	metricWindowSlowdown  = "psd_class_window_slowdown"
	metricQueueDepth      = "psd_class_queue_depth"
	metricSlowdown        = "psd_class_slowdown"
	metricLatency         = "psd_class_latency_seconds"
	metricRejAdmission    = "psd_class_rejected_admission_total"
	metricRejQueueFull    = "psd_class_rejected_queue_full_total"
	metricRejWork         = "psd_class_rejected_work_total"

	// Robustness: control-plane input guards, stale-tick watchdog, and
	// the graceful-degradation ladder.
	metricTickInputRejected  = "psd_tick_input_rejected_total"
	metricWatchdogStalled    = "psd_watchdog_stalled"
	metricWatchdogStaleTicks = "psd_watchdog_stale_ticks_total"
	metricDegradationLevel   = "psd_class_degradation_level"
	metricLadderShedding     = "psd_ladder_shedding"
)

// Histogram layouts. Slowdowns live on [2⁻⁷, 2¹⁴) ≈ [0.008, 16384) — a
// zero-delay request underflows, a pathological slowdown overflows;
// latencies on [2⁻¹³, 2⁸) seconds ≈ [122 µs, 256 s).
const (
	slowdownHistFirstExp = -7
	slowdownHistBuckets  = 21
	latencyHistFirstExp  = -13
	latencyHistBuckets   = 21
)

// serverMetrics is the registry-backed replacement for the hand-rolled
// per-class counter fields the server used to carry: every hot-path
// touch (request completion, rejection, pacing clamp) is one atomic
// operation, and every read side (JSON document, Prometheus scrape) reads
// the same atomics without taking the control-plane mutex.
type serverMetrics struct {
	uptime        *obs.Gauge
	reallocations *obs.Counter
	allocFailures *obs.Counter

	// rateFloorClamps is per class: a starved class hitting the pacing
	// floor is attributable straight from /metrics.
	rateFloorClamps *obs.CounterVec

	delta      *obs.GaugeVec
	effDelta   *obs.GaugeVec
	rate       *obs.GaugeVec
	lambda     *obs.GaugeVec
	windowSlow *obs.GaugeVec
	queueDepth *obs.GaugeVec

	slowdown *obs.HistogramVec
	latency  *obs.HistogramVec

	rejAdmission *obs.CounterVec
	rejQueueFull *obs.CounterVec
	rejWork      *obs.FloatCounterVec

	tickInputRejected  *obs.Counter
	watchdogStalled    *obs.Gauge
	watchdogStaleTicks *obs.Counter
	degradationLevel   *obs.GaugeVec
	ladderShedding     *obs.Gauge
}

// newServerMetrics registers the catalog for n classes.
func newServerMetrics(reg *obs.Registry, n int) serverMetrics {
	return serverMetrics{
		uptime:          reg.Gauge(metricUptime, "Seconds since server start."),
		reallocations:   reg.Counter(metricReallocations, "Successful control-loop ticks."),
		allocFailures:   reg.Counter(metricAllocFailures, "Control ticks whose estimate was infeasible (previous rates retained)."),
		rateFloorClamps: reg.CounterVec(metricRateFloorClamps, "Pacing segments run at the minimum-rate floor because the allocated class rate was not positive.", "class", n),
		delta:           reg.GaugeVec(metricDelta, "Configured differentiation target delta per class.", "class", n),
		effDelta:        reg.GaugeVec(metricEffDelta, "Effective delta handed to the allocator (feedback-trimmed).", "class", n),
		rate:            reg.GaugeVec(metricRate, "Allocated processing rate per class (fraction of capacity).", "class", n),
		lambda:          reg.GaugeVec(metricLambda, "Estimated arrival rate per class (requests per time unit).", "class", n),
		windowSlow:      reg.GaugeVec(metricWindowSlowdown, "Mean slowdown of the last closed estimation window (NaN before one).", "class", n),
		queueDepth:      reg.GaugeVec(metricQueueDepth, "Requests queued per class (sampled at scrape).", "class", n),
		slowdown:        reg.HistogramVec(metricSlowdown, "Per-request slowdown (queueing delay over service time).", "class", n, slowdownHistFirstExp, slowdownHistBuckets),
		latency:         reg.HistogramVec(metricLatency, "Per-request server-side latency (queueing plus service), seconds.", "class", n, latencyHistFirstExp, latencyHistBuckets),
		rejAdmission:    reg.CounterVec(metricRejAdmission, "Requests shed by the admission gate (503).", "class", n),
		rejQueueFull:    reg.CounterVec(metricRejQueueFull, "Requests shed by a full class queue (503).", "class", n),
		rejWork:         reg.FloatCounterVec(metricRejWork, "Total shed demand in work units (admission gate and full queues).", "class", n),

		tickInputRejected:  reg.Counter(metricTickInputRejected, "Control ticks carrying NaN/Inf/negative input fields, discarded in favor of last-good estimates."),
		watchdogStalled:    reg.Gauge(metricWatchdogStalled, "1 while the stale-tick watchdog considers the reallocation loop stalled (pacing frozen at last-good rates)."),
		watchdogStaleTicks: reg.Counter(metricWatchdogStaleTicks, "Stall episodes and discarded overlong estimation windows detected by the stale-tick watchdog."),
		degradationLevel:   reg.GaugeVec(metricDegradationLevel, "Graceful-degradation ladder level per class (0 = nominal delta target).", "class", n),
		ladderShedding:     reg.Gauge(metricLadderShedding, "1 once the degradation ladder is maxed out and the admission gate may shed."),
	}
}

// ClassMetrics is the per-class section of the metrics document.
type ClassMetrics struct {
	Delta          float64 `json:"delta"`
	EffectiveDelta float64 `json:"effective_delta"`
	Rate           float64 `json:"rate"`
	LambdaEstimate float64 `json:"lambda_estimate"`
	Served         int64   `json:"served"`
	MeanSlowdown   float64 `json:"mean_slowdown"`
	WindowSlowdown float64 `json:"window_slowdown"`
	QueueDepth     int     `json:"queue_depth"`
	// RejectedAdmission/RejectedQueueFull count 503s from the admission
	// gate and from a full class queue; RejectedWork is the total demand
	// shed either way (work units). None of this traffic reaches the
	// load estimator.
	RejectedAdmission int64   `json:"rejected_admission"`
	RejectedQueueFull int64   `json:"rejected_queue_full"`
	RejectedWork      float64 `json:"rejected_work"`
	// RateFloorClamps counts this class's pacing segments run at the
	// minPaceRate floor (installed rate ≤ 0) — with the allocator-side
	// MinRate floor active this is a regression tripwire that should
	// stay zero.
	RateFloorClamps int64 `json:"rate_floor_clamps"`
	// DegradationLevel is the class's graceful-degradation ladder level
	// (0 = nominal δ target; always 0 unless the allocator is downgrading).
	DegradationLevel int `json:"degradation_level"`
}

// MetricsDocument is the full metrics payload.
type MetricsDocument struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Estimator names the control plane's smoothing strategy
	// ("window" | "ewma").
	Estimator string `json:"estimator"`
	// Reallocations counts successful control-loop ticks;
	// AllocFailures counts ticks whose estimate was infeasible (previous
	// rates retained).
	Reallocations int64 `json:"reallocations"`
	AllocFailures int64 `json:"alloc_failures"`
	// AdmissionPolicy names the pre-queue gate ("none" when disabled).
	AdmissionPolicy string `json:"admission_policy"`
	// RateFloorClamps counts pacing segments that ran at the minPaceRate
	// floor because the installed class rate was ≤ 0, summed over all
	// classes (per-class counts live in Classes).
	RateFloorClamps int64 `json:"rate_floor_clamps"`
	// TickInputRejected counts control ticks whose input carried
	// NaN/Inf/negative fields (discarded, last-good estimates kept);
	// WatchdogStaleTicks counts stall episodes and discarded overlong
	// windows, and WatchdogStalled reports whether the stale-tick
	// watchdog currently considers the reallocation loop stalled.
	TickInputRejected  int64 `json:"tick_input_rejected"`
	WatchdogStaleTicks int64 `json:"watchdog_stale_ticks"`
	WatchdogStalled    bool  `json:"watchdog_stalled"`
	// LadderShedding reports whether the degradation ladder is maxed out
	// (only then may the admission gate shed requests).
	LadderShedding bool           `json:"ladder_shedding"`
	Classes        []ClassMetrics `json:"classes"`
	SlowdownRatios []float64      `json:"slowdown_ratios"`
}

// jsonSafe maps NaN/Inf (which encoding/json rejects) to 0; absent
// measurements read as zero in the document.
func jsonSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Snapshot assembles the current metrics document entirely from registry
// atomics — it takes no lock at all, and in particular never touches the
// control-plane mutex, so a slow (or adversarial) scrape can never delay
// a reallocation tick, and a long tick holds a scrape up only while it
// writes its gauges. The control-plane gauges (rates, λ̂, effective δ,
// window slowdowns, degradation levels) and the tick counters are
// published by the tick that computes them, between two steps of
// publishSeq; Snapshot re-reads them until one pass saw no tick publish,
// so the rate vector it returns is always one tick's partition.
func (s *Server) Snapshot() MetricsDocument {
	n := len(s.classes)
	doc := MetricsDocument{
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Estimator:       s.cfg.Estimator.String(),
		AdmissionPolicy: "none",

		TickInputRejected:  s.met.tickInputRejected.Load(),
		WatchdogStaleTicks: s.met.watchdogStaleTicks.Load(),
		WatchdogStalled:    s.met.watchdogStalled.Load() != 0,
		Classes:            make([]ClassMetrics, n),
		SlowdownRatios:     make([]float64, n),
	}
	if s.adm != nil {
		doc.AdmissionPolicy = s.adm.Name()
	}
	for seq := s.publishSeq.Load(); ; seq = s.publishSeq.Load() {
		if seq&1 != 0 {
			runtime.Gosched() // a tick is publishing
			continue
		}
		doc.Reallocations = s.met.reallocations.Load()
		doc.AllocFailures = s.met.allocFailures.Load()
		doc.LadderShedding = s.met.ladderShedding.Load() != 0
		for i := range doc.Classes {
			cm := &doc.Classes[i]
			cm.EffectiveDelta = s.met.effDelta.At(i).Load()
			cm.Rate = s.met.rate.At(i).Load()
			cm.LambdaEstimate = s.met.lambda.At(i).Load()
			cm.WindowSlowdown = jsonSafe(s.met.windowSlow.At(i).Load())
			cm.DegradationLevel = int(s.met.degradationLevel.At(i).Load())
		}
		if s.publishSeq.Load() == seq {
			break
		}
	}
	var base float64
	var snap obs.HistogramSnapshot
	for i, cr := range s.classes {
		s.met.slowdown.At(i).SnapshotInto(&snap)
		cm := &doc.Classes[i]
		cm.Delta = s.cfg.Deltas[i]
		cm.Served = snap.Count
		cm.MeanSlowdown = jsonSafe(snap.Mean())
		cm.QueueDepth = len(cr.queue)
		cm.RejectedAdmission = s.met.rejAdmission.At(i).Load()
		cm.RejectedQueueFull = s.met.rejQueueFull.At(i).Load()
		cm.RejectedWork = s.met.rejWork.At(i).Load()
		cm.RateFloorClamps = s.met.rateFloorClamps.At(i).Load()
		doc.RateFloorClamps += cm.RateFloorClamps
		if i == 0 {
			base = cm.MeanSlowdown
		}
		if base > 0 {
			doc.SlowdownRatios[i] = cm.MeanSlowdown / base
		}
	}
	return doc
}

// refreshScrapeGauges updates the gauges that are sampled at read time
// rather than maintained by events (uptime, queue depths).
func (s *Server) refreshScrapeGauges() {
	s.met.uptime.Set(time.Since(s.started).Seconds())
	for i, cr := range s.classes {
		s.met.queueDepth.At(i).Set(float64(len(cr.queue)))
	}
}

// Metrics returns an http.Handler serving the JSON metrics document; with
// ?format=prom it serves the Prometheus text exposition instead.
func (s *Server) Metrics() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prom" {
			s.servePromMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Snapshot())
	})
}

// PromMetrics returns an http.Handler serving the Prometheus text
// exposition of the full metric catalog.
func (s *Server) PromMetrics() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		s.servePromMetrics(w)
	})
}

func (s *Server) servePromMetrics(w http.ResponseWriter) {
	s.refreshScrapeGauges()
	w.Header().Set("Content-Type", obs.PromContentType)
	_ = s.reg.WriteProm(w)
}

// ControlDump returns an http.Handler dumping the control-plane flight
// recorder as JSON: the last FlightRecorderSize ticks with λ̂, rates,
// measured slowdowns, effective δ and failure/clamp flags.
func (s *Server) ControlDump() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.rec.WriteJSON(w)
	})
}

// Registry exposes the server's metric registry (for embedding the
// catalog into a larger exposition, and for tests).
func (s *Server) Registry() *obs.Registry { return s.reg }
