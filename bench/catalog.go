package main

// metricDef names one metric exactly as BENCHMARK.json declares it.
// bench_test.go holds the two lists against that file.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median
}

// endToEnd are the metrics a user of the system sees, taken with tracing
// off. The driver wants every one of them from every workload, so each
// has one definition that holds on all five (README.md, "End-to-end
// metrics"): the three rates all report the workload's operations per
// second, and overhead equals latency on the batch workloads, whose
// model accounts for none of the wall time, and on live-paced, whose
// latency is already net of the modelled time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"points_per_s", "1/s", "higher", 0.25},
	{"reqs_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p90_us", "us", "lower", 0.25},
	{"overhead_p50_us", "us", "lower", 0.25},
	{"overhead_p90_us", "us", "lower", 0.25},
	{"cpu_ns_per_op", "ns", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// locPackages are the packages whose non-test, non-blank Go lines are
// reported as <pkg>.loc (ROADMAP aim 2: the trend is down).
var locPackages = []string{
	"admission", "analytic", "chaos", "control", "core", "des", "dist",
	"figures", "httpsrv", "loadgen", "obs", "queueing", "rng", "sched",
	"simsrv", "stats", "sweep", "timeutil", "workload",
}

var workloadNames = []string{"fig-des", "sim-transient", "sweep-analytic", "live-http", "live-paced"}

// workloadSizes records what one round of each workload is, at scale 1.
var workloadSizes = map[string]string{
	"fig-des":        "round = Figure 2 through the DES: 11 loads x 8 runs x 70000 tu, then WriteCSV; rounds until -seconds",
	"sim-transient":  "round = one Engine.Run over 40 transient points (3 and 8 classes, 7000 tu, window 10) + 1 trace replay",
	"sweep-analytic": "round = one Engine.Run(Auto) over 7 class counts x 3 delta sets x 200 loads x every analytic-eligible policy",
	"live-http":      "round = 20000 GETs over loopback, GOMAXPROCS closed-loop keep-alive clients, after 8000 warm-up requests",
	"live-paced":     "open loop, Poisson at 60 % load (~2070 req/s at 1 ms per time unit) for -seconds; round = 2000 scheduled requests",
}

// perLayer are the single-layer metrics of a traced run. A value a
// workload cannot produce (no DES events on a live workload, no pacing
// in a simulation) is reported as 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ns", "lower", "rng.uint64_ns", "rng.float64open_ns", "rng.exp_ns", "rng.split_ns")
	add("ns", "lower", "dist.bp_sample_ns", "dist.exp_sample_ns", "dist.lognormal_sample_ns",
		"dist.hyperexp_sample_ns", "dist.empirical_sample_ns", "dist.bp_moments_ns")
	add("ns", "lower", "des.schedule_step_ns", "des.cancel_ns", "des.reset_ns")
	add("count", "lower", "des.pending_max")
	add("ns", "lower", "simsrv.ns_per_event_2c", "simsrv.ns_per_event_8c", "simsrv.pk_ns_per_event", "simsrv.trace_ns_per_event")
	add("us", "lower", "simsrv.reset_us")
	add("count", "lower", "simsrv.events")
	add("ratio", "lower", "simsrv.ratio_err_max")
	add("ns", "lower", "sched.scfq_op_ns", "sched.hesrpt_op_ns", "sched.setweights_ns")
	add("ns", "lower", "control.tick_window_ns", "control.tick_ewma_ns", "control.tick_feedback_ns", "control.observe_ns")
	add("count", "lower", "control.ticks")
	add("ns", "lower", "core.psd_alloc_ns", "core.log_alloc_ns", "core.ppsd_alloc_ns", "core.downgrade_alloc_ns", "core.parse_ns")
	add("ns", "lower", "analytic.eval_ns")
	add("share", "lower", "analytic.refused_share")
	add("ns", "lower", "queueing.theorem1_ns")
	add("ratio", "higher", "sweep.efficiency")
	add("us", "lower", "sweep.overhead_us_per_rep")
	add("ns", "lower", "sweep.route_ns_per_point")
	add("count", "higher", "sweep.workers")
	add("us", "lower", "figures.csv_us")
	add("count", "higher", "figures.points")
	add("hash", "higher", "figures.csv_fnv64")
	add("ns", "lower", "stats.welford_add_ns", "stats.p2_add_ns", "workload.generate_ns_per_req")
	add("MB/s", "higher", "workload.readtrace_mb_per_s")
	add("ns", "lower", "httpsrv.do_ns", "httpsrv.do_parallel_ns", "httpsrv.handler_ns", "httpsrv.reject_ns")
	add("us", "lower", "httpsrv.snapshot_us", "httpsrv.prom_us")
	add("ms", "lower", "httpsrv.new_ms")
	add("ratio", "lower", "httpsrv.cpu_per_paced_s", "httpsrv.pace_inflation", "httpsrv.ratio_err")
	add("us", "lower", "httpsrv.sojourn_p50_us", "httpsrv.do_overhead_p50_us", "httpsrv.do_overhead_p90_us")
	add("count", "lower", "httpsrv.inflight_max")
	add("us", "lower", "net.loopback_rtt_us", "net.loopback_cpu_us")
	add("ns", "lower", "obs.counter_inc_ns", "obs.hist_observe_ns", "obs.flightrec_record_ns",
		"admission.tokenbucket_admit_ns", "admission.ladder_observe_ns")
	add("count", "lower", "runtime.allocs_per_op", "runtime.gc_cycles")
	add("ms", "lower", "runtime.gc_pause_ms")
	for _, p := range locPackages {
		add("lines", "lower", p+".loc")
	}
	add("us", "lower", "bench.gen_lag_p50_us", "bench.gen_lag_p90_us")
	add("ns", "lower", "bench.calib_ns")
	add("share", "lower", "bench.trace_overhead_share")
	add("us", "lower", "bench.latency_p99_us", "bench.latency_p999_us", "bench.overhead_p99_us")
	add("share", "lower", "failed_share")
	for _, w := range workloadNames {
		add("ratio", "higher", "ledger.closure."+w)
	}
	return out
}
