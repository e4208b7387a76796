// Command psdserver runs the PSD HTTP server: classified requests are
// queued per class and served by rate-allocated task servers, with live
// reallocation and a JSON metrics endpoint.
//
// Usage:
//
//	psdserver -addr :8080 -deltas 1,2
//	curl 'http://localhost:8080/?class=0&size=2'
//	curl http://localhost:8080/metrics
//
// A request's class comes from the X-PSD-Class header or ?class=; its
// work size from ?size= (work units) or, if absent, a Bounded Pareto
// sample. One work unit at full rate costs -timeunit of wall clock.
// An optional pre-queue admission gate (-admission utilization |
// tokenbucket) sheds overload with 503s before it can bias the load
// estimator; shed demand is accounted at /metrics.
//
// Observability: /metrics serves the JSON document, /metrics/prom (or
// /metrics?format=prom) the Prometheus text exposition, /debug/control
// the control-plane flight recorder (last -flightrec ticks). -pprof
// additionally mounts net/http/pprof under /debug/pprof/.
//
// Robustness: -ladder enables graceful degradation (per-class delta
// targets step down -ladder-rungs under sustained overload before any
// shedding, recovering with hysteresis) by wrapping the allocator in the
// downgrade policy, so it is the same as -allocator downgrade; the
// -ladder-* flags tune the ladder under either spelling. -watchdog
// tunes the stale-tick watchdog. The -chaos-* flags arm the
// deterministic fault-injection harness (worker stalls, service spikes,
// corrupted control inputs, dropped ticks) for resilience drills —
// never set them in production.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"time"

	"psd/internal/admission"
	"psd/internal/chaos"
	"psd/internal/cli"
	"psd/internal/core"
	"psd/internal/httpsrv"
)

func main() {
	var cfg httpsrv.Config
	deltasFlag := cli.Deltas(flag.CommandLine)
	sizeLaw := cli.SizeLaw(flag.CommandLine)
	controlFlags := cli.Control(flag.CommandLine, &cfg.Spec)
	cli.Seed(flag.CommandLine, &cfg.Seed)
	flag.DurationVar(&cfg.TimeUnit, "timeunit", 10*time.Millisecond, "wall-clock duration of one work unit at full rate")
	flag.Float64Var(&cfg.Window, "window", 100, "reallocation window in time units")
	flag.BoolVar(&cfg.Feedback, "feedback", false, "enable the slowdown-ratio feedback controller")
	flag.IntVar(&cfg.FlightRecorderSize, "flightrec", 256, "control-plane flight recorder capacity in ticks (dump: GET /debug/control)")
	flag.IntVar(&cfg.WorkersPerClass, "workers-per-class", 1, "pacing workers per class; each paces at rate/N so the class aggregate is unchanged")
	flag.Float64Var(&cfg.MinRate, "min-rate", 0, "allocator-side per-class rate floor in capacity fractions (0: default 1e-3, negative: disable)")
	flag.Float64Var(&cfg.WatchdogFactor, "watchdog", 0, "stale-tick watchdog threshold in reallocation periods (0: default 4, negative: disable)")
	flag.Float64Var(&cfg.Ladder.EngageRho, "ladder-engage-rho", 0.95, "utilization at or above which a tick counts as overloaded")
	flag.Float64Var(&cfg.Ladder.RecoverRho, "ladder-recover-rho", 0.85, "utilization at or below which a tick counts as healthy (hysteresis)")
	var chaosCfg chaos.Config
	flag.Uint64Var(&chaosCfg.Seed, "chaos-seed", 0, "fault-injection seed (any chaos probability > 0 arms the injector)")
	flag.Float64Var(&chaosCfg.StallProb, "chaos-stall", 0, "per-job probability of a worker stall")
	flag.DurationVar(&chaosCfg.StallDur, "chaos-stall-dur", 100*time.Millisecond, "injected worker stall length")
	flag.Float64Var(&chaosCfg.SpikeProb, "chaos-spike", 0, "per-job probability of a service-latency spike (8x demand)")
	flag.Float64Var(&chaosCfg.CorruptProb, "chaos-corrupt", 0, "per-tick probability of corrupting the control inputs (NaN/Inf/negative)")
	flag.Float64Var(&chaosCfg.DropProb, "chaos-drop", 0, "per-tick probability of dropping the reallocation tick")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		admPolicy   = flag.String("admission", "none", "pre-queue admission gate: none | utilization | tokenbucket")
		admBound    = flag.Float64("admission-bound", 0.9, "utilization gate: admitted-load bound in (0,1]")
		admTau      = flag.Float64("admission-tau", 0, "utilization gate: smoothing time constant in time units (0: the reallocation window)")
		admRates    = flag.String("admission-rates", "", "token bucket: per-class work rates in work units per time unit (default: -admission-bound split evenly)")
		admBurst    = flag.Float64("admission-burst", 10, "token bucket: per-class credit cap in work units")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		ladderOn    = flag.Bool("ladder", false, "enable the graceful-degradation ladder (degrade class deltas before shedding)")
		ladderRungs = flag.String("ladder-rungs", "2,4,8", "ladder delta multipliers, ascending, each > 1")
	)
	flag.Parse()

	cfg.Deltas = deltasFlag()
	cfg.Service = sizeLaw()
	policy := controlFlags()
	if pol, _ := core.Lookup(policy); pol.Caps.NeedsSizeInfo {
		cli.Fatalf("policy %q needs per-job size information and requires the packetized simulator (psdsim -allocator %s); the live server paces partitioned task servers", policy, policy)
	}
	var err error
	if cfg.Admission, err = buildAdmission(*admPolicy, *admBound, *admTau, cfg.Window, *admRates, *admBurst, len(cfg.Deltas)); err != nil {
		cli.Fatalf("bad admission flags: %v", err)
	}
	if _, ok := cfg.Allocator.(core.Downgrading); ok || *ladderOn {
		if !ok {
			// Every registered policy is in-place (core.Register enforces it).
			cfg.Allocator = core.Downgrading{Base: cfg.Allocator.(core.InPlaceAllocator)}
		}
		if cfg.Ladder.Multipliers, err = cli.Floats(*ladderRungs); err != nil {
			cli.Fatalf("bad -ladder-rungs: %v", err)
		}
	}
	if chaosCfg.StallProb > 0 || chaosCfg.SpikeProb > 0 || chaosCfg.CorruptProb > 0 || chaosCfg.DropProb > 0 {
		if cfg.Chaos, err = chaos.New(chaosCfg); err != nil {
			cli.Fatalf("bad chaos flags: %v", err)
		}
		log.Printf("CHAOS ARMED: seed=%d stall=%g spike=%g corrupt=%g drop=%g — this server injects faults into itself",
			chaosCfg.Seed, chaosCfg.StallProb, chaosCfg.SpikeProb, chaosCfg.CorruptProb, chaosCfg.DropProb)
	}
	srv, err := httpsrv.New(cfg)
	if err != nil {
		cli.Fatalf("starting server: %v", err)
	}
	defer srv.Close()

	mux := srv.Mux()
	if *pprofOn {
		// Mount explicitly instead of importing for side effects: the
		// handlers go on this mux, not http.DefaultServeMux, and only
		// when asked for.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	log.Printf("psdserver listening on %s — %d classes, deltas %v, window %g tu (%v), workers/class=%d, %s, admission=%s, pprof=%v",
		*addr, len(cfg.Deltas), cfg.Deltas, cfg.Window, time.Duration(cfg.Window*float64(cfg.TimeUnit)), cfg.WorkersPerClass, cfg.ApplyDefaults().Spec, *admPolicy, *pprofOn)
	log.Printf("work endpoint: GET /?class=N&size=X   metrics: GET /metrics (JSON), /metrics/prom (Prometheus), /debug/control (flight recorder)")
	if err := http.ListenAndServe(*addr, mux); err != nil {
		cli.Fatalf("%v", err)
	}
}

// buildAdmission maps the -admission* flags to a controller; nil means
// admit everything.
func buildAdmission(policy string, bound, tau, window float64, ratesCSV string, burst float64, classes int) (admission.Controller, error) {
	switch policy {
	case "none", "":
		return nil, nil
	case "utilization":
		if tau == 0 {
			tau = window
		}
		return admission.NewUtilizationBound(bound, tau)
	case "tokenbucket":
		var rates []float64
		if ratesCSV == "" {
			rates = make([]float64, classes)
			for i := range rates {
				rates[i] = bound / float64(classes)
			}
		} else {
			var err error
			if rates, err = cli.Floats(ratesCSV); err != nil {
				return nil, err
			}
			if len(rates) != classes {
				return nil, fmt.Errorf("-admission-rates has %d entries for %d classes", len(rates), classes)
			}
		}
		return admission.NewTokenBucket(rates, burst)
	default:
		return nil, fmt.Errorf("unknown policy %q (want none, utilization or tokenbucket)", policy)
	}
}
