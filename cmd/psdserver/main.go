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
	"os"
	"strconv"
	"strings"
	"time"

	"psd/internal/admission"
	"psd/internal/chaos"
	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/httpsrv"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		deltas    = flag.String("deltas", "1,2", "comma-separated differentiation parameters")
		timeUnit  = flag.Duration("timeunit", 10*time.Millisecond, "wall-clock duration of one work unit at full rate")
		window    = flag.Float64("window", 100, "reallocation window in time units")
		alpha     = flag.Float64("alpha", 1.5, "Bounded Pareto shape for undeclared sizes")
		lower     = flag.Float64("lower", 0.1, "Bounded Pareto lower bound")
		upper     = flag.Float64("upper", 100, "Bounded Pareto upper bound")
		allocator = flag.String("allocator", "psd", "rate-allocation policy from the core registry: "+strings.Join(core.Names(), " | "))
		feedback  = flag.Bool("feedback", false, "enable the slowdown-ratio feedback controller")
		estimator = flag.String("estimator", "window", "load estimator: window (paper) | ewma")
		ewmaAlpha = flag.Float64("ewma-alpha", 0.3, "EWMA smoothing factor in (0,1] (with -estimator ewma)")
		admPolicy = flag.String("admission", "none", "pre-queue admission gate: none | utilization | tokenbucket")
		admBound  = flag.Float64("admission-bound", 0.9, "utilization gate: admitted-load bound in (0,1]")
		admTau    = flag.Float64("admission-tau", 0, "utilization gate: smoothing time constant in time units (0: the reallocation window)")
		admRates  = flag.String("admission-rates", "", "token bucket: per-class work rates in work units per time unit (default: -admission-bound split evenly)")
		admBurst  = flag.Float64("admission-burst", 10, "token bucket: per-class credit cap in work units")
		flightrec = flag.Int("flightrec", 256, "control-plane flight recorder capacity in ticks (dump: GET /debug/control)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		workers   = flag.Int("workers-per-class", 1, "pacing workers per class; each paces at rate/N so the class aggregate is unchanged")
		minRate   = flag.Float64("min-rate", 0, "allocator-side per-class rate floor in capacity fractions (0: default 1e-3, negative: disable)")
		seed      = flag.Uint64("seed", 1, "server-side sampling seed")

		ladderOn      = flag.Bool("ladder", false, "enable the graceful-degradation ladder (degrade class deltas before shedding)")
		ladderRungs   = flag.String("ladder-rungs", "2,4,8", "ladder delta multipliers, ascending, each > 1")
		ladderEngage  = flag.Float64("ladder-engage-rho", 0.95, "utilization at or above which a tick counts as overloaded")
		ladderRecover = flag.Float64("ladder-recover-rho", 0.85, "utilization at or below which a tick counts as healthy (hysteresis)")
		watchdog      = flag.Float64("watchdog", 0, "stale-tick watchdog threshold in reallocation periods (0: default 4, negative: disable)")

		chaosSeed     = flag.Uint64("chaos-seed", 0, "fault-injection seed (any chaos probability > 0 arms the injector)")
		chaosStall    = flag.Float64("chaos-stall", 0, "per-job probability of a worker stall")
		chaosStallDur = flag.Duration("chaos-stall-dur", 100*time.Millisecond, "injected worker stall length")
		chaosSpike    = flag.Float64("chaos-spike", 0, "per-job probability of a service-latency spike (8x demand)")
		chaosCorrupt  = flag.Float64("chaos-corrupt", 0, "per-tick probability of corrupting the control inputs (NaN/Inf/negative)")
		chaosDrop     = flag.Float64("chaos-drop", 0, "per-tick probability of dropping the reallocation tick")
	)
	flag.Parse()

	ds, err := parseFloats(*deltas)
	if err != nil {
		fatalf("bad -deltas: %v", err)
	}
	svc, err := dist.NewBoundedPareto(*lower, *upper, *alpha)
	if err != nil {
		fatalf("bad Bounded Pareto parameters: %v", err)
	}
	kind, err := control.ParseEstimatorKind(*estimator)
	if err != nil {
		fatalf("bad -estimator: %v", err)
	}
	alloc, err := core.Parse(*allocator)
	if err != nil {
		fatalf("bad -allocator: %v", err)
	}
	if pol, _ := core.Lookup(*allocator); pol.Caps.NeedsSizeInfo {
		fatalf("policy %q needs per-job size information and requires the packetized simulator (psdsim -allocator %s); the live server paces partitioned task servers", *allocator, *allocator)
	}
	gate, err := buildAdmission(*admPolicy, *admBound, *admTau, *window, *admRates, *admBurst, len(ds))
	if err != nil {
		fatalf("bad admission flags: %v", err)
	}
	var ladder admission.LadderConfig
	if _, ok := alloc.(core.Downgrading); ok || *ladderOn {
		if !ok {
			// Every registered policy is in-place (core.Register enforces it).
			alloc = core.Downgrading{Base: alloc.(core.InPlaceAllocator)}
		}
		rungs, err := parseFloats(*ladderRungs)
		if err != nil {
			fatalf("bad -ladder-rungs: %v", err)
		}
		ladder = admission.LadderConfig{Multipliers: rungs, EngageRho: *ladderEngage, RecoverRho: *ladderRecover}
	}
	var injector *chaos.Injector
	if *chaosStall > 0 || *chaosSpike > 0 || *chaosCorrupt > 0 || *chaosDrop > 0 {
		injector, err = chaos.New(chaos.Config{
			Seed:        *chaosSeed,
			StallProb:   *chaosStall,
			StallDur:    *chaosStallDur,
			SpikeProb:   *chaosSpike,
			CorruptProb: *chaosCorrupt,
			DropProb:    *chaosDrop,
		})
		if err != nil {
			fatalf("bad chaos flags: %v", err)
		}
		log.Printf("CHAOS ARMED: seed=%d stall=%g spike=%g corrupt=%g drop=%g — this server injects faults into itself",
			*chaosSeed, *chaosStall, *chaosSpike, *chaosCorrupt, *chaosDrop)
	}
	srv, err := httpsrv.New(httpsrv.Config{
		Deltas:             ds,
		Service:            svc,
		Allocator:          alloc,
		TimeUnit:           *timeUnit,
		Window:             *window,
		WorkersPerClass:    *workers,
		MinRate:            *minRate,
		Feedback:           *feedback,
		Estimator:          kind,
		EWMAAlpha:          *ewmaAlpha,
		Admission:          gate,
		FlightRecorderSize: *flightrec,
		Seed:               *seed,
		Ladder:             ladder,
		WatchdogFactor:     *watchdog,
		Chaos:              injector,
	})
	if err != nil {
		fatalf("starting server: %v", err)
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

	log.Printf("psdserver listening on %s — %d classes, deltas %v, window %g tu (%v), workers/class=%d, allocator=%s, estimator=%s, feedback=%v, admission=%s, pprof=%v",
		*addr, len(ds), ds, *window, time.Duration(*window*float64(*timeUnit)), *workers, alloc.Name(), kind, *feedback, *admPolicy, *pprofOn)
	log.Printf("work endpoint: GET /?class=N&size=X   metrics: GET /metrics (JSON), /metrics/prom (Prometheus), /debug/control (flight recorder)")
	if err := http.ListenAndServe(*addr, mux); err != nil {
		fatalf("%v", err)
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
			if rates, err = parseFloats(ratesCSV); err != nil {
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

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "psdserver: "+format+"\n", args...)
	os.Exit(1)
}
