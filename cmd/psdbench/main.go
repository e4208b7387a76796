// Command psdbench measures end-to-end simulation throughput and writes
// a machine-readable baseline (BENCH_psd.json by default). The committed
// baseline is the repo's performance trajectory: regenerate it after any
// engine change and compare events_per_sec against the previous commit.
//
// Each simulation scenario runs full paper-fidelity replications
// (10,000 tu warmup + 60,000 tu measured, §4.1) single-threaded through
// one reusable Simulator arena, so events_per_sec is a per-core number
// directly comparable to BenchmarkReplication. The figure-sweep scenario
// instead drives the internal/sweep engine over a reduced-fidelity
// Figure 2 grid and reports replications/sec and allocs/replication —
// the numbers the arena engine exists to improve.
//
// Usage:
//
//	psdbench                     # writes BENCH_psd.json in the cwd
//	psdbench -runs 16 -o out.json
//	psdbench -o -                # print JSON to stdout
//	psdbench -compare BENCH_psd.json            # regression gate (CI)
//	psdbench -compare BENCH_psd.json -compare-tolerance 0.30
//
// In -compare mode the tool exits non-zero when a machine-independent
// gate is breached; events_per_sec (or replications/sec, or ticks/sec)
// more than the tolerance below the baseline is printed as a note, since
// the baseline was written on another machine. The allocation gates:
// event-driven scenarios must stay under 0.01 allocs/event,
// the figure sweep under 25 allocs/replication, and the control-tick
// scenario (the shared control.Loop in isolation) under 0.01
// allocs/tick. The obs-hotpath scenario gates the observability layer
// the same way on both of its sections: metric-instrumented events at
// 0.01 allocs/event AND flight-recorded control ticks at 0.01
// allocs/tick. The live-contention scenario (schema v4) storms the live
// server's sharded front door in-process at GOMAXPROCS=1 and again at
// GOMAXPROCS=min(NumCPU,8), gating 0.01 allocs/request under contention;
// its core-aware speedup floor (>= 0.5·P with 4+ cores, >= 1x on 2-3
// cores, skipped on a single core) depends on what else the box is
// running and is a note too. The analytic-sweep scenario
// (schema v5) evaluates the figure2-sweep grid through the closed-form
// fast path (internal/analytic): a warm evaluation must stay under 0.01
// allocs/point, and its points/s must beat the DES figure sweep's
// replications/s by at least 100x — both machine-independent ratios, so
// they gate exactly in -compare. The policy-tournament scenario (schema
// v6) runs every policy in the core registry — fluid policies through
// one retained Simulator arena each, size-aware policies through the
// packetized model with a retained scheduler — and gates 0.01
// allocs/replication: registering a policy whose reset or steady state
// allocates fails CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"psd/internal/analytic"
	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/obs"
	"psd/internal/sched"
	"psd/internal/simsrv"
	"psd/internal/sweep"
)

// Allocation gates enforced in -compare mode (and reported always).
const (
	allocsPerEventGate = 0.01
	allocsPerRepGate   = 25.0
	allocsPerTickGate  = 0.01
	allocsPerPointGate = 0.01
	// allocsPerTournamentRepGate is far stricter than the figure-sweep
	// gate: the tournament drives each policy's Simulator arena directly
	// (no sweep engine, no aggregation), so a warm replication of ANY
	// registered policy — ladder and retained scheduler included — must
	// not allocate.
	allocsPerTournamentRepGate = 0.01
	// analyticSpeedupFloor is the minimum points/s-over-reps/s ratio the
	// closed-form path must keep over the DES sweep. Conservative by
	// construction: it compares one analytic point against ONE DES
	// replication, while a published figure point averages many.
	analyticSpeedupFloor = 100.0
)

type scenarioResult struct {
	Name           string  `json:"name"`
	Classes        int     `json:"classes"`
	Load           float64 `json:"load"`
	Model          string  `json:"model"`
	Runs           int     `json:"runs"`
	Warmup         float64 `json:"warmup"`
	Horizon        float64 `json:"horizon"`
	Events         uint64  `json:"events"`
	WallSeconds    float64 `json:"wall_seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Figure-sweep metrics (zero for event-driven scenarios).
	Replications int     `json:"replications,omitempty"`
	RepsPerSec   float64 `json:"reps_per_sec,omitempty"`
	AllocsPerRep float64 `json:"allocs_per_rep,omitempty"`
	// Control-tick metrics (control-tick scenario only).
	Ticks         int     `json:"ticks,omitempty"`
	TicksPerSec   float64 `json:"ticks_per_sec,omitempty"`
	AllocsPerTick float64 `json:"allocs_per_tick,omitempty"`
	// Live-contention metrics (live-contention scenario only, schema v4):
	// the in-process front-door storm at GOMAXPROCS=StormProcs vs the
	// same storm at GOMAXPROCS=1, on a machine with StormCores CPUs.
	Requests         int     `json:"requests,omitempty"`
	ReqsPerSec       float64 `json:"reqs_per_sec,omitempty"`
	SerialReqsPerSec float64 `json:"serial_reqs_per_sec,omitempty"`
	Speedup          float64 `json:"speedup,omitempty"`
	StormProcs       int     `json:"storm_procs,omitempty"`
	StormCores       int     `json:"storm_cores,omitempty"`
	AllocsPerReq     float64 `json:"allocs_per_req,omitempty"`
	// Analytic-sweep metrics (analytic-sweep scenario only, schema v5):
	// closed-form evaluations of the figure2-sweep grid. Speedup here is
	// points/s over the figure2-sweep scenario's reps/s from the same run.
	Points         int     `json:"points,omitempty"`
	PointsPerSec   float64 `json:"points_per_sec,omitempty"`
	AllocsPerPoint float64 `json:"allocs_per_point,omitempty"`
	// Policy-tournament metrics (policy-tournament scenario only, schema
	// v6): how many registry policies competed; throughput reuses the
	// replication fields above.
	Policies int `json:"policies,omitempty"`
}

type report struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	// GOMAXPROCS and Commit stamp the run's provenance (schema v3): the
	// parallelism the figure sweep ran at and the VCS revision the binary
	// was built from (falling back to `git rev-parse HEAD`, since `go run`
	// builds carry no VCS stamp; "unknown" only outside a work tree).
	GOMAXPROCS int              `json:"gomaxprocs"`
	Commit     string           `json:"commit"`
	Scenarios  []scenarioResult `json:"scenarios"`
}

// buildCommit extracts the VCS revision baked into the binary, falling
// back to asking git directly: `go run` and test binaries are built
// without -buildvcs, which is how every committed baseline ended up
// stamped "unknown".
func buildCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				if s.Value != "" {
					return s.Value
				}
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	return "unknown"
}

type scenario struct {
	name             string
	deltas           []float64
	load             float64
	packetized       bool
	trace            bool
	figureSweep      bool
	controlTick      bool
	obsHotpath       bool
	liveContention   bool
	analyticSweep    bool
	policyTournament bool
}

func scenarios() []scenario {
	return []scenario{
		{name: "2class-load0.6", deltas: []float64{1, 4}, load: 0.6},
		{name: "5class-load0.8", deltas: []float64{1, 2, 4, 8, 16}, load: 0.8},
		{name: "8class-load0.9", deltas: []float64{1, 2, 3, 4, 6, 8, 12, 16}, load: 0.9},
		{name: "2class-load0.6-packetized", deltas: []float64{1, 4}, load: 0.6, packetized: true},
		{name: "2class-load0.6-trace", deltas: []float64{1, 2}, load: 0.6, trace: true},
		{name: "figure2-sweep", deltas: []float64{1, 2}, figureSweep: true},
		// analytic-sweep must come after figure2-sweep: its speedup is
		// points/s over that scenario's freshly measured reps/s.
		{name: "analytic-sweep", deltas: []float64{1, 2}, analyticSweep: true},
		{name: "policy-tournament", deltas: []float64{1, 2, 4}, load: 0.7, policyTournament: true},
		{name: "control-tick", deltas: []float64{1, 2, 3, 4, 6, 8, 12, 16}, controlTick: true},
		{name: "obs-hotpath", deltas: []float64{1, 2, 3, 4, 6, 8, 12, 16}, obsHotpath: true},
		{name: "live-contention", deltas: []float64{1, 2, 4, 8}, liveContention: true},
	}
}

func main() {
	var (
		out     = flag.String("o", "BENCH_psd.json", "output path, or - for stdout")
		runs    = flag.Int("runs", 8, "replications per scenario")
		warmup  = flag.Float64("warmup", 10000, "warmup duration (time units)")
		horizon = flag.Float64("horizon", 60000, "measured duration (time units)")
		seed    = flag.Uint64("seed", 1, "base random seed")
		compare = flag.String("compare", "", "baseline JSON to compare against; a breached allocation or speedup-ratio gate exits non-zero")
		tol     = flag.Float64("compare-tolerance", 0.15, "fractional throughput drop below the baseline that -compare mode notes")
	)
	flag.Parse()
	outSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "o" {
			outSet = true
		}
	})

	rep := report{
		Schema:      "psd-bench/v6",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Commit:      buildCommit(),
	}
	for _, sc := range scenarios() {
		res, err := runScenario(sc, *runs, *warmup, *horizon, *seed, rep.Scenarios)
		if err != nil {
			fatalf("%s: %v", sc.name, err)
		}
		rep.Scenarios = append(rep.Scenarios, res)
		if sc.analyticSweep {
			fmt.Fprintf(os.Stderr, "%-28s %10d points  %8.3fs  %12.0f points/s  %7.0fx vs DES  %.4f allocs/point\n",
				res.Name, res.Points, res.WallSeconds, res.PointsPerSec, res.Speedup, res.AllocsPerPoint)
		} else if sc.liveContention {
			fmt.Fprintf(os.Stderr, "%-28s %10d reqs    %8.3fs  %12.0f reqs/s    %5.2fx speedup @%dprocs/%dcores  %.4f allocs/req\n",
				res.Name, res.Requests, res.WallSeconds, res.ReqsPerSec, res.Speedup, res.StormProcs, res.StormCores, res.AllocsPerReq)
		} else if sc.obsHotpath {
			fmt.Fprintf(os.Stderr, "%-28s %10d events  %8.3fs  %12.0f events/s  %.4f allocs/event  %.4f allocs/tick\n",
				res.Name, res.Events, res.WallSeconds, res.EventsPerSec, res.AllocsPerEvent, res.AllocsPerTick)
		} else if sc.controlTick {
			fmt.Fprintf(os.Stderr, "%-28s %10d ticks   %8.3fs  %12.0f ticks/s   %.4f allocs/tick\n",
				res.Name, res.Ticks, res.WallSeconds, res.TicksPerSec, res.AllocsPerTick)
		} else if sc.figureSweep {
			fmt.Fprintf(os.Stderr, "%-28s %10d events  %8.3fs  %12.0f events/s  %6.1f reps/s  %.2f allocs/rep\n",
				res.Name, res.Events, res.WallSeconds, res.EventsPerSec, res.RepsPerSec, res.AllocsPerRep)
		} else if sc.policyTournament {
			fmt.Fprintf(os.Stderr, "%-28s %10d events  %8.3fs  %12.0f events/s  %6.1f reps/s  %2d policies  %.4f allocs/rep\n",
				res.Name, res.Events, res.WallSeconds, res.EventsPerSec, res.RepsPerSec, res.Policies, res.AllocsPerRep)
		} else {
			fmt.Fprintf(os.Stderr, "%-28s %10d events  %8.3fs  %12.0f events/s  %6.1f ns/event  %.4f allocs/event\n",
				res.Name, res.Events, res.WallSeconds, res.EventsPerSec, res.NsPerEvent, res.AllocsPerEvent)
		}
	}

	if *compare != "" {
		failures := compareAgainst(*compare, rep, *tol)
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "psdbench: FAIL %s\n", f)
		}
		if len(failures) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "psdbench: all scenarios under the allocation gates and the analytic speedup floor (throughput against %s is advisory, see notes)\n",
			*compare)
		if !outSet {
			return // compare-only run: leave the committed baseline alone
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("encode: %v", err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// compareAgainst returns the failures of the fresh report: a baseline
// scenario that no longer runs, the absolute allocation gates (which apply
// even to scenarios absent from the baseline — new scenarios must be born
// clean) and the same-process analytic speedup floor. What depends on the
// machine — throughput more than tol below the baseline, the
// live-contention speedup floor — is printed as a note.
func compareAgainst(path string, cur report, tol float64) []string {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatalf("read baseline %s: %v", path, err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalf("parse baseline %s: %v", path, err)
	}
	baseByName := make(map[string]scenarioResult, len(base.Scenarios))
	for _, s := range base.Scenarios {
		baseByName[s.Name] = s
	}
	var failures []string
	note := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "psdbench: note: "+format+"\n", args...)
	}
	// A baseline scenario that no longer runs is itself a failure:
	// otherwise deleting or renaming a scenario silently disables its
	// regression gate.
	curNames := make(map[string]bool, len(cur.Scenarios))
	for _, s := range cur.Scenarios {
		curNames[s.Name] = true
	}
	for _, b := range base.Scenarios {
		if !curNames[b.Name] {
			failures = append(failures, fmt.Sprintf(
				"%s: present in baseline %s but not measured by this binary (scenario removed or renamed; regenerate the baseline deliberately)",
				b.Name, path))
		}
	}
	for _, s := range cur.Scenarios {
		switch s.Model {
		case "figure-sweep":
			if s.AllocsPerRep > allocsPerRepGate {
				failures = append(failures, fmt.Sprintf(
					"%s: %.2f allocs/replication breaches the %.0f gate", s.Name, s.AllocsPerRep, allocsPerRepGate))
			}
		case "analytic-sweep":
			if s.AllocsPerPoint > allocsPerPointGate {
				failures = append(failures, fmt.Sprintf(
					"%s: %.4f allocs/point breaches the %.2f gate (warm closed-form evaluation must not allocate)",
					s.Name, s.AllocsPerPoint, allocsPerPointGate))
			}
			if s.Speedup > 0 && s.Speedup < analyticSpeedupFloor {
				failures = append(failures, fmt.Sprintf(
					"%s: %.0fx speedup over the DES figure sweep, want >= %.0fx (the fast path stopped being fast)",
					s.Name, s.Speedup, analyticSpeedupFloor))
			}
		case "policy-tournament":
			if s.AllocsPerRep > allocsPerTournamentRepGate {
				failures = append(failures, fmt.Sprintf(
					"%s: %.4f allocs/replication breaches the %.2f gate (a registered policy allocates on the warm arena path)",
					s.Name, s.AllocsPerRep, allocsPerTournamentRepGate))
			}
		case "control-tick":
			if s.AllocsPerTick > allocsPerTickGate {
				failures = append(failures, fmt.Sprintf(
					"%s: %.4f allocs/tick breaches the %.2f gate", s.Name, s.AllocsPerTick, allocsPerTickGate))
			}
		case "obs-hotpath":
			// Both gates at once: the instrumented serve path (events) and
			// the instrumented, flight-recorded control tick.
			if s.AllocsPerEvent > allocsPerEventGate {
				failures = append(failures, fmt.Sprintf(
					"%s: %.4f allocs/event breaches the %.2f gate", s.Name, s.AllocsPerEvent, allocsPerEventGate))
			}
			if s.AllocsPerTick > allocsPerTickGate {
				failures = append(failures, fmt.Sprintf(
					"%s: %.4f allocs/tick breaches the %.2f gate", s.Name, s.AllocsPerTick, allocsPerTickGate))
			}
		case "live-contention":
			if s.AllocsPerReq > allocsPerReqGate {
				failures = append(failures, fmt.Sprintf(
					"%s: %.4f allocs/request breaches the %.2f gate (admitted path must not allocate under contention)",
					s.Name, s.AllocsPerReq, allocsPerReqGate))
			}
			if floor, ok := liveSpeedupFloor(s.StormProcs, s.StormCores); ok && s.Speedup < floor {
				note("%s: %.2fx speedup at GOMAXPROCS=%d on %d cores, expected >= %.2fx",
					s.Name, s.Speedup, s.StormProcs, s.StormCores, floor)
			}
		default:
			if s.AllocsPerEvent > allocsPerEventGate {
				failures = append(failures, fmt.Sprintf(
					"%s: %.4f allocs/event breaches the %.2f gate", s.Name, s.AllocsPerEvent, allocsPerEventGate))
			}
		}
		b, ok := baseByName[s.Name]
		if !ok {
			note("%s not in baseline (new scenario, throughput unchecked)", s.Name)
			continue
		}
		check := func(metric string, baseV, curV float64) {
			if baseV <= 0 {
				return
			}
			if reg := (baseV - curV) / baseV; reg > tol {
				note("%s: %s %.1f%% below the baseline's machine (%.0f -> %.0f, tolerance %.0f%%)",
					s.Name, metric, reg*100, baseV, curV, tol*100)
			}
		}
		check("events/s", b.EventsPerSec, s.EventsPerSec)
		switch s.Model {
		case "figure-sweep", "policy-tournament":
			check("reps/s", b.RepsPerSec, s.RepsPerSec)
		case "analytic-sweep":
			check("points/s", b.PointsPerSec, s.PointsPerSec)
		case "control-tick", "obs-hotpath":
			check("ticks/s", b.TicksPerSec, s.TicksPerSec)
		case "live-contention":
			check("reqs/s", b.ReqsPerSec, s.ReqsPerSec)
		}
	}
	return failures
}

// syntheticTrace builds the deterministic 2-class arrival trace used by
// the trace scenario (same construction as the golden determinism test,
// scaled to the bench horizon).
func syntheticTrace(total float64) []simsrv.TraceRequest {
	sz := []float64{0.2, 1.7, 0.4, 3.1, 0.9, 0.15, 6.0, 0.5}
	var trace []simsrv.TraceRequest
	tm := 0.0
	for i := 0; tm < total; i++ {
		tm += 0.35 + float64(i%7)*0.11
		trace = append(trace, simsrv.TraceRequest{Time: tm, Class: i % 2, Size: sz[i%len(sz)]})
	}
	return trace
}

func runScenario(sc scenario, runs int, warmup, horizon float64, seed uint64, prior []scenarioResult) (scenarioResult, error) {
	if sc.figureSweep {
		return runFigureSweep(sc, runs, seed)
	}
	if sc.analyticSweep {
		return runAnalyticSweep(sc, runs, seed, prior)
	}
	if sc.controlTick {
		return runControlTick(sc)
	}
	if sc.obsHotpath {
		return runObsHotpath(sc)
	}
	if sc.liveContention {
		return runLiveContention(sc)
	}
	if sc.policyTournament {
		return runPolicyTournament(sc, runs, seed)
	}
	cfg := simsrv.EqualLoadConfig(sc.deltas, sc.load, nil)
	cfg.Warmup = warmup
	cfg.Horizon = horizon

	model := "partitioned"
	switch {
	case sc.packetized:
		model = "packetized-scfq"
	case sc.trace:
		model = "trace"
	}
	var trace []simsrv.TraceRequest
	if sc.trace {
		trace = syntheticTrace(warmup + horizon)
	}

	var sim simsrv.Simulator
	var res simsrv.Result
	run := func(s uint64) (uint64, error) {
		var err error
		switch {
		case sc.packetized:
			err = sim.ResetPacketized(simsrv.PacketizedConfig{Config: cfg}, s)
		case sc.trace:
			err = sim.ResetTrace(cfg, trace, s)
		default:
			err = sim.Reset(cfg, s)
		}
		if err != nil {
			return 0, err
		}
		if err := sim.RunInto(&res); err != nil {
			return 0, err
		}
		return res.EventsProcessed, nil
	}

	// One untimed warmup replication so one-time costs (page faults,
	// arena growth to the scenario's high-water mark) don't pollute the
	// measurement.
	if _, err := run(seed); err != nil {
		return scenarioResult{}, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var events uint64
	start := time.Now()
	for i := 0; i < runs; i++ {
		n, err := run(seed + uint64(i))
		if err != nil {
			return scenarioResult{}, err
		}
		events += n
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	return scenarioResult{
		Name:           sc.name,
		Classes:        len(sc.deltas),
		Load:           sc.load,
		Model:          model,
		Runs:           runs,
		Warmup:         warmup,
		Horizon:        horizon,
		Events:         events,
		WallSeconds:    wall,
		EventsPerSec:   float64(events) / wall,
		NsPerEvent:     wall * 1e9 / float64(events),
		AllocsPerEvent: float64(ms1.Mallocs-ms0.Mallocs) / float64(events),
	}, nil
}

// runFigureSweep drives the Figure 2 scenario grid (load sweep × runs,
// reduced fidelity) through the sweep engine — the workload whose
// per-replication setup and aggregation memory the arena engine
// optimizes. BenchmarkFigureSweep in the root package runs the same grid
// through the full figure-assembly path.
func runFigureSweep(sc scenario, runs int, seed uint64) (scenarioResult, error) {
	const (
		sweepWarmup  = 2000.0
		sweepHorizon = 15000.0
	)
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	points := make([]sweep.Point, len(loads))
	for i, rho := range loads {
		cfg := simsrv.EqualLoadConfig(sc.deltas, rho, nil)
		cfg.Warmup = sweepWarmup
		cfg.Horizon = sweepHorizon
		cfg.Seed = seed
		points[i] = sweep.Point{Cfg: cfg, Runs: runs}
	}
	reps := len(points) * runs

	// Untimed warmup sweep to populate worker arenas.
	if _, err := sweep.Run(points); err != nil {
		return scenarioResult{}, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	aggs, err := sweep.Run(points)
	if err != nil {
		return scenarioResult{}, err
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	var events uint64
	for _, agg := range aggs {
		events += agg.EventsProcessed
	}

	return scenarioResult{
		Name:         sc.name,
		Classes:      len(sc.deltas),
		Model:        "figure-sweep",
		Runs:         runs,
		Warmup:       sweepWarmup,
		Horizon:      sweepHorizon,
		Events:       events,
		WallSeconds:  wall,
		EventsPerSec: float64(events) / wall,
		NsPerEvent:   wall * 1e9 / float64(events),
		Replications: reps,
		RepsPerSec:   float64(reps) / wall,
		AllocsPerRep: float64(ms1.Mallocs-ms0.Mallocs) / float64(reps),
	}, nil
}

// runAnalyticSweep measures the closed-form fast path on the exact grid
// runFigureSweep simulates: the Figure 2 load sweep. One untimed pass
// goes through the sweep engine in Auto mode to prove the router really
// collapses every grid point to zero DES events; the timed loop then
// drives the analytic.Evaluator arena directly, many passes over the
// grid, and reports points/s, allocs/point, and the speedup over the
// figure2-sweep scenario's just-measured reps/s. That speedup divides
// two numbers from the same process on the same grid, so it is
// machine-independent and gates at analyticSpeedupFloor in -compare —
// conservatively, since a published figure point costs `runs` DES
// replications but exactly one closed-form evaluation.
func runAnalyticSweep(sc scenario, runs int, seed uint64, prior []scenarioResult) (scenarioResult, error) {
	const (
		sweepWarmup  = 2000.0
		sweepHorizon = 15000.0
		gridPasses   = 40_000
	)
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	points := make([]sweep.Point, len(loads))
	for i, rho := range loads {
		cfg := simsrv.EqualLoadConfig(sc.deltas, rho, nil)
		cfg.Warmup = sweepWarmup
		cfg.Horizon = sweepHorizon
		cfg.Seed = seed
		points[i] = sweep.Point{Cfg: cfg, Runs: runs}
	}

	// Router proof: in Auto mode this grid must not simulate at all.
	eng := sweep.Engine{Kind: sweep.Auto}
	aggs, err := eng.Run(points)
	if err != nil {
		return scenarioResult{}, err
	}
	for i, agg := range aggs {
		if agg.EventsProcessed != 0 {
			return scenarioResult{}, fmt.Errorf(
				"auto router simulated point %d (load %.1f): %d DES events on an analytic-eligible grid",
				i, loads[i], agg.EventsProcessed)
		}
	}

	var ev analytic.Evaluator
	var res analytic.Evaluation
	if err := ev.EvaluateInto(&res, points[0].Cfg); err != nil { // warm the arena
		return scenarioResult{}, err
	}
	total := gridPasses * len(points)

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for pass := 0; pass < gridPasses; pass++ {
		for i := range points {
			if err := ev.EvaluateInto(&res, points[i].Cfg); err != nil {
				return scenarioResult{}, err
			}
		}
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	out := scenarioResult{
		Name:           sc.name,
		Classes:        len(sc.deltas),
		Model:          "analytic-sweep",
		Runs:           runs,
		Warmup:         sweepWarmup,
		Horizon:        sweepHorizon,
		WallSeconds:    wall,
		Points:         total,
		PointsPerSec:   float64(total) / wall,
		AllocsPerPoint: float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
	}
	for _, p := range prior {
		if p.Model == "figure-sweep" && p.RepsPerSec > 0 {
			out.Speedup = out.PointsPerSec / p.RepsPerSec
			break
		}
	}
	return out, nil
}

// runPolicyTournament runs every policy in the core registry head-to-head
// over one mid-load grid point, driving each policy's retained Simulator
// arena directly — no sweep engine, no aggregation — so the measurement
// isolates exactly what registering a policy adds to the hot path. Fluid
// policies replicate through Simulator.Reset; size-aware policies
// (Caps.NeedsSizeInfo) go through the packetized model with a retained
// heSRPT scheduler, mirroring internal/sweep's policy→discipline mapping.
// The downgrading policy's degradation ladder and the heSRPT heap
// are both created during the untimed warmup replication and retained, so
// the timed loop gates the whole zoo at allocsPerTournamentRepGate: a new
// policy whose reset or steady state allocates is rejected in -compare.
func runPolicyTournament(sc scenario, runs int, seed uint64) (scenarioResult, error) {
	const (
		tourWarmup  = 2000.0
		tourHorizon = 10000.0
	)
	type lane struct {
		packetized bool
		cfg        simsrv.Config
		pcfg       simsrv.PacketizedConfig
		sim        *simsrv.Simulator
	}
	names := core.Names()
	lanes := make([]lane, 0, len(names))
	for _, name := range names {
		alloc, err := core.Parse(name)
		if err != nil {
			return scenarioResult{}, err
		}
		pol, ok := core.Lookup(name)
		if !ok {
			return scenarioResult{}, fmt.Errorf("policy %q in Names() but not in Lookup()", name)
		}
		cfg := simsrv.EqualLoadConfig(sc.deltas, sc.load, nil)
		cfg.Warmup = tourWarmup
		cfg.Horizon = tourHorizon
		cfg.Allocator = alloc
		ln := lane{cfg: cfg, sim: new(simsrv.Simulator)}
		if pol.Caps.NeedsSizeInfo {
			ln.packetized = true
			var hs *sched.HeSRPT // retained across resets; closure lives outside the timed loop
			ln.pcfg = simsrv.PacketizedConfig{
				Config: cfg,
				NewScheduler: func(classes int) sched.Scheduler {
					if hs == nil {
						hs = sched.NewHeSRPT(classes)
					} else {
						hs.Reset()
					}
					return hs
				},
			}
		}
		lanes = append(lanes, ln)
	}

	var res simsrv.Result
	run := func(ln *lane, s uint64) (uint64, error) {
		var err error
		if ln.packetized {
			err = ln.sim.ResetPacketized(ln.pcfg, s)
		} else {
			err = ln.sim.Reset(ln.cfg, s)
		}
		if err != nil {
			return 0, err
		}
		if err := ln.sim.RunInto(&res); err != nil {
			return 0, err
		}
		return res.EventsProcessed, nil
	}

	// One untimed pass per lane over the exact seed range the timed loop
	// replays: arena growth to each seed's backlog high-water mark, the
	// downgrading policy's ladder, and the heSRPT scheduler all
	// materialize here, so the timed loop measures only the warm path.
	for i := range lanes {
		for r := 0; r < runs; r++ {
			if _, err := run(&lanes[i], seed+uint64(r)); err != nil {
				return scenarioResult{}, fmt.Errorf("%s: %w", names[i], err)
			}
		}
	}

	reps := len(lanes) * runs
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var events uint64
	start := time.Now()
	for i := range lanes {
		for r := 0; r < runs; r++ {
			n, err := run(&lanes[i], seed+uint64(r))
			if err != nil {
				return scenarioResult{}, fmt.Errorf("%s: %w", names[i], err)
			}
			events += n
		}
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	return scenarioResult{
		Name:         sc.name,
		Classes:      len(sc.deltas),
		Load:         sc.load,
		Model:        "policy-tournament",
		Runs:         runs,
		Warmup:       tourWarmup,
		Horizon:      tourHorizon,
		Events:       events,
		WallSeconds:  wall,
		EventsPerSec: float64(events) / wall,
		NsPerEvent:   wall * 1e9 / float64(events),
		Replications: reps,
		RepsPerSec:   float64(reps) / wall,
		AllocsPerRep: float64(ms1.Mallocs-ms0.Mallocs) / float64(reps),
		Policies:     len(lanes),
	}, nil
}

// runControlTick measures the shared control plane in isolation: one
// control.Loop (the exact engine behind every simsrv reallocation window
// and every httpsrv live tick) driven with synthetic window observations,
// feedback on. Reported as ticks/s and allocs/tick; a steady-state tick
// must not allocate at all (allocs/tick gate in -compare), so a
// regression in internal/control fails CI exactly like an event-loop one.
func runControlTick(sc scenario) (scenarioResult, error) {
	const ticks = 2_000_000
	nc := len(sc.deltas)
	w, err := core.WorkloadFromDist(dist.PaperDefault())
	if err != nil {
		return scenarioResult{}, err
	}
	lp, err := control.NewLoop(control.LoopConfig{
		Deltas:    sc.deltas,
		Window:    1000,
		Allocator: core.PSD{},
		Workload:  w,
		Feedback:  true,
	})
	if err != nil {
		return scenarioResult{}, err
	}
	counts := make([]float64, nc)
	work := make([]float64, nc)
	slows := make([]float64, nc)
	tick := func(k int) error {
		for i := 0; i < nc; i++ {
			counts[i] = float64(200 + (k*7+i*13)%120)
			work[i] = counts[i] * w.MeanSize
			slows[i] = sc.deltas[i] * float64(1+(k+i)%3)
		}
		_, err := lp.Tick(control.TickInput{Counts: counts, Work: work, MeasuredSlowdowns: slows})
		return err
	}
	if err := tick(0); err != nil { // warm the loop's buffers
		return scenarioResult{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for k := 1; k <= ticks; k++ {
		if err := tick(k); err != nil {
			return scenarioResult{}, err
		}
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	return scenarioResult{
		Name:          sc.name,
		Classes:       nc,
		Model:         "control-tick",
		Ticks:         ticks,
		WallSeconds:   wall,
		TicksPerSec:   float64(ticks) / wall,
		AllocsPerTick: float64(ms1.Mallocs-ms0.Mallocs) / float64(ticks),
	}, nil
}

// runObsHotpath gates the observability layer's zero-allocation promise
// on both instrumented hot paths:
//
//   - events: per served request the live server touches two per-class
//     histograms (slowdown, latency) and two counters — this section
//     replays that exact touch pattern against a full httpsrv-shaped
//     metric catalog and reports allocs/event;
//   - ticks: the shared control.Loop with a flight recorder attached
//     (the live server's configuration) and feedback on, reporting
//     allocs/tick.
//
// Both must sit at zero; -compare enforces the same gates as the
// uninstrumented scenarios, so wiring metrics into a hot path can never
// silently reintroduce allocation.
func runObsHotpath(sc scenario) (scenarioResult, error) {
	const (
		events = 5_000_000
		ticks  = 1_000_000
	)
	nc := len(sc.deltas)

	// The serve-path section: an httpsrv-shaped registry.
	reg := obs.NewRegistry()
	slow := reg.HistogramVec("bench_slowdown", "", "class", nc, -7, 21)
	lat := reg.HistogramVec("bench_latency_seconds", "", "class", nc, -13, 21)
	served := reg.CounterVec("bench_served_total", "", "class", nc)
	workC := reg.FloatCounterVec("bench_work_total", "", "class", nc)

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for k := 0; k < events; k++ {
		class := k % nc
		v := float64(1+k%97) * 0.125
		slow.At(class).Observe(v)
		lat.At(class).Observe(v * 0.01)
		served.At(class).Inc()
		workC.At(class).Add(v)
	}
	eventWall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	allocsPerEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(events)

	// The control-tick section: the shared loop, instrumented with a
	// flight recorder exactly as the live server runs it.
	w, err := core.WorkloadFromDist(dist.PaperDefault())
	if err != nil {
		return scenarioResult{}, err
	}
	rec, err := obs.NewFlightRecorder(nc, 256)
	if err != nil {
		return scenarioResult{}, err
	}
	lp, err := control.NewLoop(control.LoopConfig{
		Deltas:    sc.deltas,
		Window:    1000,
		Allocator: core.PSD{},
		Workload:  w,
		Feedback:  true,
		Recorder:  rec,
	})
	if err != nil {
		return scenarioResult{}, err
	}
	counts := make([]float64, nc)
	work := make([]float64, nc)
	slows := make([]float64, nc)
	tick := func(k int) error {
		for i := 0; i < nc; i++ {
			counts[i] = float64(200 + (k*7+i*13)%120)
			work[i] = counts[i] * w.MeanSize
			slows[i] = sc.deltas[i] * float64(1+(k+i)%3)
		}
		_, err := lp.Tick(control.TickInput{Counts: counts, Work: work, MeasuredSlowdowns: slows})
		return err
	}
	if err := tick(0); err != nil { // warm the loop's buffers
		return scenarioResult{}, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	for k := 1; k <= ticks; k++ {
		if err := tick(k); err != nil {
			return scenarioResult{}, err
		}
	}
	tickWall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	return scenarioResult{
		Name:           sc.name,
		Classes:        nc,
		Model:          "obs-hotpath",
		Events:         events,
		WallSeconds:    eventWall + tickWall,
		EventsPerSec:   float64(events) / eventWall,
		NsPerEvent:     eventWall * 1e9 / float64(events),
		AllocsPerEvent: allocsPerEvent,
		Ticks:          ticks,
		TicksPerSec:    float64(ticks) / tickWall,
		AllocsPerTick:  float64(ms1.Mallocs-ms0.Mallocs) / float64(ticks),
	}, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "psdbench: "+format+"\n", args...)
	os.Exit(1)
}
