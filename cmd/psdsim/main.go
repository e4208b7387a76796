// Command psdsim runs the paper's simulation model once (or replicated)
// and prints a per-class summary: measured vs expected slowdowns, rates,
// and achieved ratios.
//
// Usage:
//
//	psdsim -deltas 1,2 -load 0.5 -runs 10
//	psdsim -deltas 1,2,3 -load 0.8 -alpha 1.5 -upper 100 -runs 100
//	psdsim -deltas 1,4 -load 0.6 -allocator pdd        # baseline ablation
//	psdsim -deltas 1,2 -load 0.5 -work-conserving      # GPS-mode ablation
//	psdsim -deltas 1,2 -load 0.5 -engine auto          # closed form, no DES
//	psdsim -deltas 1,2 -load 0.5 -flightrec 64         # dump control ticks
//	psdtrace gen | psdsim -trace - -warmup 5000        # replay a session trace
//
// -trace FILE ("-": stdin) replays a recorded arrival trace (the CSV that
// psdtrace gen writes, see internal/workload) in place of the Poisson
// generators: one replication, each class's λ estimated from the trace,
// and the horizon, unless -horizon is given, running to the last arrival
// minus -warmup. The allocator, estimator, window and size-law flags
// apply as in a Poisson run; -load, -load-step and -runs do not.
//
// -flightrec N runs one extra dedicated replication (base seed, or the
// trace) with a control-plane flight recorder attached and dumps its last
// N ticks as JSON — the same record format the live server serves at
// /debug/control — to -flightrec-out ("-": stdout).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"psd/internal/cli"
	"psd/internal/obs"
	"psd/internal/simsrv"
	"psd/internal/sweep"
	"psd/internal/workload"
)

func main() {
	var cfg simsrv.Config
	deltasFlag := cli.Deltas(flag.CommandLine)
	sizeLaw := cli.SizeLaw(flag.CommandLine)
	controlFlags := cli.Control(flag.CommandLine, &cfg.Spec)
	sweepFlags := cli.Sweep(flag.CommandLine)
	cli.Seed(flag.CommandLine, &cfg.Seed)
	loadStep := cli.LoadStep(flag.CommandLine)
	flag.Float64Var(&cfg.Horizon, "horizon", 60000, "measured duration (time units)")
	flag.Float64Var(&cfg.Warmup, "warmup", 10000, "warmup duration (time units)")
	flag.Float64Var(&cfg.Window, "window", 1000, "estimation/reallocation window")
	flag.IntVar(&cfg.HistoryWindows, "history", 5, "estimator history windows")
	flag.BoolVar(&cfg.WorkConserving, "work-conserving", false, "redistribute idle class capacity (GPS ablation)")
	flag.BoolVar(&cfg.Oracle, "oracle", false, "feed the allocator true arrival rates (no estimation error)")
	var (
		load      = flag.Float64("load", 0.5, "total system utilization in (0,1)")
		runs      = flag.Int("runs", 10, "independent replications (paper: 100)")
		tracePath = flag.String("trace", "", `replay this arrival trace (psdtrace gen CSV; "-": stdin) instead of Poisson arrivals`)
		flightrec = flag.Int("flightrec", 0, "flight-record the last N control ticks of one dedicated replication (0: off)")
		flightOut = flag.String("flightrec-out", "-", `flight recorder dump destination ("-": stdout)`)
	)
	flag.Parse()

	deltas := deltasFlag()
	svc := sizeLaw()
	policy := controlFlags()
	eng := sweepFlags()
	cfg.Classes = simsrv.EqualLoadConfig(deltas, *load, svc).Classes
	cfg.Service = svc
	if factor := loadStep(); factor != 0 {
		cfg.LoadSchedule = workload.LoadStep(cfg.Warmup+cfg.Horizon/2, factor)
	}
	// The registry resolved cfg.Allocator for the summary/flight-record
	// paths; the sweep point carries the policy name so size-aware
	// policies (hesrpt) transparently switch to the packetized model.
	pt := sweep.Point{Cfg: cfg, Runs: *runs, Policy: policy}
	if *tracePath != "" {
		horizonSet := false
		flag.Visit(func(f *flag.Flag) { horizonSet = horizonSet || f.Name == "horizon" })
		var err error
		if pt.Trace, err = loadTrace(&pt.Cfg, *tracePath, horizonSet); err != nil {
			cli.Fatalf("-trace %s: %v", *tracePath, err)
		}
		pt.Runs = 1
		cfg = pt.Cfg
	}

	start := time.Now()
	aggs, err := eng.Run([]sweep.Point{pt})
	if err != nil {
		cli.Fatalf("evaluation failed: %v", err)
	}
	agg := aggs[0]
	elapsed := time.Since(start)

	if pt.Trace != nil {
		fmt.Printf("PSD trace replay — %d classes, %d requests, %s allocator, %g tu measured\n",
			len(deltas), len(pt.Trace), cfg.Allocator.Name(), cfg.Horizon)
	} else {
		fmt.Printf("PSD %s evaluation — %d classes, load %.0f%%, %s allocator, %d runs × %g tu\n",
			eng.Kind, len(deltas), *load*100, cfg.Allocator.Name(), *runs, cfg.Horizon)
	}
	fmt.Printf("control: %s\n", cfg.ApplyDefaults().Spec)
	fmt.Printf("service: %s (E[X]=%.4f, E[X²]=%.4f, E[1/X]=%.4f)\n\n",
		svc, svc.Mean(), svc.SecondMoment(), svc.InverseMoment())
	fmt.Printf("%-8s %-8s %-14s %-14s %-12s %-12s\n",
		"class", "delta", "sim slowdown", "expected", "ci95", "ratio to c1")
	for i, d := range deltas {
		ratio := 1.0
		if i > 0 {
			ratio = agg.MeanRatios[i]
		}
		fmt.Printf("%-8d %-8g %-14.4f %-14.4f %-12.4f %-12.4f\n",
			i+1, d, agg.MeanSlowdowns[i], agg.ExpectedSlowdowns[i], agg.CI95[i], ratio)
	}
	fmt.Printf("\nsystem slowdown: %.4f (expected %.4f)\n",
		agg.SystemSlowdown, simsrv.ExpectedSystemSlowdown(cfg, agg))
	if agg.EventsProcessed > 0 {
		fmt.Printf("simulated %d events in %.2fs (%.2fM events/s aggregate)\n",
			agg.EventsProcessed, elapsed.Seconds(),
			float64(agg.EventsProcessed)/elapsed.Seconds()/1e6)
	} else {
		fmt.Printf("closed-form evaluation in %s (0 DES events)\n", elapsed.Round(time.Microsecond))
	}
	if agg.AllocFailures > 0 {
		fmt.Printf("allocator fallbacks (kept previous rates): %d windows\n", agg.AllocFailures)
	}
	// Per-window ratio percentiles only exist when windows were simulated;
	// a closed-form aggregate carries none.
	for i := 1; i < len(agg.RatioSummaries); i++ {
		rs := agg.RatioSummaries[i]
		if rs.N == 0 {
			continue
		}
		fmt.Printf("class %d/1 per-window ratio: p05=%.3f p50=%.3f p95=%.3f (n=%d)\n",
			i+1, rs.P05, rs.P50, rs.P95, rs.N)
	}

	if *flightrec > 0 {
		if err := dumpFlightRecord(pt, *flightrec, *flightOut); err != nil {
			cli.Fatalf("flight record: %v", err)
		}
	}
}

// loadTrace reads the arrival trace at path ("-": stdin) for replay under
// cfg: each class's λ becomes its empirical rate over the trace and,
// unless keepHorizon, the measured horizon runs to the last arrival.
func loadTrace(cfg *simsrv.Config, path string, keepHorizon bool) ([]simsrv.TraceRequest, error) {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	reqs, err := workload.ReadTrace(in)
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, errors.New("empty trace")
	}
	end := reqs[len(reqs)-1].Time
	rates, err := workload.ClassRates(reqs, len(cfg.Classes), end)
	if err != nil {
		return nil, err
	}
	for i, r := range rates {
		cfg.Classes[i].Lambda = r
	}
	if !keepHorizon {
		cfg.Horizon = end - cfg.Warmup
	}
	trace := make([]simsrv.TraceRequest, len(reqs))
	for i, r := range reqs {
		trace[i] = simsrv.TraceRequest{Time: r.Time, Class: r.Class, Size: r.Size}
	}
	return trace, nil
}

// dumpFlightRecord reruns the point's base-seed replication (or its trace)
// with a flight recorder attached and writes the recorded tick JSON. The
// sweep engine's replications run in parallel and cannot share one
// recorder, so the recorded run is a separate, deterministic rerun.
func dumpFlightRecord(pt sweep.Point, capacity int, out string) error {
	rec, err := obs.NewFlightRecorder(len(pt.Cfg.Classes), capacity)
	if err != nil {
		return err
	}
	cfg := pt.Cfg
	cfg.Recorder = rec
	if pt.Trace != nil {
		_, err = simsrv.RunTrace(cfg, pt.Trace)
	} else {
		_, err = simsrv.Run(cfg)
	}
	if err != nil {
		return err
	}
	if err := cli.WriteFile(out, rec.WriteJSON); err != nil {
		return err
	}
	if out != "-" {
		fmt.Printf("flight record: %d ticks (of %d recorded) written to %s\n", rec.Len(), rec.Seq(), out)
	}
	return nil
}
