// Command psdtrace generates session-based e-commerce workload traces
// (CBMG model, §2.2 of the paper). psdsim -trace replays them through the
// PSD simulation model.
//
// Usage:
//
//	psdtrace gen -sessions 0.3 -classes 0.3,0.7 -horizon 40000 > trace.csv
//	psdsim -trace trace.csv -deltas 1,2 -warmup 5000
//
// Traces are CSV: time,class,state,size,session (see internal/workload).
package main

import (
	"flag"
	"fmt"
	"os"

	"psd/internal/cli"
	"psd/internal/rng"
	"psd/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		cli.Fatalf("usage: psdtrace gen [flags]")
	}
	switch os.Args[1] {
	case "gen":
		generate(os.Args[2:])
	default:
		cli.Fatalf("unknown subcommand %q (want gen; to replay a trace, use psdsim -trace FILE)", os.Args[1])
	}
}

func generate(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var seed uint64
	cli.Seed(fs, &seed)
	sessions := fs.Float64("sessions", 0.3, "session start rate (per time unit)")
	classesFlag := fs.String("classes", "0.5,0.5", "per-class session probabilities (sum 1)")
	horizon := fs.Float64("horizon", 40000, "trace horizon in time units")
	think := fs.Float64("think", 5, "mean think time between session requests")
	_ = fs.Parse(args)

	probs, err := cli.Floats(*classesFlag)
	if err != nil {
		cli.Fatalf("bad -classes: %v", err)
	}
	model := workload.DefaultModel()
	model.ThinkMean = *think
	gen, err := workload.NewGenerator(model, *sessions, probs, rng.New(seed))
	if err != nil {
		cli.Fatalf("building generator: %v", err)
	}
	reqs, err := gen.Generate(*horizon)
	if err != nil {
		cli.Fatalf("generating: %v", err)
	}
	if err := workload.WriteTrace(os.Stdout, reqs); err != nil {
		cli.Fatalf("writing trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "psdtrace: %d requests over %g tu (%.2f requests/session expected)\n",
		len(reqs), *horizon, model.MeanRequestsPerSession())
}
