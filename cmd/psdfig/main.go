// Command psdfig regenerates the paper's evaluation figures (2–12) plus
// the beyond-paper estimator-transient study (13) and the policy
// tournament (14).
//
// Usage:
//
//	psdfig -fig 2                     # one figure, table to stdout
//	psdfig -fig all -out results/     # every figure as CSV files
//	psdfig -fig 9 -runs 100           # paper fidelity (slow)
//	psdfig -fig 5 -quick              # reduced fidelity smoke run
//	psdfig -fig 2 -engine auto        # closed forms where analytic: ms, not minutes
//
// Without -out, figures render as aligned text tables; with -out, each
// figure is written to <out>/figureN.csv in long form (series,x,y). The
// requested figures run as one grid, so a point two figures share (Figure
// 2's are all in Figure 9's) is simulated once, and nothing is written
// unless every figure succeeded.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"psd/internal/cli"
	"psd/internal/figures"
)

func main() {
	var seed uint64
	cli.Seed(flag.CommandLine, &seed)
	sweepFlags := cli.Sweep(flag.CommandLine)
	var (
		fig     = flag.String("fig", "all", "figure id 2-14 or 'all'")
		runs    = flag.Int("runs", 0, "replications per point (0 = fidelity default)")
		horizon = flag.Float64("horizon", 0, "measured tu per run (0 = fidelity default)")
		warmup  = flag.Float64("warmup", 0, "warmup tu (0 = fidelity default)")
		quick   = flag.Bool("quick", false, "reduced fidelity (10 runs, 15k tu)")
		out     = flag.String("out", "", "output directory for CSV (default: tables to stdout)")
	)
	flag.Parse()

	opts := figures.Defaults()
	if *quick {
		opts = figures.Quick()
	}
	// Any non-zero value passes through, so the sweep's validation
	// refuses a negative or non-finite one instead of running defaults.
	if *runs != 0 {
		opts.Runs = *runs
	}
	if *horizon != 0 {
		opts.Horizon = *horizon
	}
	if *warmup != 0 {
		opts.Warmup = *warmup
	}
	opts.Seed = seed
	eng := sweepFlags()
	opts.Workers = eng.Workers
	opts.Engine = eng.Kind

	var ids []int
	if *fig == "all" {
		for id := 2; id <= 14; id++ {
			ids = append(ids, id)
		}
	} else {
		id, err := strconv.Atoi(*fig)
		if err != nil {
			cli.Fatalf("bad -fig %q", *fig)
		}
		ids = append(ids, id)
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			cli.Fatalf("creating %s: %v", *out, err)
		}
	}

	start := time.Now()
	figs, err := figures.GenerateAll(ids, opts)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	for _, f := range figs {
		if *out == "" {
			fmt.Println(figures.RenderTable(f))
			continue
		}
		path := filepath.Join(*out, fmt.Sprintf("figure%d.csv", f.ID))
		if err := cli.WriteFile(path, func(w io.Writer) error { return figures.WriteCSV(w, f) }); err != nil {
			cli.Fatalf("writing %s: %v", path, err)
		}
		fmt.Printf("figure %d → %s\n", f.ID, path)
	}
	fmt.Printf("%d figure(s) regenerated in %s\n", len(figs), elapsed)
}
