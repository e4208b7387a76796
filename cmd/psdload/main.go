// Command psdload drives open-loop Poisson load at a psdserver instance
// and reports achieved per-class slowdowns and ratios.
//
// Usage:
//
//	psdload -url http://localhost:8080/ -lambdas 0.1,0.1 -duration 30s
//	psdload -lambdas 0.1,0.1 -duration 30s -step-after 15s -step-lambdas 0.3,0.3
//
// Lambdas are per time unit (match the server's -timeunit); each class
// gets an independent Poisson stream with Bounded Pareto sizes. With
// -step-after/-step-lambdas the run becomes a two-phase load step and
// the report breaks out each phase — the client-side twin of the
// simulator's LoadStep schedule. -report-json writes the full machine-
// readable report — including per-class client-side latency histograms
// (log₂ ms buckets) — to a file ("-" for stdout).
//
// Requests are issued by a fixed worker pool (-workers) over kept-alive,
// reused connections; arrivals that find the dispatch queue
// (-max-pending) full are shed client-side and counted as errors, so an
// overloaded server degrades the report instead of ballooning the
// client's goroutine and connection counts. -timeout bounds each request
// attempt, and -retries re-attempts transport errors and 5xx responses
// with capped exponential backoff; retries are reported in their own
// column so they never skew the achieved-slowdown statistics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"time"

	"psd/internal/cli"
	"psd/internal/loadgen"
	"psd/internal/obs"
)

func main() {
	var cfg loadgen.Config
	sizeLaw := cli.SizeLaw(flag.CommandLine)
	cli.Seed(flag.CommandLine, &cfg.Seed)
	flag.StringVar(&cfg.BaseURL, "url", "http://localhost:8080/", "work endpoint URL")
	flag.DurationVar(&cfg.TimeUnit, "timeunit", 10*time.Millisecond, "wall-clock duration of one time unit (match server)")
	flag.DurationVar(&cfg.Drain, "drain", 0, "extra wait for in-flight requests after arrivals stop")
	flag.IntVar(&cfg.Workers, "workers", 0, "HTTP worker pool size (0: default 256); connections are kept alive and reused")
	flag.IntVar(&cfg.MaxPending, "max-pending", 0, "dispatch queue bound before client-side shedding (0: default 4x -workers)")
	flag.DurationVar(&cfg.Timeout, "timeout", 0, "per-attempt request timeout (0: client default only)")
	flag.IntVar(&cfg.MaxRetries, "retries", 0, "max retries per arrival after transport errors or 5xx (capped exponential backoff with jitter)")
	var (
		lambdas     = flag.String("lambdas", "0.1,0.1", "per-class arrival rates (requests per time unit)")
		duration    = flag.Duration("duration", 30*time.Second, "run length")
		stepAfter   = flag.Duration("step-after", 0, "step the load at this point of the run (0: no step)")
		stepLambdas = flag.String("step-lambdas", "", "per-class arrival rates after -step-after")
		reportJSON  = flag.String("report-json", "", `write the full report as JSON to this file ("-": stdout)`)
	)
	flag.Parse()

	ls, err := cli.Floats(*lambdas)
	if err != nil {
		cli.Fatalf("bad -lambdas: %v", err)
	}
	cfg.Service = sizeLaw()
	if *stepAfter > 0 {
		if !(*stepAfter < *duration) {
			cli.Fatalf("-step-after %v must fall inside -duration %v", *stepAfter, *duration)
		}
		ls2, err := cli.Floats(*stepLambdas)
		if err != nil {
			cli.Fatalf("bad -step-lambdas: %v", err)
		}
		cfg.Phases = []loadgen.Phase{
			{Lambdas: ls, Duration: *stepAfter},
			{Lambdas: ls2, Duration: *duration - *stepAfter},
		}
		fmt.Printf("driving %v of load at %s (lambdas %v → %v at %v, per %v time unit)\n",
			*duration, cfg.BaseURL, ls, ls2, *stepAfter, cfg.TimeUnit)
	} else {
		cfg.Lambdas = ls
		cfg.Duration = *duration
		fmt.Printf("driving %v of load at %s (lambdas %v per %v time unit)\n",
			*duration, cfg.BaseURL, ls, cfg.TimeUnit)
	}
	rep, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		cli.Fatalf("load run failed: %v", err)
	}

	printClasses("whole run", rep.Classes)
	if len(rep.Phases) > 1 {
		for pi, classes := range rep.Phases {
			printClasses(fmt.Sprintf("phase %d", pi+1), classes)
		}
	}
	for i := 1; i < len(rep.Classes); i++ {
		fmt.Printf("achieved slowdown ratio class %d/1: %s\n", i+1, fmtRatio(rep.SlowdownRatio(i)))
		if len(rep.Phases) > 1 {
			for pi := range rep.Phases {
				fmt.Printf("  phase %d: %s\n", pi+1, fmtRatio(rep.PhaseSlowdownRatio(pi, i)))
			}
		}
	}
	fmt.Printf("elapsed: %v\n", rep.Elapsed.Round(time.Millisecond))

	if *reportJSON != "" {
		if err := writeReportJSON(*reportJSON, rep); err != nil {
			cli.Fatalf("writing -report-json: %v", err)
		}
	}
}

// fmtRatio renders a slowdown ratio, or "n/a" when the measurement is
// unavailable (no class-0 baseline yet) instead of a raw NaN.
func fmtRatio(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.4f", v)
}

// jfloat serializes NaN/±Inf (absent measurements) as null, which
// encoding/json otherwise rejects outright.
type jfloat float64

func (f jfloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// jsonClass is the machine-readable per-class report.
type jsonClass struct {
	Sent          int64                 `json:"sent"`
	Completed     int64                 `json:"completed"`
	Errors        int64                 `json:"errors"`
	Retries       int64                 `json:"retries"`
	MeanSlowdown  jfloat                `json:"mean_slowdown"`
	P95Slowdown   jfloat                `json:"p95_slowdown"`
	MeanLatencyMs jfloat                `json:"mean_latency_ms"`
	MeanServiceMs jfloat                `json:"mean_service_ms"`
	NominalRate   jfloat                `json:"nominal_rate"`
	AchievedRate  jfloat                `json:"achieved_rate"`
	LatencyHistMs obs.HistogramSnapshot `json:"latency_hist_ms"`
}

type jsonReport struct {
	ElapsedSeconds jfloat        `json:"elapsed_seconds"`
	Classes        []jsonClass   `json:"classes"`
	SlowdownRatios []jfloat      `json:"slowdown_ratios"`
	Phases         [][]jsonClass `json:"phases,omitempty"`
}

func toJSONClasses(classes []loadgen.ClassReport) []jsonClass {
	out := make([]jsonClass, len(classes))
	for i, c := range classes {
		out[i] = jsonClass{
			Sent:          c.Sent,
			Completed:     c.Completed,
			Errors:        c.Errors,
			Retries:       c.Retries,
			MeanSlowdown:  jfloat(c.MeanSlowdown),
			P95Slowdown:   jfloat(c.P95Slowdown),
			MeanLatencyMs: jfloat(c.MeanLatencyMs),
			MeanServiceMs: jfloat(c.MeanServiceMs),
			NominalRate:   jfloat(c.NominalRate),
			AchievedRate:  jfloat(c.AchievedRate),
			LatencyHistMs: c.LatencyHist,
		}
	}
	return out
}

func writeReportJSON(path string, rep *loadgen.Report) error {
	doc := jsonReport{
		ElapsedSeconds: jfloat(rep.Elapsed.Seconds()),
		Classes:        toJSONClasses(rep.Classes),
		SlowdownRatios: make([]jfloat, len(rep.Classes)),
	}
	for i := range rep.Classes {
		if i == 0 {
			// The baseline's ratio to itself, or null with no baseline yet.
			if rep.Classes[0].MeanSlowdown > 0 {
				doc.SlowdownRatios[0] = 1
			} else {
				doc.SlowdownRatios[0] = jfloat(math.NaN())
			}
			continue
		}
		doc.SlowdownRatios[i] = jfloat(rep.SlowdownRatio(i))
	}
	if len(rep.Phases) > 1 {
		doc.Phases = make([][]jsonClass, len(rep.Phases))
		for pi, classes := range rep.Phases {
			doc.Phases[pi] = toJSONClasses(classes)
		}
	}
	return cli.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
}

func printClasses(title string, classes []loadgen.ClassReport) {
	fmt.Printf("\n%s:\n%-8s %-8s %-10s %-8s %-8s %-14s %-12s %-14s %-12s\n",
		title, "class", "sent", "completed", "errors", "retries", "mean slowdown", "p95 slow", "mean lat (ms)", "ach/nom λ")
	for i, c := range classes {
		fmt.Printf("%-8d %-8d %-10d %-8d %-8d %-14.4f %-12.4f %-14.2f %.3f/%.3f\n",
			i+1, c.Sent, c.Completed, c.Errors, c.Retries, c.MeanSlowdown, c.P95Slowdown, c.MeanLatencyMs,
			c.AchievedRate, c.NominalRate)
	}
}
