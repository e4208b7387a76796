// Command bench is the repository's benchmark: five named workloads, the
// end-to-end metrics a user of the system sees and, in a separate traced
// run, one ledger of per-layer metrics measured from outside the layers.
// BENCHMARK.json declares the names; README.md in this directory is the
// glossary.
//
//	go run ./bench                     every workload, end-to-end metrics
//	go run ./bench -trace              the same, then the traced runs
//	go run ./bench -repeat 2           the full set twice, compared
//	go run ./bench --workload live-http --seed 3 --seconds 10 --trace 0
//
// The last form is the one the driver uses: one workload per process,
// and the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	repeat   int
	child    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace string
	fs.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames, " | ")+"); default: all five")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of each measured section")
	fs.StringVar(&trace, "trace", "0", "1 (or bare -trace): record spans, run the layer probes, print per-layer metrics and the ledger")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file (default .bench_out/trace-<workload>-seed<n>.json)")
	fs.IntVar(&o.repeat, "repeat", 1, "run the full set this many times and compare the end-to-end metrics pairwise")
	fs.BoolVar(&o.child, "child", false, "internal: run the workload in this process")
	if err := fs.Parse(bareTrace(args)); err != nil {
		return 2
	}
	switch trace {
	case "0", "false":
	case "1", "true":
		o.trace = true
	default:
		fmt.Fprintf(stderr, "bench: -trace wants 0 or 1, got %q\n", trace)
		return 2
	}
	if fs.NArg() > 0 || !(o.seconds > 0) || o.repeat < 1 {
		fmt.Fprintf(stderr, "bench: bad arguments %v (seconds %g, repeat %d)\n", fs.Args(), o.seconds, o.repeat)
		return 2
	}
	if o.child {
		return child(o, stdout, stderr)
	}
	if o.workload != "" {
		rec, err := supervise(o, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
			printResult(stdout, result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}})
			return 1
		}
		if !rec.Result.Correct {
			return 1
		}
		return 0
	}
	return fullSet(o, stdout, stderr)
}

// bareTrace lets "-trace" stand alone: the flag takes a value because
// the driver passes "--trace 0", but a person types "-trace".
func bareTrace(args []string) []string {
	out := append([]string(nil), args...)
	for i, a := range out {
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(out) || strings.HasPrefix(out[i+1], "-") {
			out[i] = "-trace=1"
		}
	}
	return out
}

func printResult(w io.Writer, r result) {
	b, err := json.Marshal(r)
	if err != nil { // only a non-finite value can do this, and runWorkload replaces those
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// ------------------------------------------------------------- supervisor

// deadline is the watchdog's limit for one workload process: three times
// the wall time a healthy run records (set-up three times over, the
// measured section, and for a traced run the probes and the
// single-goroutine mirror).
func deadline(o options) time.Duration {
	healthy := 2*o.seconds + 10
	if o.trace {
		healthy = 2*o.seconds + 30
	}
	return time.Duration(3 * healthy * float64(time.Second))
}

// supervise runs one workload in a process of its own — clean RSS, clean
// GC state — under a hard deadline. sweep.Engine.Run with two or more
// workers can deadlock (ROADMAP item 0): a hang must be a loud failed
// run, so on expiry the child gets SIGQUIT, which makes the Go runtime
// dump every goroutine, and the run counts as failed.
func supervise(o options, stdout, stderr io.Writer) (runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return runRecord{}, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", trace, "-trace-out", o.traceOut)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return runRecord{}, err
	}
	if err := cmd.Start(); err != nil {
		return runRecord{}, err
	}
	limit := deadline(o)
	expired := make(chan struct{})
	watchdog := time.AfterFunc(limit, func() {
		close(expired)
		_ = cmd.Process.Signal(syscall.SIGQUIT) // goroutine dump on the child's stderr
		time.Sleep(5 * time.Second)
		_ = cmd.Process.Kill() // no-op once the child is gone
	})
	var rec runRecord
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(stdout, last)
		if js, ok := strings.CutPrefix(last, "# stamp "); ok {
			_ = json.Unmarshal([]byte(js), &rec.Stamp) // a garbled stamp costs the record its stamp, not the run
		}
	}
	waitErr := cmd.Wait()
	watchdog.Stop()
	select {
	case <-expired:
		return rec, fmt.Errorf("watchdog: no result within %v; goroutines dumped above, failed_share = 1", limit)
	default:
	}
	if err := json.Unmarshal([]byte(last), &rec.Result); err != nil {
		return rec, fmt.Errorf("no result line (%v); child: %v", err, waitErr)
	}
	return rec, nil
}

// ------------------------------------------------------------------ child

// stamp says what produced the numbers.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Size       string  `json:"size"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CalibNs    float64 `json:"bench.calib_ns"`
}

// buildCommit is the VCS revision, from the binary when it was stamped
// and from git otherwise; "unknown" in a checkout that is not a repository.
func buildCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
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

// A run sets up at least minSetups times, and goes on for up to
// setupBudget (at most maxSetups times) when one set-up is short:
// setup_s is the median, and the median of three 20 ms set-ups moves by a
// factor of two on a shared box.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

func child(o options, stdout, stderr io.Writer) int {
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	e := env{seed: o.seed, seconds: o.seconds, scale: 1, procs: procs}
	calib := calibNs()
	st := stamp{
		Commit: buildCommit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: procs,
		Workload: o.workload, Size: workloadSizes[o.workload], Seed: o.seed, Seconds: o.seconds, Trace: o.trace, CalibNs: calib,
	}
	if b, err := json.Marshal(st); err == nil {
		fmt.Fprintf(stdout, "# stamp %s\n", b)
	}
	res, err := runWorkload(o, e, calib, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload sets the workload up, measures it and returns the result
// line: the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one.
func runWorkload(o options, e env, calib float64, out io.Writer) (result, error) {
	w, err := newRunner(o.workload, e)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	budget := time.Duration(e.scale * float64(setupBudget))
	for start := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(start) < budget); {
		if len(setups) > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m, err := w.measure(tr)
	runtime.ReadMemStats(&ms1)
	rss := peakRSSMB() // before the probes grow the heap
	w.teardown()
	if err != nil {
		return result{}, err
	}
	after := calibNs()
	if math.Abs(after/calib-1) > 0.10 {
		fmt.Fprintf(out, "# noisy box: the calibration loop took %.0f ns before the run and %.0f ns after\n", calib, after)
	}
	for _, p := range m.problems {
		fmt.Fprintf(out, "# failed check: %s\n", p)
	}

	defs, values := endToEnd, endToEndValues(setups, m, rss)
	if o.trace {
		defs = perLayer
		if values, err = perLayerValues(o, e, tr, m, out); err != nil {
			return result{}, err
		}
		runtimeValues(values, m, &ms0, &ms1)
		values["bench.calib_ns"] = math.Max(calib, after)
	}
	res := result{Correct: m.failed == 0 && m.attempted > 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(out, "# failed check: %s is %v\n", d.Name, v)
			res.Correct, v = false, 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "%-14s %-30s %18.6f %s\n", o.workload, d.Name, v, d.Unit)
	}
	return res, nil
}

// perLayerValues runs the layer probes and assembles the traced run's
// metrics: probe timings, what only the workload can report, the tail
// percentiles, line counts, the ledger. It writes the span file last, so
// the probes' spans are in it.
func perLayerValues(o options, e env, tr *tracer, m *measurement, out io.Writer) (map[string]float64, error) {
	pr := runProbes(e, tr, int(m.layer["des.pending_max"]))
	for _, f := range pr.failed {
		m.attempted++
		m.fail(1, "probe: %s", f)
		fmt.Fprintf(out, "# failed check: probe: %s\n", f)
	}
	values := pr.out
	for k, v := range m.layer {
		values[k] = v
	}
	if lag := values["bench.gen_lag_p90_us"]; lag > 1000 {
		fmt.Fprintf(out, "# warning: the open-loop generator ran %.0f us late at p90; latency is timed from the due time and includes it\n", lag)
	}
	// The high percentiles: printed with their sample count, too unsteady
	// on a shared box to be end-to-end metrics.
	fmt.Fprintf(out, "# tail percentiles over n = %d calls\n", len(m.latUs))
	lat := sortedCopy(m.latUs)
	values["bench.latency_p99_us"] = percentileSorted(lat, 0.99)
	values["bench.latency_p999_us"] = percentileSorted(lat, 0.999)
	values["bench.overhead_p99_us"] = percentile(m.ovhUs, 0.99)
	if err := locValues(values); err != nil {
		return nil, err
	}
	values["bench.trace_overhead_share"] = traceOverhead(m)
	values["failed_share"] = float64(m.failed) / float64(m.attempted)
	values["ledger.closure."+o.workload] = ledger(o.workload, m, values, out)
	path := o.traceOut
	if path == "" {
		path = filepath.Join(".bench_out", "trace-"+tr.run+".json")
	}
	return values, tr.writeSpans(path, out)
}

// endToEndValues derives the user-visible metrics from one untraced
// measured section. Rates and wall time are medians over its rounds.
func endToEndValues(setups []float64, m *measurement, rssMB float64) map[string]float64 {
	var walls, rates []float64
	var cpu, ops float64
	for _, r := range m.rounds {
		walls = append(walls, r.wallNs)
		rates = append(rates, r.ops/r.wallNs*1e9)
		cpu += r.cpuNs
		ops += r.ops
	}
	rate := median(rates)
	lat, ovh := sortedCopy(m.latUs), sortedCopy(m.ovhUs)
	return map[string]float64{
		"setup_s":         median(setups),
		"wall_s":          median(walls) / 1e9,
		"events_per_s":    rate,
		"points_per_s":    rate,
		"reqs_per_s":      rate,
		"latency_p50_us":  percentileSorted(lat, 0.5),
		"latency_p90_us":  percentileSorted(lat, 0.9),
		"overhead_p50_us": percentileSorted(ovh, 0.5),
		"overhead_p90_us": percentileSorted(ovh, 0.9),
		"cpu_ns_per_op":   cpu / ops,
		"peak_rss_mb":     rssMB,
	}
}

func runtimeValues(values map[string]float64, m *measurement, ms0, ms1 *runtime.MemStats) {
	var ops float64
	for _, r := range m.rounds {
		ops += r.ops
	}
	values["runtime.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	values["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	values["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
}

// traceOverhead compares what an operation cost the caller in traced and
// untraced rounds of the same run.
func traceOverhead(m *measurement) float64 {
	var on, off []float64
	for _, r := range m.rounds {
		if r.traced {
			on = append(on, r.opNs)
		} else {
			off = append(off, r.opNs)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on)/median(off) - 1
}

// --------------------------------------------------------------- full set

// runRecord is one workload process: what produced the numbers, and the
// numbers.
type runRecord struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
}

// fullSet runs all five workloads (and, with -trace, their traced runs)
// o.repeat times, each in its own process, and compares repeats.
func fullSet(o options, stdout, stderr io.Writer) int {
	code := 0
	sets := make([]map[string]result, o.repeat)
	var records []runRecord
	for rep := range sets {
		sets[rep] = map[string]result{}
		for _, name := range workloadNames {
			for _, traced := range []bool{false, true} {
				if traced && !o.trace {
					continue
				}
				one := o
				one.workload, one.trace = name, traced
				fmt.Fprintf(stdout, "# run %d/%d: %s trace=%v\n", rep+1, o.repeat, name, traced)
				rec, err := supervise(one, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
					rec.Result = result{Attempted: 1, Failed: 1}
				}
				res := rec.Result
				if !res.Correct {
					code = 1
				}
				if !traced {
					sets[rep][name] = res
					fmt.Fprintf(stdout, "%-14s %-30s %18.6f share\n", name, "failed_share", float64(res.Failed)/float64(res.Attempted))
				}
				records = append(records, rec)
			}
		}
	}
	if o.repeat > 1 && !compareSets(sets, stdout) {
		code = 1
	}
	if b, err := json.Marshal(map[string][]runRecord{"runs": records}); err == nil {
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return code
}

// compareSets prints, per end-to-end metric and workload, the value of
// the first set and of each later one, their relative difference and the
// bound, and reports whether every pair agrees within its bound.
func compareSets(sets []map[string]result, out io.Writer) bool {
	ok := true
	fmt.Fprintf(out, "# %-14s %-18s %16s %16s %9s %7s\n", "workload", "metric", "first", "repeat", "diff", "bound")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			a := sets[0][name].Metrics[d.Name].Value
			for _, set := range sets[1:] {
				b := set[name].Metrics[d.Name].Value
				diff := math.Abs(b-a) / math.Abs(a)
				verdict := ""
				if !(diff <= d.Bound) {
					verdict, ok = "  DISAGREE", false
				}
				fmt.Fprintf(out, "# %-14s %-18s %16.4f %16.4f %8.1f%% %6.0f%%%s\n", name, d.Name, a, b, diff*100, d.Bound*100, verdict)
			}
		}
	}
	return ok
}
