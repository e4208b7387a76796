package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// term is one line of the ledger: a layer's operations in one round
// times what a probe says one costs.
type term struct {
	what  string
	count float64
	ns    float64
}

// ledger predicts the CPU one round of the workload costs as Σ (count ×
// probe ns) and returns prediction ÷ measurement. Measured from outside,
// it leaves out whatever the owning layer does between the calls the
// probes cover, so it stays open for most workloads; README.md lists the
// gaps.
func ledger(name string, m *measurement, v map[string]float64, out io.Writer) float64 {
	c := m.counts
	reqs := (c["events"] - c["ticks"]) / 2 // every request is one arrival and one completion event
	var terms []term
	switch name {
	case "fig-des", "sim-transient":
		tick := v["control.tick_window_ns"]
		if name == "sim-transient" {
			tick = v["control.tick_feedback_ns"]
		}
		terms = []term{
			{"rng.exp (inter-arrival draw)", reqs, v["rng.exp_ns"]},
			{"dist.bp_sample (job size)", reqs, v["dist.bp_sample_ns"]},
			{"des schedule+step", c["events"], v["des.schedule_step_ns"]},
			{"stats.welford_add (per completion)", reqs, v["stats.welford_add_ns"]},
			{"control.observe (per arrival)", reqs, v["control.observe_ns"]},
			{"control tick (8-class probe)", c["ticks"], tick},
			{"sched enqueue+dequeue (packetized requests)", c["pk_events"] / 2, (v["sched.scfq_op_ns"] + v["sched.hesrpt_op_ns"]) / 2},
			{"simsrv.reset (per replication)", c["reps"], v["simsrv.reset_us"] * 1e3},
			{"figures.csv", c["csvs"], v["figures.csv_us"] * 1e3},
		}
	case "sweep-analytic":
		terms = []term{
			{"analytic.eval", c["points"], v["analytic.eval_ns"]},
			{"sweep route (validate, resolve policy, synthesize aggregate)", c["points"], v["sweep.route_ns_per_point"]},
		}
	case "live-http":
		terms = []term{
			{"net loopback round trip (client + stdlib server CPU)", c["reqs"], v["net.loopback_cpu_us"] * 1e3},
			{"httpsrv.handler (classify, sizeOf, Do, JSON encode)", c["reqs"], v["httpsrv.handler_ns"]},
		}
	case "live-paced":
		terms = []term{
			{"httpsrv.do (front door, pacing ~ 0)", c["reqs"], v["httpsrv.do_ns"]},
			{"control tick", v["control.ticks"] * c["reqs"] / float64(m.attempted), v["control.tick_window_ns"]},
		}
	}
	var cpus []float64
	for _, r := range m.rounds {
		if !r.traced {
			cpus = append(cpus, r.cpuNs)
		}
	}
	measured := median(cpus)
	var predicted float64
	for _, t := range terms {
		predicted += t.count * t.ns
	}
	closure := predicted / measured
	fmt.Fprintf(out, "# ledger %s: one round, measured CPU %.3f ms\n", name, measured/1e6)
	for _, t := range terms {
		fmt.Fprintf(out, "#   %-58s %12.0f x %10.1f ns = %9.3f ms (%4.1f%%)\n", t.what, t.count, t.ns, t.count*t.ns/1e6, 100*t.count*t.ns/measured)
	}
	state := "closed"
	if closure < 0.85 || closure > 1.15 {
		state = "ledger open"
	}
	fmt.Fprintf(out, "#   predicted %.3f ms, closure %.3f: %s\n", predicted/1e6, closure, state)
	return closure
}

// moduleRoot walks up from the working directory to the go.mod of
// module psd: the driver runs the bench from the root, go test from here.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module psd\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod of module psd above the working directory")
		}
		dir = parent
	}
}

// locValues counts every internal package's non-test, non-blank Go lines.
func locValues(values map[string]float64) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	for _, pkg := range locPackages {
		n, err := countLoc(filepath.Join(root, "internal", pkg))
		if err != nil {
			return err
		}
		values[pkg+".loc"] = float64(n)
	}
	return nil
}

// countLoc counts the non-blank lines of the directory's non-test Go files.
func countLoc(dir string) (int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return 0, err
	}
	total := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		fh, err := os.Open(f)
		if err != nil {
			return 0, fmt.Errorf("loc: %w", err)
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) != "" {
				total++
			}
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			return 0, fmt.Errorf("loc: %s: %w", f, err)
		}
	}
	return total, nil
}
