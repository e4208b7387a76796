package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

// The program's catalog and BENCHMARK.json must name the same workloads
// and metrics, with the same units, directions and bounds.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if workloadSizes[w.Name] == "" {
			t.Errorf("workload %s has no recorded size", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, the program runs %v", names, workloadNames)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || !unit.MatchString(u) || (better != "lower" && better != "higher") {
			t.Errorf("metric %q unit %q better %q is outside the contract", n, u, better)
		}
		if seen[n] {
			t.Errorf("metric %q is declared twice", n)
		}
		seen[n] = true
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the program emits %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range doc.EndToEnd {
		check(d.Name, d.Unit, d.Better)
		if got := (metricDef{d.Name, d.Unit, d.Better, d.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d] is %+v, the program has %+v", i, got, endToEnd[i])
		}
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, the program emits %d (limit 128)", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range doc.PerLayer {
		check(d.Name, d.Unit, d.Better)
		if got := (metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}); got != perLayer[i] {
			t.Errorf("per_layer[%d] is %+v, the program has %+v", i, got, perLayer[i])
		}
	}
}

// Every workload, at about 1/200 of its size and with one sweep worker,
// must emit each declared metric exactly once, finite, with its unit —
// untraced the end-to-end set, traced the per-layer set — and pass its
// own output checks.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			o := options{workload: name, seed: 7, seconds: 0.2, trace: traced, traceOut: filepath.Join(t.TempDir(), "spans.json")}
			e := env{seed: o.seed, seconds: o.seconds, scale: 1.0 / 200, workers: 1, procs: 2}
			var out bytes.Buffer
			res, err := runWorkload(o, e, calibNs(), &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result, %d declared", name, traced, len(res.Metrics), len(defs))
			}
			printed := map[string]int{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) == 4 && f[0] == name {
					printed[f[1]]++
				}
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing from the result", name, traced, d.Name)
				case v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: %s = %v %q, want a finite value in %q", name, traced, d.Name, v.Value, v.Unit, d.Unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, v.Value)
				}
				if printed[d.Name] != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", name, traced, d.Name, printed[d.Name])
				}
			}
			if traced {
				if fi, err := os.Stat(o.traceOut); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no span file: %v", name, err)
				}
				if res.Metrics["ledger.closure."+name].Value <= 0 {
					t.Errorf("%s: ledger closure %v", name, res.Metrics["ledger.closure."+name].Value)
				}
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5}, 0.9, 5},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 0.9, 46},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
	} {
		if got := percentile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN")
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Error("percentile reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"leaf", []span{{ID: 0, Parent: -1, StartNs: 10, EndNs: 50}}, []int64{40}},
		{"serial children", []span{
			{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
			{ID: 1, Parent: 0, StartNs: 10, EndNs: 30},
			{ID: 2, Parent: 0, StartNs: 40, EndNs: 90},
		}, []int64{30, 20, 50}},
		{"overlapping children count once", []span{
			{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
			{ID: 1, Parent: 0, StartNs: 10, EndNs: 60},
			{ID: 2, Parent: 0, StartNs: 40, EndNs: 80},
		}, []int64{30, 50, 40}},
		{"child clipped to its parent", []span{
			{ID: 0, Parent: -1, StartNs: 20, EndNs: 60},
			{ID: 1, Parent: 0, StartNs: 10, EndNs: 90},
		}, []int64{0, 80}},
		{"grandchild leaves the root alone", []span{
			{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
			{ID: 1, Parent: 0, StartNs: 0, EndNs: 50},
			{ID: 2, Parent: 1, StartNs: 10, EndNs: 20},
		}, []int64{50, 40, 10}},
	} {
		if got := selfTimes(c.spans); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCountLoc(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"a.go":      "package a\n\n// comment\nfunc A() {}\n",
		"b.go":      "package a\n \n\t\nvar x = 1",
		"a_test.go": "package a\nfunc TestA() {}\n",
		"notes.txt": "one\ntwo\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := countLoc(dir)
	if err != nil || got != 5 {
		t.Errorf("countLoc = %d, %v; want 5 (3 in a.go, 2 in b.go)", got, err)
	}
	if got, err := countLoc(filepath.Join(dir, "missing")); err != nil || got != 0 {
		t.Errorf("countLoc of a missing directory = %d, %v; want 0", got, err)
	}
}

func TestBareTrace(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace=1"}},
		{[]string{"--trace", "-seed", "3"}, []string{"-trace=1", "-seed", "3"}},
		{[]string{"--trace", "0", "--seed", "3"}, []string{"--trace", "0", "--seed", "3"}},
		{[]string{"-seed", "3"}, []string{"-seed", "3"}},
	} {
		if got := bareTrace(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("bareTrace(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
