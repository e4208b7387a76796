package simsrv

import (
	"math"
	"sort"
	"testing"

	"psd/internal/admission"
	"psd/internal/rng"
	"psd/internal/workload"
)

func TestRunTraceValidation(t *testing.T) {
	cfg := fastConfig([]float64{1, 2}, 0.5)
	if _, err := RunTrace(cfg, nil); err == nil {
		t.Error("accepted empty trace")
	}
	if _, err := RunTrace(cfg, []TraceRequest{{Time: 5, Class: 0, Size: 1}, {Time: 1, Class: 0, Size: 1}}); err == nil {
		t.Error("accepted unsorted trace")
	}
	if _, err := RunTrace(cfg, []TraceRequest{{Time: 1, Class: 9, Size: 1}}); err == nil {
		t.Error("accepted out-of-range class")
	}
	if _, err := RunTrace(cfg, []TraceRequest{{Time: 1, Class: 0, Size: 0}}); err == nil {
		t.Error("accepted zero size")
	}
	if _, err := RunTrace(cfg, []TraceRequest{{Time: -1, Class: 0, Size: 1}}); err == nil {
		t.Error("accepted negative time")
	}
	// A NaN time passes the sortedness check (every comparison with NaN
	// is false); unrejected, the replay stopped at it without an error.
	if _, err := RunTrace(cfg, []TraceRequest{{Time: 1, Class: 0, Size: 1}, {Time: math.NaN(), Class: 1, Size: 1}, {Time: 3, Class: 0, Size: 1}}); err == nil {
		t.Error("accepted NaN time")
	}
	if _, err := RunTrace(cfg, []TraceRequest{{Time: 1, Class: 0, Size: math.Inf(1)}}); err == nil {
		t.Error("accepted infinite size")
	}
	if _, err := RunTrace(cfg, []TraceRequest{{Time: math.Inf(1), Class: 0, Size: 1}}); err == nil {
		t.Error("accepted infinite time")
	}
}

// TestRunTraceMatchesPoissonStatistically replays synthetic Poisson
// traces and requires results comparable to the built-in generator at
// the same load: the PSD property must hold on replayed traffic too. The
// ratio of mean slowdowns is taken over 16 traces — a single 22k-tu
// heavy-tailed trace lands outside the band for about one seed in three.
func TestRunTraceMatchesPoissonStatistically(t *testing.T) {
	const seeds = 16
	cfg := fastConfig([]float64{1, 2}, 0.6)
	total := cfg.Warmup + cfg.Horizon
	var mean [2]float64
	for seed := uint64(1); seed <= seeds; seed++ {
		// Build a Poisson trace with the same per-class rates.
		src := rng.New(76 + seed)
		var trace []TraceRequest
		for class, cc := range cfg.Classes {
			tt := src.ExpFloat64(cc.Lambda)
			sizeSrc := src.Split(uint64(class + 100))
			for tt < total {
				trace = append(trace, TraceRequest{Time: tt, Class: class, Size: cfg.Service.Sample(sizeSrc)})
				tt += src.ExpFloat64(cc.Lambda)
			}
		}
		sort.Slice(trace, func(i, j int) bool { return trace[i].Time < trace[j].Time })
		res, err := RunTrace(cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		if res.Classes[0].Count == 0 || res.Classes[1].Count == 0 {
			t.Fatalf("seed %d: trace replay produced no measurements", seed)
		}
		for i := range mean {
			mean[i] += res.Classes[i].MeanSlowdown / seeds
		}
	}
	if ratio := mean[1] / mean[0]; ratio < 1.2 || ratio > 3.5 {
		t.Fatalf("trace-replay ratio %v over %d traces far from target 2", ratio, seeds)
	}
}

// TestRunTraceSessionWorkload drives the CBMG e-commerce generator through
// the simulator end to end.
func TestRunTraceSessionWorkload(t *testing.T) {
	model := workload.DefaultModel()
	gen, err := workload.NewGenerator(model, 0.35, []float64{0.5, 0.5}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	const total = 22000.0
	reqs, err := gen.Generate(total)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := workload.ClassRates(reqs, 2, total)
	if err != nil {
		t.Fatal(err)
	}
	trace := make([]TraceRequest, len(reqs))
	for i, r := range reqs {
		trace[i] = TraceRequest{Time: r.Time, Class: r.Class, Size: r.Size}
	}
	cfg := Config{
		Classes: []ClassConfig{
			{Delta: 1, Lambda: rates[0]},
			{Delta: 2, Lambda: rates[1]},
		},
		Warmup:  2000,
		Horizon: total - 2000,
		Seed:    1,
	}
	res, err := RunTrace(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes[0].Count == 0 || res.Classes[1].Count == 0 {
		t.Fatal("session workload produced no measurements")
	}
	// Predictability ordering on realistic session traffic.
	if !(res.Classes[0].MeanSlowdown < res.Classes[1].MeanSlowdown) {
		t.Fatalf("ordering violated on session workload: %v vs %v",
			res.Classes[0].MeanSlowdown, res.Classes[1].MeanSlowdown)
	}
	if math.IsNaN(res.SystemSlowdown) || res.SystemSlowdown <= 0 {
		t.Fatalf("system slowdown %v", res.SystemSlowdown)
	}
}

func TestRunTraceDeterministic(t *testing.T) {
	cfg := fastConfig([]float64{1, 2}, 0.5)
	trace := []TraceRequest{}
	for i := 0; i < 2000; i++ {
		trace = append(trace, TraceRequest{Time: float64(i) * 10, Class: i % 2, Size: 0.5})
	}
	a, err := RunTrace(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrace(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if a.Classes[0].MeanSlowdown != b.Classes[0].MeanSlowdown || a.EventsProcessed != b.EventsProcessed {
		t.Fatal("trace replay not deterministic")
	}
}

// TestTraceHonoursAdmission: trace arrivals go through the same door as
// generated ones. An overloaded trace (ρ ≈ 1.6 for 3000 tu, then silence
// so every admitted request drains inside the horizon) behind a
// utilization bound must shed, stamp the first shed, and account for
// every offered request as either served or rejected.
func TestTraceHonoursAdmission(t *testing.T) {
	cfg := EqualLoadConfig([]float64{1, 2}, 0.5, nil)
	cfg.Window = 100
	cfg.Warmup = 1e-9 // 0 would select the 10000-tu default
	cfg.Horizon = 6000
	cfg.EstimateFromWork = true
	adm, err := admission.NewUtilizationBound(0.85, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Admission = adm
	var trace []TraceRequest
	sz := []float64{0.2, 1.7, 0.4, 3.1, 0.9, 0.15, 6.0, 0.5}
	for i := 0; i < 3000; i++ {
		trace = append(trace, TraceRequest{Time: float64(i + 1), Class: i % 2, Size: sz[i%len(sz)]})
	}
	res, err := RunTrace(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	var served int64
	for _, cs := range res.Classes {
		served += cs.Count
	}
	rejected := totalRejected(res)
	if rejected == 0 {
		t.Fatal("overloaded trace shed nothing behind a 0.85 utilization bound")
	}
	if math.IsNaN(res.FirstShedAt) {
		t.Error("FirstShedAt unset although requests were rejected")
	}
	if served+rejected != int64(len(trace)) {
		t.Errorf("served %d + rejected %d = %d, trace offered %d", served, rejected, served+rejected, len(trace))
	}
}
