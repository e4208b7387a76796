package sweep

import (
	"math"
	"testing"

	"psd/internal/control"
	"psd/internal/simsrv"
)

func point(deltas []float64, rho float64, runs int) Point {
	cfg := simsrv.EqualLoadConfig(deltas, rho, nil)
	cfg.Warmup = 1000
	cfg.Horizon = 8000
	cfg.Seed = 7
	return Point{Cfg: cfg, Runs: runs}
}

func TestSweepMatchesRunReplications(t *testing.T) {
	p := point([]float64{1, 2}, 0.6, 6)
	aggs, err := Run([]Point{p})
	if err != nil {
		t.Fatal(err)
	}
	// The reference: a sequential loop in replication order, sharing no
	// pipeline code with the engine.
	ref := simsrv.NewAggregator(p.Cfg)
	var sim simsrv.Simulator
	var res simsrv.Result
	for rep := 0; rep < p.Runs; rep++ {
		if err := sim.Reset(p.Cfg, simsrv.ReplicationSeed(p.Cfg.Seed, rep)); err != nil {
			t.Fatal(err)
		}
		if err := sim.RunInto(&res); err != nil {
			t.Fatal(err)
		}
		ref.Add(&res)
	}
	want, err := ref.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	got := aggs[0]
	if got.Runs != want.Runs {
		t.Fatalf("runs %d vs %d", got.Runs, want.Runs)
	}
	// Same seed derivation, same replication order, same streaming
	// aggregation — the numbers must agree exactly.
	for i := range want.MeanSlowdowns {
		if got.MeanSlowdowns[i] != want.MeanSlowdowns[i] {
			t.Fatalf("class %d mean %v vs %v", i, got.MeanSlowdowns[i], want.MeanSlowdowns[i])
		}
	}
	if got.SystemSlowdown != want.SystemSlowdown {
		t.Fatalf("system %v vs %v", got.SystemSlowdown, want.SystemSlowdown)
	}
	if got.RatioSummaries[1] != want.RatioSummaries[1] {
		t.Fatalf("ratio summary %+v vs %+v", got.RatioSummaries[1], want.RatioSummaries[1])
	}
}

func TestSweepGridDeterministic(t *testing.T) {
	grid := []Point{
		point([]float64{1, 2}, 0.3, 4),
		point([]float64{1, 4}, 0.6, 4),
		point([]float64{1, 2, 3}, 0.5, 4),
	}
	a, err := Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(grid) || len(b) != len(grid) {
		t.Fatalf("aggregate counts %d/%d", len(a), len(b))
	}
	for p := range a {
		for i := range a[p].MeanSlowdowns {
			if a[p].MeanSlowdowns[i] != b[p].MeanSlowdowns[i] {
				t.Fatalf("point %d class %d not deterministic: %v vs %v",
					p, i, a[p].MeanSlowdowns[i], b[p].MeanSlowdowns[i])
			}
		}
		if a[p].EventsProcessed != b[p].EventsProcessed {
			t.Fatalf("point %d events %d vs %d", p, a[p].EventsProcessed, b[p].EventsProcessed)
		}
	}
}

func TestSweepWorkerCountInvariant(t *testing.T) {
	grid := []Point{
		point([]float64{1, 2}, 0.4, 5),
		point([]float64{1, 8}, 0.7, 5),
	}
	one := Engine{Workers: 1}
	many := Engine{Workers: 4}
	a, err := one.Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	b, err := many.Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	for p := range a {
		for i := range a[p].MeanSlowdowns {
			if a[p].MeanSlowdowns[i] != b[p].MeanSlowdowns[i] {
				t.Fatalf("worker count changed point %d class %d: %v vs %v",
					p, i, a[p].MeanSlowdowns[i], b[p].MeanSlowdowns[i])
			}
		}
		if a[p].RatioSummaries[1] != b[p].RatioSummaries[1] {
			t.Fatalf("worker count changed point %d ratio summary", p)
		}
	}
}

func TestSweepPacketizedAndTracePoints(t *testing.T) {
	pk := point([]float64{1, 2}, 0.6, 3)
	pk.Packetized = true

	tr := point([]float64{1, 2}, 0.5, 1)
	var trace []simsrv.TraceRequest
	tm := 0.0
	for i := 0; i < 2000; i++ {
		tm += 0.5
		trace = append(trace, simsrv.TraceRequest{Time: tm, Class: i % 2, Size: 0.2 + float64(i%5)*0.3})
	}
	tr.Trace = trace

	aggs, err := Run([]Point{pk, tr})
	if err != nil {
		t.Fatal(err)
	}
	for p, agg := range aggs {
		for i, m := range agg.MeanSlowdowns {
			if math.IsNaN(m) || m < 0 {
				t.Fatalf("point %d class %d mean slowdown %v", p, i, m)
			}
		}
		if agg.EventsProcessed == 0 {
			t.Fatalf("point %d processed no events", p)
		}
	}
	if aggs[0].Runs != 3 || aggs[1].Runs != 1 {
		t.Fatalf("run counts %d/%d", aggs[0].Runs, aggs[1].Runs)
	}
}

// TestSweepExactVsStreamingQuantiles pins the satellite claim that the P²
// streaming ratio summaries track the exact pooled quantiles: the paper's
// Figure 5 percentile bands must not depend on which path computed them
// beyond a small relative tolerance.
func TestSweepExactVsStreamingQuantiles(t *testing.T) {
	// 30 runs × 8 windows ≈ 240 pooled ratios per class pair — enough
	// for the P² markers to settle on this heavy-tailed data (at ~100
	// samples the p95 marker still wobbles by ~20%).
	grid := []Point{point([]float64{1, 4}, 0.6, 30)}
	streaming, err := (&Engine{}).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := (&Engine{ExactQuantiles: true}).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	s, e := streaming[0].RatioSummaries[1], exact[0].RatioSummaries[1]
	if s.N != e.N || s.N == 0 {
		t.Fatalf("pooled counts differ: %d vs %d", s.N, e.N)
	}
	// Moments and extrema are exact on both paths.
	if s.Mean != e.Mean || s.Min != e.Min || s.Max != e.Max {
		t.Fatalf("exact moments diverged: %+v vs %+v", s, e)
	}
	for _, q := range []struct {
		name       string
		got, want  float64
		relTol     float64
		absTolFrac float64 // fraction of the exact p95-p05 band
	}{
		{"p05", s.P05, e.P05, 0.15, 0.05},
		{"p50", s.P50, e.P50, 0.15, 0.05},
		{"p95", s.P95, e.P95, 0.15, 0.05},
	} {
		band := e.P95 - e.P05
		tol := math.Max(q.relTol*math.Abs(q.want), q.absTolFrac*band)
		if math.Abs(q.got-q.want) > tol {
			t.Errorf("%s: streaming %v vs exact %v (tol %v)", q.name, q.got, q.want, tol)
		}
	}
}

// TestSweepWindowRatioTracking: a tracked point must expose the
// per-window ratio time series, consistent across worker counts, while
// untracked points stay nil.
func TestSweepWindowRatioTracking(t *testing.T) {
	tracked := point([]float64{1, 2}, 0.6, 5)
	tracked.TrackWindowRatios = true
	plain := point([]float64{1, 2}, 0.6, 5)
	aggs, err := Run([]Point{tracked, plain})
	if err != nil {
		t.Fatal(err)
	}
	if aggs[1].WindowRatioMeans != nil {
		t.Fatal("untracked point grew a window series")
	}
	wr := aggs[0].WindowRatioMeans
	if wr == nil || len(wr) != 2 {
		t.Fatalf("window ratio series shape: %v", wr)
	}
	// 8000 tu horizon / 1000 tu windows = 8 windows.
	if len(wr[1]) != 8 {
		t.Fatalf("window count = %d, want 8", len(wr[1]))
	}
	valid := 0
	for _, v := range wr[1] {
		if !math.IsNaN(v) {
			if v <= 0 {
				t.Fatalf("non-positive mean ratio %v", v)
			}
			valid++
		}
	}
	if valid == 0 {
		t.Fatal("no window had a valid pooled ratio")
	}
	// Worker-count invariance extends to the tracked series.
	many, err := (&Engine{Workers: 4}).Run([]Point{tracked})
	if err != nil {
		t.Fatal(err)
	}
	for k := range wr[1] {
		a, b := wr[1][k], many[0].WindowRatioMeans[1][k]
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("window %d series depends on worker count: %v vs %v", k, a, b)
		}
	}
}

// TestSweepEstimatorAxis: estimator choice flows through Point.Cfg as a
// grid dimension, and both kinds aggregate deterministically.
func TestSweepEstimatorAxis(t *testing.T) {
	win := point([]float64{1, 2}, 0.6, 4)
	ew := win
	ew.Cfg.Estimator = control.EWMA
	aggs, err := Run([]Point{win, ew})
	if err != nil {
		t.Fatal(err)
	}
	if aggs[0].MeanSlowdowns[1] == aggs[1].MeanSlowdowns[1] {
		t.Fatal("estimator axis had no effect on the grid")
	}
	again, err := Run([]Point{ew})
	if err != nil {
		t.Fatal(err)
	}
	if aggs[1].MeanSlowdowns[1] != again[0].MeanSlowdowns[1] {
		t.Fatal("EWMA point not deterministic")
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Run(nil); err == nil {
		t.Error("accepted empty grid")
	}
	p := point([]float64{1, 2}, 0.5, 0)
	if _, err := Run([]Point{p}); err == nil {
		t.Error("accepted zero runs")
	}
	bad := point([]float64{1, -2}, 0.5, 1)
	if _, err := Run([]Point{bad}); err == nil {
		t.Error("accepted invalid config")
	}
}
