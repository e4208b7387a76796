package simsrv

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/workload"
)

// Determinism goldens. Each scenario runs one seeded replication and
// compares every reported statistic for exact float64 equality (17
// significant digits round-trip losslessly). Any change that perturbs
// RNG draw order, event sequence numbering, or the (time, seq) fire
// order will trip them — which is the point: "average of 100
// replications" results are only comparable across versions if each
// seeded replication is exactly reproducible.
//
// The scenarios cover every execution mode the engine has: the plain
// partitioned model (2 and 5 classes stationary, 8 classes through a
// flash crowd with feedback and the ladder), the GPS-style
// work-conserving ablation, the packetized SCFQ server, and trace-driven
// replay, under both estimators.
//
// The seven Poisson-driven scenarios depend on the variate samplers in
// internal/rng and internal/dist, so their expected values are data:
// testdata/goldens_v3.json, rewritten from this binary's own output by
//
//	go test ./internal/simsrv -run TestGoldenDeterminism -update
//
// (the file's "about" field says what retired v1 and v2). The trace-replay
// scenarios draw nothing — arrivals and sizes come from the trace — so
// their values stay inline: captured from the closure-based
// container/heap engine before the allocation-free des rewrite, they
// survived every engine and sampler change since, and moved only in
// the last ulps (≤ 1.6e-15 relative, counts and maxima exact) when the
// per-request statistics became window sums folded at each control
// tick, the change that also retired goldens_v2.json.

var update = flag.Bool("update", false, "rewrite testdata/goldens_v3.json from this binary's output")

const goldenPath = "testdata/goldens_v3.json"

type goldenClass struct {
	Count   int64   `json:"count"`
	Mean    float64 `json:"mean"`
	Std     float64 `json:"std"`
	Max     float64 `json:"max"`
	Delay   float64 `json:"delay"`
	Service float64 `json:"service"`
}

type goldenResult struct {
	Events  uint64        `json:"events"`
	Realloc int           `json:"reallocations"`
	System  float64       `json:"system_slowdown"`
	Classes []goldenClass `json:"classes"`
	Rates   []float64     `json:"final_rates"`
}

type goldenFile struct {
	About string                  `json:"about"`
	Cases map[string]goldenResult `json:"cases"`
}

func readGoldenFile(t *testing.T) goldenFile {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var f goldenFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return f
}

// checkGoldenFile compares res with the named case of goldens_v3.json,
// or records it there under -update.
func checkGoldenFile(t *testing.T, name string, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	f := readGoldenFile(t)
	if *update {
		got := goldenResult{
			Events:  res.EventsProcessed,
			Realloc: res.Reallocations,
			System:  res.SystemSlowdown,
			Rates:   res.FinalRates,
		}
		for _, c := range res.Classes {
			got.Classes = append(got.Classes, goldenClass{c.Count, c.MeanSlowdown, c.StdSlowdown, c.MaxSlowdown, c.MeanDelay, c.MeanService})
		}
		f.Cases[name] = got
		raw, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := f.Cases[name]
	if !ok {
		t.Fatalf("%s: no such case in %s (run with -update)", name, goldenPath)
	}
	checkGolden(t, name, res, nil, want)
}

func checkGolden(t *testing.T, name string, res *Result, err error, want goldenResult) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.EventsProcessed != want.Events {
		t.Errorf("%s: events = %d, want %d", name, res.EventsProcessed, want.Events)
	}
	if res.Reallocations != want.Realloc {
		t.Errorf("%s: reallocations = %d, want %d", name, res.Reallocations, want.Realloc)
	}
	if res.SystemSlowdown != want.System {
		t.Errorf("%s: system slowdown = %.17g, want %.17g", name, res.SystemSlowdown, want.System)
	}
	for i, wc := range want.Classes {
		got := res.Classes[i]
		if got.Count != wc.Count {
			t.Errorf("%s class %d: count = %d, want %d", name, i, got.Count, wc.Count)
		}
		for _, f := range []struct {
			label     string
			got, want float64
		}{
			{"mean", got.MeanSlowdown, wc.Mean},
			{"std", got.StdSlowdown, wc.Std},
			{"max", got.MaxSlowdown, wc.Max},
			{"delay", got.MeanDelay, wc.Delay},
			{"service", got.MeanService, wc.Service},
		} {
			if f.got != f.want {
				t.Errorf("%s class %d: %s = %.17g, want %.17g", name, i, f.label, f.got, f.want)
			}
		}
	}
	for i, wr := range want.Rates {
		if res.FinalRates[i] != wr {
			t.Errorf("%s: final rate %d = %.17g, want %.17g", name, i, res.FinalRates[i], wr)
		}
	}
}

func TestGoldenDeterminismPlain2(t *testing.T) {
	cfg := EqualLoadConfig([]float64{1, 4}, 0.6, nil)
	cfg.Warmup = 1000
	cfg.Horizon = 8000
	cfg.Seed = 7
	res, err := Run(cfg)
	checkGoldenFile(t, "plain2", res, err)
}

func TestGoldenDeterminismPlain5(t *testing.T) {
	cfg := EqualLoadConfig([]float64{1, 2, 4, 8, 16}, 0.8, nil)
	cfg.Warmup = 1000
	cfg.Horizon = 8000
	cfg.Seed = 42
	res, err := Run(cfg)
	checkGoldenFile(t, "plain5", res, err)
}

// TestGoldenDeterminismTransient8 pins a partitioned run whose control
// plane moves: a flash crowd switching on and off at tick multiples (so
// phase switch and control tick share an instant), EWMA estimation, the
// feedback trim and the downgrading allocator's ladder.
func TestGoldenDeterminismTransient8(t *testing.T) {
	cfg := EqualLoadConfig([]float64{1, 2, 3, 4, 6, 8, 12, 16}, 0.8, nil)
	cfg.Window = 250
	cfg.Warmup = 1000
	cfg.Horizon = 8000
	cfg.Seed = 19
	cfg.LoadSchedule = workload.FlashCrowd(3000, 1500, 1.4)
	cfg.Feedback = true
	cfg.Estimator = control.EWMA
	cfg.Allocator = core.Downgrading{}
	res, err := Run(cfg)
	checkGoldenFile(t, "transient8", res, err)
}

func TestGoldenDeterminismWorkConserving(t *testing.T) {
	cfg := EqualLoadConfig([]float64{1, 2}, 0.7, nil)
	cfg.Warmup = 1000
	cfg.Horizon = 8000
	cfg.Seed = 11
	cfg.WorkConserving = true
	res, err := Run(cfg)
	checkGoldenFile(t, "plain2wc", res, err)
}

func TestGoldenDeterminismPacketized(t *testing.T) {
	cfg := EqualLoadConfig([]float64{1, 4}, 0.6, nil)
	cfg.Warmup = 1000
	cfg.Horizon = 8000
	cfg.Seed = 7
	res, err := runPacketized(PacketizedConfig{Config: cfg})
	checkGoldenFile(t, "packetized2", res, err)
}

func TestGoldenDeterminismTrace(t *testing.T) {
	cfg := EqualLoadConfig([]float64{1, 2}, 0.5, nil)
	cfg.Warmup = 500
	cfg.Horizon = 4000
	cfg.Seed = 3
	var trace []TraceRequest
	tm := 0.0
	sz := []float64{0.2, 1.7, 0.4, 3.1, 0.9, 0.15, 6.0, 0.5}
	for i := 0; i < 4000; i++ {
		tm += 0.35 + float64(i%7)*0.11
		trace = append(trace, TraceRequest{Time: tm, Class: i % 2, Size: sz[i%len(sz)]})
	}
	res, err := RunTrace(cfg, trace)
	checkGolden(t, "trace2", res, err, goldenResult{
		Events:  6764,
		Realloc: 4,
		System:  1655.8928601680316,
		Classes: []goldenClass{
			{1276, 1894.3689138985094, 1949.9631735179491, 7870.200041161741, 1430.9845084214198, 3.1328373956943207},
			{1177, 1397.3580729462049, 1752.0585670416924, 6827.2762848459843, 1465.2170003472388, 3.3944714655105792},
		},
		Rates: []float64{0.6182462743095003, 0.38175372569049959},
	})
}

// EWMA-mode goldens pin the EWMA estimator's trajectory across all
// three server models the same way the window-mode goldens above pin
// the paper's default — any change to the EWMA update order, the Loop's
// tick sequence, or the RNG draw schedule trips them.

func TestGoldenDeterminismEWMAPlain2(t *testing.T) {
	cfg := EqualLoadConfig([]float64{1, 4}, 0.6, nil)
	cfg.Warmup = 1000
	cfg.Horizon = 8000
	cfg.Seed = 7
	cfg.Estimator = control.EWMA
	res, err := Run(cfg)
	checkGoldenFile(t, "ewma-plain2", res, err)
}

func TestGoldenDeterminismEWMAPacketized(t *testing.T) {
	cfg := EqualLoadConfig([]float64{1, 4}, 0.6, nil)
	cfg.Warmup = 1000
	cfg.Horizon = 8000
	cfg.Seed = 7
	cfg.Estimator = control.EWMA
	res, err := runPacketized(PacketizedConfig{Config: cfg})
	checkGoldenFile(t, "ewma-packetized2", res, err)
}

func TestGoldenDeterminismEWMATrace(t *testing.T) {
	cfg := EqualLoadConfig([]float64{1, 2}, 0.5, nil)
	cfg.Warmup = 500
	cfg.Horizon = 4000
	cfg.Seed = 3
	cfg.Estimator = control.EWMA
	var trace []TraceRequest
	tm := 0.0
	sz := []float64{0.2, 1.7, 0.4, 3.1, 0.9, 0.15, 6.0, 0.5}
	for i := 0; i < 4000; i++ {
		tm += 0.35 + float64(i%7)*0.11
		trace = append(trace, TraceRequest{Time: tm, Class: i % 2, Size: sz[i%len(sz)]})
	}
	res, err := RunTrace(cfg, trace)
	checkGolden(t, "ewma-trace2", res, err, goldenResult{
		Events:  6766,
		Realloc: 4,
		System:  1657.9128667432819,
		Classes: []goldenClass{
			{1278, 1899.18749232389, 1959.0804242790139, 7923.2909159110532, 1432.7943067430965, 3.1346946003700391},
			{1177, 1395.9341314059693, 1748.9732286010294, 6782.2771459867763, 1465.1235568524496, 3.3963570924124475},
		},
		Rates: []float64{0.62106946521053896, 0.37893053478946104},
	})
}

// TestGoldenRunTwiceIdentical guards the weaker invariant directly: two
// runs of the same seed in the same binary are exactly equal, including
// the per-window means (NaN placement and all).
func TestGoldenRunTwiceIdentical(t *testing.T) {
	cfg := EqualLoadConfig([]float64{1, 4}, 0.6, nil)
	cfg.Warmup = 1000
	cfg.Horizon = 8000
	cfg.Seed = 123
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.EventsProcessed != b.EventsProcessed || a.SystemSlowdown != b.SystemSlowdown {
		t.Fatalf("same-seed runs differ: %v vs %v", a, b)
	}
	for i := range a.Classes {
		wa, wb := a.Classes[i].WindowMeans, b.Classes[i].WindowMeans
		if len(wa) != len(wb) {
			t.Fatalf("window count differs for class %d", i)
		}
		for k := range wa {
			same := wa[k] == wb[k] || (math.IsNaN(wa[k]) && math.IsNaN(wb[k]))
			if !same {
				t.Fatalf("class %d window %d: %v vs %v", i, k, wa[k], wb[k])
			}
		}
	}
}
