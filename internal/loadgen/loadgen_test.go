package loadgen

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"psd/internal/dist"
	"psd/internal/httpsrv"
	"psd/internal/workload"
)

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{}); err == nil {
		t.Error("accepted empty BaseURL")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x"}); err == nil {
		t.Error("accepted empty lambdas")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", Lambdas: []float64{1}}); err == nil {
		t.Error("accepted zero duration")
	}
}

// TestRunRefusesSpinningGenerators: a rate or time unit that would make
// the arrival generator spin is refused before any request is sent — a
// finite rate too, once its mean gap falls under the clock's 1 ns — and
// a rate so low that its gaps overflow a time.Duration sends nothing.
func TestRunRefusesSpinningGenerators(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer ts.Close()
	run := func(lambdas []float64, unit time.Duration, schedule []workload.Phase) (*Report, error) {
		return Run(context.Background(), Config{
			BaseURL: ts.URL + "/", Lambdas: lambdas, TimeUnit: unit, Schedule: schedule,
			Duration: 100 * time.Millisecond, Workers: 2, Seed: 1,
		})
	}
	for _, tc := range []struct {
		name    string
		lambdas []float64
		unit    time.Duration
		phases  []workload.Phase
	}{
		{"+Inf rate", []float64{math.Inf(1), 0.1}, time.Millisecond, nil},
		{"NaN rate", []float64{math.NaN(), 0.1}, time.Millisecond, nil},
		{"negative rate", []float64{-1, 0.1}, time.Millisecond, nil},
		{"-Inf rate", []float64{0.1, math.Inf(-1)}, time.Millisecond, nil},
		{"negative time unit", []float64{0.1, 0.1}, -time.Millisecond, nil},
		{"1e300 per ms", []float64{1e300, 0.1}, time.Millisecond, nil},
		{"a 0.5 ns mean gap", []float64{0.1, 2e6}, time.Millisecond, nil},
		{"a 0.1 ns mean gap at the default unit", []float64{1e8, 0.1}, 0, nil},
		{"1e300 per ms in a later phase", []float64{0.1, 0.1}, time.Millisecond, []workload.Phase{
			{Start: 50, Scale: []float64{1e301, 1}},
		}},
		{"+Inf rate in a later phase", []float64{0.1, 0.1}, time.Millisecond, []workload.Phase{
			{Start: 50, Scale: []float64{1, math.Inf(1)}},
		}},
		{"a rate that overflows to +Inf in a later phase", []float64{0.1, 10}, time.Millisecond, []workload.Phase{
			{Start: 50, Scale: []float64{1, 1e308}},
		}},
		{"a phase starting at the end of the run", []float64{0.1, 0.1}, time.Millisecond, []workload.Phase{
			{Start: 100, Scale: []float64{2}},
		}},
	} {
		if _, err := run(tc.lambdas, tc.unit, tc.phases); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("refused configs sent %d requests", n)
	}
	// A mean gap of exactly 1 ns is the finest rate the clock can pace.
	if err := validate(Config{BaseURL: ts.URL + "/", Lambdas: []float64{1e6}, TimeUnit: time.Millisecond, Duration: time.Second}); err != nil {
		t.Errorf("1e6 per ms (1 ns mean gap) refused: %v", err)
	}

	// λ = 1e-300 per ms: the first gap is ~1e303 ms, past any Duration.
	rep, err := run([]float64{1e-300, 0}, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sent := rep.Classes[0].Sent + rep.Classes[1].Sent; sent != 0 || hits.Load() != 0 {
		t.Errorf("λ = 1e-300: sent %d, server saw %d; want 0", sent, hits.Load())
	}
}

func TestRunAgainstPSDServer(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short")
	}
	srv, err := httpsrv.New(httpsrv.Config{
		Deltas:   []float64{1, 2},
		TimeUnit: time.Millisecond,
		Window:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Mux())
	defer func() { ts.Close(); srv.Close() }()

	small, _ := dist.NewUniform(0.5, 1.5)
	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL + "/",
		Lambdas:  []float64{0.2, 0.2}, // per time unit (1ms) → 200 rps/class
		TimeUnit: time.Millisecond,
		Service:  small,
		Duration: 1500 * time.Millisecond,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rep.Classes {
		if c.Sent == 0 {
			t.Fatalf("class %d sent nothing", i)
		}
		if c.Completed == 0 {
			t.Fatalf("class %d completed nothing (errors=%d)", i, c.Errors)
		}
		if c.MeanLatencyMs <= 0 {
			t.Fatalf("class %d latency %v", i, c.MeanLatencyMs)
		}
	}
	if rep.Elapsed < time.Second {
		t.Fatalf("elapsed %v too short", rep.Elapsed)
	}
	// Ratio helper sanity (no strict value assertion: short run).
	if r := rep.SlowdownRatio(1); r < 0 {
		t.Fatalf("ratio %v negative", r)
	}
	if !math.IsNaN(rep.SlowdownRatio(0)) || !math.IsNaN(rep.SlowdownRatio(5)) {
		t.Fatal("out-of-range ratio should be NaN, not a value a bound check could pass")
	}
	if len(rep.Phases) != 1 || rep.Phases[0][0].Sent != rep.Classes[0].Sent {
		t.Fatalf("unphased run should report exactly its one phase: %+v", rep.Phases)
	}
}

// TestSlowdownRatioNaNWhenUnavailable pins the documented contract: no
// class-0 measurement ⇒ NaN, never 0 (0 silently passes ratio < bound).
func TestSlowdownRatioNaNWhenUnavailable(t *testing.T) {
	rep := &Report{Classes: make([]ClassReport, 2)}
	if r := rep.SlowdownRatio(1); !math.IsNaN(r) {
		t.Fatalf("ratio with empty base = %v, want NaN", r)
	}
	if r := rep.PhaseSlowdownRatio(3, 1); !math.IsNaN(r) {
		t.Fatalf("out-of-range phase ratio = %v, want NaN", r)
	}
}

// TestOpenLoopRateAccuracy pins the absolute-clock arrival scheduler: at
// 1000 req/s against an instant backend, the achieved rate must track
// the nominal λ instead of sagging under per-iteration overhead (the old
// start-timer-after-work loop lost each iteration's sampling and spawn
// time, compounding at high rates).
func TestOpenLoopRateAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock drift band is not meaningful under -short (race job)")
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"slowdown":0,"service_ms":1}`))
	}))
	defer ts.Close()

	sizes, _ := dist.NewDeterministic(1)
	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL + "/",
		Lambdas:  []float64{1}, // 1 per ms = 1000 req/s
		TimeUnit: time.Millisecond,
		Service:  sizes,
		Duration: 1500 * time.Millisecond,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Classes[0]
	// ~1500 arrivals: Poisson σ ≈ 39 (2.6%); 10% tolerance ≈ 4σ.
	if rel := math.Abs(c.AchievedRate-c.NominalRate) / c.NominalRate; rel > 0.10 {
		t.Fatalf("achieved rate %v vs nominal %v: drift %.1f%% (sent %d in %v)",
			c.AchievedRate, c.NominalRate, rel*100, c.Sent, rep.Elapsed)
	}
}

// TestPhasedScheduleSplitsReports drives a two-phase schedule and checks
// per-phase attribution and per-phase nominal rates.
func TestPhasedScheduleSplitsReports(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load test skipped in -short (race job)")
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"slowdown":0.5,"service_ms":1}`))
	}))
	defer ts.Close()

	sizes, _ := dist.NewDeterministic(1)
	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL + "/",
		TimeUnit: time.Millisecond,
		Service:  sizes,
		Lambdas:  []float64{0.5},
		Duration: 800 * time.Millisecond,
		Schedule: workload.LoadStep(400, 3),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("phases = %d", len(rep.Phases))
	}
	p0, p1 := rep.Phases[0][0], rep.Phases[1][0]
	if p0.NominalRate != 0.5 || p1.NominalRate != 1.5 {
		t.Fatalf("nominal rates %v/%v, want 0.5/1.5", p0.NominalRate, p1.NominalRate)
	}
	if p0.Sent == 0 || p1.Sent == 0 {
		t.Fatalf("phase sent counts %d/%d", p0.Sent, p1.Sent)
	}
	// 3× the rate for the same duration: phase 1 must clearly out-send
	// phase 0 (expected 200 vs 600; 1.5× leaves ~8σ of headroom).
	if float64(p1.Sent) < 1.5*float64(p0.Sent) {
		t.Fatalf("load step invisible in per-phase reports: %d vs %d", p0.Sent, p1.Sent)
	}
	if got := p0.Sent + p1.Sent; got != rep.Classes[0].Sent {
		t.Fatalf("aggregate sent %d != phase sum %d", rep.Classes[0].Sent, got)
	}
	if rep.Classes[0].NominalRate != 1.0 {
		t.Fatalf("aggregate nominal %v, want duration-weighted 1.0", rep.Classes[0].NominalRate)
	}
}

// TestPhaseValidation rejects malformed schedules.
func TestPhaseValidation(t *testing.T) {
	ctx := context.Background()
	bad := []Config{
		{BaseURL: "http://x", Lambdas: []float64{1}, Duration: time.Second, Schedule: []workload.Phase{
			{Start: 50, Scale: []float64{1}},
			{Start: 50, Scale: []float64{2}},
		}},
		{BaseURL: "http://x", Lambdas: []float64{1}, Duration: time.Second, Schedule: []workload.Phase{
			{Start: 50, Scale: []float64{1, 2}},
		}},
		{BaseURL: "http://x", Lambdas: []float64{1}, Duration: time.Second, Drain: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := Run(ctx, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRunRespectsContextCancel(t *testing.T) {
	srv, err := httpsrv.New(httpsrv.Config{Deltas: []float64{1}, TimeUnit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Mux())
	defer func() { ts.Close(); srv.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = Run(ctx, Config{
		BaseURL:  ts.URL + "/",
		Lambdas:  []float64{0.05},
		TimeUnit: time.Millisecond,
		Duration: 10 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("cancel not honored promptly")
	}
}

// TestWorkerPoolBoundsInFlight pins the pool's two contracts: in-flight
// requests never exceed Config.Workers, and arrivals that would have to
// wait are shed client-side (sent = completed + errors, with errors > 0
// under deliberate saturation) instead of blocking the open-loop clock.
func TestWorkerPoolBoundsInFlight(t *testing.T) {
	var inflight, peak, handled atomic.Int64
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(30 * time.Millisecond)
		handled.Add(1)
		_, _ = w.Write([]byte(`{"slowdown":1,"service_ms":30}`))
	}))
	defer slow.Close()

	det, err := dist.NewDeterministic(1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:    slow.URL + "/",
		Lambdas:    []float64{1}, // 1 req/ms against 4 workers × 30ms ⇒ saturation
		TimeUnit:   time.Millisecond,
		Service:    det,
		Duration:   250 * time.Millisecond,
		Drain:      500 * time.Millisecond,
		Workers:    4,
		MaxPending: 2,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Classes[0]
	if got := peak.Load(); got > 4 {
		t.Fatalf("peak in-flight %d exceeded the 4-worker pool", got)
	}
	if c.Errors == 0 {
		t.Fatal("saturating load produced no client-side sheds")
	}
	if c.Completed == 0 {
		t.Fatal("no requests completed at all")
	}
	if c.Sent != c.Completed+c.Errors {
		t.Fatalf("accounting leak: sent %d != completed %d + errors %d", c.Sent, c.Completed, c.Errors)
	}
}
