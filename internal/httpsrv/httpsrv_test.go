package httpsrv

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"psd/internal/control"
	"psd/internal/core"
)

// fastServer uses a tiny time unit so tests complete quickly.
func fastServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Deltas == nil {
		cfg.Deltas = []float64{1, 2}
	}
	if cfg.TimeUnit == 0 {
		cfg.TimeUnit = time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Mux())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted empty deltas")
	}
	if _, err := New(Config{Deltas: []float64{1, -1}}); err == nil {
		t.Error("accepted negative delta")
	}
	if _, err := New(Config{Deltas: []float64{1}, MaxSize: math.Inf(1)}); err == nil {
		t.Error("accepted infinite max size (re-opens the ?size=+Inf overflow hole)")
	}
	if _, err := New(Config{Deltas: []float64{1}, MaxSize: -1}); err == nil {
		t.Error("accepted negative max size")
	}
}

// TestNewRefusesUnrepresentablePeriods: the reallocation period (Window
// × TimeUnit) and the watchdog threshold must each be a Duration of at
// least 1ns. Otherwise time.NewTicker panics in the reallocation loop, or
// an overflowed threshold turns negative and silently disables the
// watchdog; New must refuse the config instead.
func TestNewRefusesUnrepresentablePeriods(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"sub-nanosecond period", Config{Window: 1e-9}},
		{"infinite window", Config{Window: math.Inf(1)}},
		{"NaN window", Config{Window: math.NaN()}},
		{"negative time unit", Config{TimeUnit: -time.Millisecond}},
		{"overflowing period", Config{Window: 1e12, TimeUnit: time.Hour}},
		{"overflowing watchdog", Config{Window: 100, WatchdogFactor: 1e300}},
		{"infinite watchdog", Config{WatchdogFactor: math.Inf(1)}},
		{"NaN watchdog", Config{WatchdogFactor: math.NaN()}},
	}
	for _, tc := range cases {
		tc.cfg.Deltas = []float64{1, 2}
		if s, err := New(tc.cfg); err == nil {
			s.Close()
			t.Errorf("%s: accepted window %v, time unit %v, watchdog %v", tc.name, tc.cfg.Window, tc.cfg.TimeUnit, tc.cfg.WatchdogFactor)
		}
	}
	// The bounds themselves stay legal: a 1ns period, and a disabled
	// watchdog whatever the period.
	for _, cfg := range []Config{
		{Window: 1, TimeUnit: time.Nanosecond, WatchdogFactor: -1},
		{Window: 1e9, TimeUnit: time.Millisecond, WatchdogFactor: -1},
	} {
		cfg.Deltas = []float64{1, 2}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("window %v × %v refused: %v", cfg.Window, cfg.TimeUnit, err)
		}
		s.Close()
	}
}

func TestSingleRequestLifecycle(t *testing.T) {
	_, ts := fastServer(t, Config{})
	var resp Response
	r := getJSON(t, ts.URL+"/?class=0&size=2", &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if resp.Class != 0 || resp.Size != 2 {
		t.Fatalf("echo wrong: %+v", resp)
	}
	// Idle server: initial rate is 1/2, so service ≈ 2/0.5 = 4 time
	// units = 4ms; generous upper bound for CI jitter.
	if resp.ServiceMs < 3 || resp.ServiceMs > 100 {
		t.Fatalf("service %vms outside [3, 100]", resp.ServiceMs)
	}
	if resp.Slowdown < 0 {
		t.Fatalf("negative slowdown: %+v", resp)
	}
}

func TestClassificationHeaderBeatsQuery(t *testing.T) {
	s, ts := fastServer(t, Config{})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/?class=0&size=1", nil)
	req.Header.Set("X-PSD-Class", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body Response
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Class != 1 {
		t.Fatalf("header classification ignored: %+v", body)
	}
	_ = s
}

func TestUnclassifiedGetsLowestTier(t *testing.T) {
	_, ts := fastServer(t, Config{Deltas: []float64{1, 2, 4}})
	var resp Response
	getJSON(t, ts.URL+"/?size=1", &resp)
	if resp.Class != 2 {
		t.Fatalf("unclassified traffic got class %d, want lowest tier 2", resp.Class)
	}
	getJSON(t, ts.URL+"/?class=99&size=1", &resp)
	if resp.Class != 2 {
		t.Fatalf("overflow class mapped to %d, want 2", resp.Class)
	}
}

func TestInvalidSizeRejected(t *testing.T) {
	_, ts := fastServer(t, Config{})
	for _, q := range []string{"size=abc", "size=-1", "size=0", "size=1e12", "size=+Inf"} {
		r := getJSON(t, ts.URL+"/?class=0&"+q, nil)
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, r.StatusCode)
		}
	}
}

func TestUndeclaredSizeSampled(t *testing.T) {
	_, ts := fastServer(t, Config{})
	var resp Response
	getJSON(t, ts.URL+"/?class=0", &resp)
	if !(resp.Size >= 0.1 && resp.Size <= 100) {
		t.Fatalf("sampled size %v outside BP support", resp.Size)
	}
}

func TestFCFSWithinClass(t *testing.T) {
	_, ts := fastServer(t, Config{Deltas: []float64{1}})
	// Fire a simultaneous burst at the single-worker class: with one
	// task server and ~5ms of work per request, serialization forces a
	// wide delay spread — the last-served request waits several service
	// times while the first waits ~0. (Arrival order itself is subject
	// to goroutine scheduling, so the assertion is on the spread, not on
	// per-index monotonicity.)
	const n = 6
	var wg sync.WaitGroup
	delays := make([]float64, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp Response
			getJSON(t, fmt.Sprintf("%s/?class=0&size=5", ts.URL), &resp)
			delays[i] = resp.DelayMs
		}()
	}
	wg.Wait()
	minD, maxD := delays[0], delays[0]
	for _, d := range delays[1:] {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	// The last-served request queues behind ~5 others (≈25ms); allow
	// generous slack for CI timers but require clear serialization.
	if maxD < 10 {
		t.Fatalf("no queueing observed in burst: delays %v", delays)
	}
	if minD > maxD/2 {
		t.Fatalf("first-served request should wait far less than last: %v", delays)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := fastServer(t, Config{})
	var resp Response
	getJSON(t, ts.URL+"/?class=0&size=1", &resp)
	getJSON(t, ts.URL+"/?class=1&size=1", &resp)
	var doc MetricsDocument
	getJSON(t, ts.URL+"/metrics", &doc)
	if len(doc.Classes) != 2 {
		t.Fatalf("metrics classes = %d", len(doc.Classes))
	}
	if doc.Classes[0].Served < 1 || doc.Classes[1].Served < 1 {
		t.Fatalf("served counts wrong: %+v", doc.Classes)
	}
	if doc.Classes[0].Delta != 1 || doc.Classes[1].Delta != 2 {
		t.Fatalf("deltas wrong: %+v", doc.Classes)
	}
	if doc.UptimeSeconds <= 0 {
		t.Fatal("uptime missing")
	}
}

func TestReallocateShiftsRates(t *testing.T) {
	// Declare traffic only on class 0; after a manual window the
	// allocator should hand class 0 nearly all capacity.
	s, ts := fastServer(t, Config{Window: 1e9}) // effectively disable the ticker
	for i := 0; i < 20; i++ {
		var resp Response
		getJSON(t, ts.URL+"/?class=0&size=0.5", &resp)
	}
	s.reallocate()
	rates := s.Rates()
	if !(rates[0] > 0.9) {
		t.Fatalf("rates after skewed load = %v, want class0 > 0.9", rates)
	}
}

func TestReallocateKeepsRatesOnInfeasible(t *testing.T) {
	s, err := New(Config{Deltas: []float64{1, 2}, TimeUnit: time.Millisecond, Window: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Rates()
	// Declare an impossible load (estimated utilization >> 1 against the
	// 1e9-unit window), then force a reallocation: rates must not change.
	s.classes[0].injectWindow(4e9, 4e9) // λ̂ = 4/tu ⇒ ρ̂ = 4·E[X] > 1
	s.reallocate()
	after := s.Rates()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rates changed under infeasible estimate: %v -> %v", before, after)
		}
	}
}

func TestQueueFullReturns503(t *testing.T) {
	s, err := New(Config{
		Deltas:        []float64{1},
		TimeUnit:      100 * time.Millisecond, // slow server
		QueueCapacity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Mux())
	defer func() { ts.Close(); s.Close() }()

	// First request occupies the worker; second sits in the queue slot;
	// subsequent ones must be rejected.
	errs := make(chan int, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/?class=0&size=10")
			if err == nil {
				errs <- resp.StatusCode
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	got503 := false
	for code := range errs {
		if code == http.StatusServiceUnavailable {
			got503 = true
		}
	}
	if !got503 {
		t.Fatal("no 503 despite capacity-1 queue and 8 concurrent requests")
	}
}

func TestFeedbackControllerWiring(t *testing.T) {
	s, err := New(Config{
		Deltas:   []float64{1, 2},
		TimeUnit: time.Millisecond,
		Window:   1e9,
		Spec:     control.Spec{Feedback: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Simulate a window where class 1's measured ratio overshoots: the
	// controller should trim its effective delta below target.
	s.recordCompletion(0, s.classes[0], 0, 0, 1)
	s.recordCompletion(1, s.classes[1], 0, 0, 10) // ratio 10 vs target 2
	s.classes[0].observeArrival(1)
	s.classes[1].observeArrival(1)
	s.reallocate()
	doc := s.Snapshot()
	if !(doc.Classes[1].EffectiveDelta < 2) {
		t.Fatalf("effective delta not trimmed: %+v", doc.Classes[1])
	}
}

// TestDifferentiationUnderLoad is the end-to-end check: concurrent Poisson
// traffic on both classes must leave class 0 with a (loosely) smaller mean
// slowdown. Kept statistical and generous to avoid CI flakiness.
func TestDifferentiationUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short")
	}
	s, ts := fastServer(t, Config{
		Deltas:   []float64{1, 4},
		TimeUnit: time.Millisecond,
		Window:   50, // 50ms reallocation
	})
	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	for class := 0; class < 2; class++ {
		class := class
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond) // offered load ~0.8
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Get(fmt.Sprintf("%s/?class=%d&size=2", ts.URL, class))
					if err == nil {
						resp.Body.Close()
					}
				}()
			}
		}()
	}
	wg.Wait()
	doc := s.Snapshot()
	c0, c1 := doc.Classes[0], doc.Classes[1]
	if c0.Served < 50 || c1.Served < 50 {
		t.Skipf("insufficient throughput for a meaningful check: %d/%d", c0.Served, c1.Served)
	}
	if !(c0.MeanSlowdown < c1.MeanSlowdown) {
		t.Fatalf("differentiation inverted: class0 %v vs class1 %v",
			c0.MeanSlowdown, c1.MeanSlowdown)
	}
	if math.IsNaN(doc.SlowdownRatios[1]) || doc.SlowdownRatios[1] <= 1 {
		t.Fatalf("ratio %v, want > 1", doc.SlowdownRatios[1])
	}
}

func TestCloseIsIdempotentAndStopsWorkers(t *testing.T) {
	s, err := New(Config{Deltas: []float64{1}, TimeUnit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // second close must not panic or deadlock
}

func TestAllocatorPluggability(t *testing.T) {
	s, err := New(Config{
		Deltas:   []float64{1, 2},
		TimeUnit: time.Millisecond,
		Window:   1e9,
		Spec:     control.Spec{Allocator: core.DemandProportional{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.classes[0].observeArrival(1)
	s.classes[1].observeArrival(1)
	s.reallocate()
	rates := s.Rates()
	if math.Abs(rates[0]-rates[1]) > 1e-9 {
		t.Fatalf("demand-proportional with equal loads should split evenly: %v", rates)
	}
}
