package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestFloatCounterConcurrentAdds(t *testing.T) {
	var c FloatCounter
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	// 0.5 is exactly representable, so the CAS-loop sum is exact.
	if got, want := c.Load(), float64(workers*per)*0.5; got != want {
		t.Fatalf("float counter = %v, want %v", got, want)
	}
}

func TestGaugePublishesNaN(t *testing.T) {
	var g Gauge
	if g.Load() != 0 {
		t.Fatalf("zero gauge reads %v", g.Load())
	}
	g.Set(math.NaN())
	if !math.IsNaN(g.Load()) {
		t.Fatalf("gauge lost NaN: %v", g.Load())
	}
	g.Set(-2.5)
	if g.Load() != -2.5 {
		t.Fatalf("gauge = %v, want -2.5", g.Load())
	}
}

func TestHistogramBinningEdges(t *testing.T) {
	h, err := NewHistogram(0, 3) // buckets [1,2) [2,4) [4,8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v      float64
		bucket int // -1 underflow, the bucket count overflow
	}{
		{1, 0}, {1.999, 0},
		{2, 1}, {3.999, 1},
		{4, 2}, {7.999, 2},
		{8, 3}, {1e30, 3},
		{0.999, -1}, {0.5, -1}, {0, -1}, {-3, -1},
		{math.NaN(), -1},
		{math.Inf(1), 3}, {math.Inf(-1), -1},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	snap := h.Snapshot()
	if snap.Count != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", snap.Count, len(cases))
	}
	var wantCounts [3]int64
	var wantUnder, wantOver int64
	for _, c := range cases {
		switch {
		case c.bucket < 0:
			wantUnder++
		case c.bucket >= 3:
			wantOver++
		default:
			wantCounts[c.bucket]++
		}
	}
	for i, w := range wantCounts {
		if snap.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, snap.Counts[i], w)
		}
	}
	if snap.Underflow != wantUnder || snap.Overflow != wantOver {
		t.Errorf("under/over = %d/%d, want %d/%d", snap.Underflow, snap.Overflow, wantUnder, wantOver)
	}
	// NaN and ±Inf must not have reached the sum.
	wantSum := 0.0
	for _, c := range cases {
		if !math.IsNaN(c.v) && !math.IsInf(c.v, 0) {
			wantSum += c.v
		}
	}
	if snap.Sum != wantSum {
		t.Errorf("sum = %v, want %v", snap.Sum, wantSum)
	}
}

func TestHistogramUpperBounds(t *testing.T) {
	h, _ := NewHistogram(-2, 4) // [0.25,0.5) [0.5,1) [1,2) [2,4)
	snap := h.Snapshot()
	want := []float64{0.5, 1, 2, 4}
	for i, w := range want {
		if got := snap.UpperBound(i); got != w {
			t.Errorf("UpperBound(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestHistogramMean(t *testing.T) {
	h, _ := NewHistogram(0, 4)
	if snap := h.Snapshot(); snap.Count != 0 || snap.Sum != 0 {
		t.Fatalf("empty histogram: count %d, sum %v", snap.Count, snap.Sum)
	}
	h.Observe(2)
	h.Observe(4)
	if snap := h.Snapshot(); snap.Sum/float64(snap.Count) != 3 {
		t.Fatalf("mean = %v/%d, want 3", snap.Sum, snap.Count)
	}
}

func TestSnapshotIntoReusesCapacity(t *testing.T) {
	h, _ := NewHistogram(0, 8)
	var s HistogramSnapshot
	h.SnapshotInto(&s)
	first := &s.Counts[0]
	h.Observe(1)
	h.SnapshotInto(&s)
	if &s.Counts[0] != first {
		t.Fatal("SnapshotInto reallocated a large-enough bucket slice")
	}
	if s.Counts[0] != 1 {
		t.Fatalf("bucket 0 = %d, want 1", s.Counts[0])
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	var c Counter
	var fc FloatCounter
	var g Gauge
	h, _ := NewHistogram(-7, 21)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		fc.Add(1.5)
		g.Set(3)
		h.Observe(0.25)
		h.Observe(1e9) // overflow path
		h.Observe(0)   // underflow path
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %v per run", allocs)
	}

	// The served-request pattern of the live server's per-class catalog,
	// as one block of events: AllocsPerRun truncates its per-run average
	// to an integer, so only a single run over a block holds the path to
	// 0.01 allocs/event.
	const classes, events = 8, 10_000
	r := NewRegistry()
	slow := r.HistogramVec("hot_slowdown", "", "class", classes, -7, 21)
	lat := r.HistogramVec("hot_latency_seconds", "", "class", classes, -13, 21)
	served := r.CounterVec("hot_served_total", "", "class", classes)
	work := r.FloatCounterVec("hot_work_total", "", "class", classes)
	block := testing.AllocsPerRun(1, func() {
		for k := 0; k < events; k++ {
			class := k % classes
			v := float64(1+k%97) * 0.125
			slow.At(class).Observe(v)
			lat.At(class).Observe(v * 0.01)
			served.At(class).Inc()
			work.At(class).Add(v)
		}
	})
	if block > 0.01*events {
		t.Fatalf("per-class hot path: %.0f allocations over %d events, want ≤ %.0f", block, events, 0.01*events)
	}
}

func TestRegistryPanicsOnBadNames(t *testing.T) {
	mustPanic := func(name string, f func(r *Registry)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f(NewRegistry())
	}
	mustPanic("invalid name", func(r *Registry) { r.Counter("9bad", "") })
	mustPanic("empty name", func(r *Registry) { r.Gauge("", "") })
	mustPanic("invalid label", func(r *Registry) { r.GaugeVec("ok_name", "", "0bad", 2) })
	mustPanic("duplicate", func(r *Registry) {
		r.Counter("twice", "")
		r.Gauge("twice", "")
	})
}

func TestRegistryMetricNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "")
	r.GaugeVec("b_gauge", "", "class", 3)
	r.HistogramVec("c_hist", "", "class", 2, 0, 4)
	got := r.MetricNames()
	want := []string{"a_total", "b_gauge", "c_hist"}
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}
