// Package obs is the repo's zero-allocation observability layer: atomic
// counters and gauges, fixed-bucket log₂ histograms, a named metric
// registry with Prometheus text exposition, and a fixed-ring control-plane
// flight recorder.
//
// The design constraint is the same one the DES engine and control.Loop
// live under: the hot paths — Counter.Add, Gauge.Set, Histogram.Observe,
// FlightRecorder.Record — perform no heap allocation and take no locks
// beyond a single uncontended mutex (the recorder), so instrumenting the
// live server's ServeHTTP path and the shared control tick does not move
// the allocs/event and allocs/tick gates (TestHotPathAllocationFree and
// control's TestLoopTickAllocFreeWithRecorder). All registration and
// snapshot/exposition machinery is allowed to allocate: it runs at setup
// time or on a scrape, never per event.
//
// Histograms bin into geometrically spaced power-of-two buckets (bucket i
// covers [2^(first+i), 2^(first+i+1))) so Observe is one exponent
// extraction and one atomic increment, with explicit underflow/overflow
// buckets. Snapshots are plain values, safe to serialize.
package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic int64 counter. The zero
// value is ready to use. All methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n should be non-negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float64 counter (work units,
// seconds) built on a CAS loop over the bit pattern. The zero value is
// ready to use.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add adds v (v should be non-negative).
func (c *FloatCounter) Add(v float64) { atomicAddFloat(&c.bits, v) }

// Load returns the current total.
func (c *FloatCounter) Load() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an atomically published float64 — a value that goes up and
// down (rates, λ̂ estimates, queue depths). The zero value reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set publishes v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the last published value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// atomicAddFloat adds v to the float64 stored in bits.
func atomicAddFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram bins positive observations into power-of-two buckets: bucket
// i covers [2^(first+i), 2^(first+i+1)). Observations that are not
// positive (including NaN) or below the first bound land in the underflow
// bucket; those at or beyond the last bound in the overflow bucket. Only
// finite observations contribute to Sum, so a stray +Inf cannot poison
// the mean. Observe is allocation-free and safe for concurrent use.
type Histogram struct {
	first   int // exponent of the first bucket's lower bound
	counts  []atomic.Int64
	under   atomic.Int64
	over    atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram creates a histogram of n power-of-two buckets starting at
// 2^first. n must be at least 1.
func NewHistogram(first, n int) (*Histogram, error) {
	if n < 1 {
		return nil, fmt.Errorf("obs: histogram needs at least 1 bucket, got %d", n)
	}
	return &Histogram{first: first, counts: make([]atomic.Int64, n)}, nil
}

// Observe bins one observation.
func (h *Histogram) Observe(v float64) {
	h.count.Add(1)
	if !math.IsInf(v, 0) && !math.IsNaN(v) {
		atomicAddFloat(&h.sumBits, v)
	}
	if !(v > 0) { // negatives, zero and NaN all underflow
		h.under.Add(1)
		return
	}
	i := math.Ilogb(v) - h.first
	switch {
	case i < 0:
		h.under.Add(1)
	case i >= len(h.counts):
		h.over.Add(1)
	default:
		h.counts[i].Add(1)
	}
}

// Sum returns the sum of all finite observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramSnapshot is a point-in-time copy of a Histogram, a plain
// value safe to serialize. Concurrent observes during a
// snapshot may skew individual buckets by in-flight increments (each
// counter is read atomically but the set is not read as one transaction);
// every counter is monotone, so a snapshot never goes backwards.
type HistogramSnapshot struct {
	FirstExp  int     `json:"first_exp"`
	Counts    []int64 `json:"counts"`
	Underflow int64   `json:"underflow"`
	Overflow  int64   `json:"overflow"`
	Count     int64   `json:"count"`
	Sum       float64 `json:"sum"`
}

// SnapshotInto copies the histogram's current state into s, reusing s's
// bucket slice capacity.
func (h *Histogram) SnapshotInto(s *HistogramSnapshot) {
	s.FirstExp = h.first
	if cap(s.Counts) < len(h.counts) {
		s.Counts = make([]int64, len(h.counts))
	} else {
		s.Counts = s.Counts[:len(h.counts)]
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Underflow = h.under.Load()
	s.Overflow = h.over.Load()
	s.Count = h.count.Load()
	s.Sum = h.Sum()
}

// Snapshot returns a fresh copy of the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	h.SnapshotInto(&s)
	return s
}

// UpperBound returns bucket i's exclusive upper bound, 2^(FirstExp+i+1).
func (s *HistogramSnapshot) UpperBound(i int) float64 {
	return math.Ldexp(1, s.FirstExp+i+1)
}

// Mean returns Sum/Count, or NaN with no observations.
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}
