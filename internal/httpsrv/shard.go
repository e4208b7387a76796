package httpsrv

import (
	"math"
	randv2 "math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"psd/internal/rng"
)

// This file holds the server's sharded hot-path state: striped
// per-window accumulators, the atomic (epoch-versioned) rate cell, the
// striped size-sampling RNG, and the per-class admission locks. The
// design goal is that an admitted request on the steady-state path
// touches no server-wide mutex at all — only per-stripe atomics and (for
// sampled sizes / class-isolated admission) a lock shared with 1/Kth of
// the traffic.

// nStripes picks the accumulator/RNG stripe count for this process:
// enough stripes that concurrent writers on different Ps rarely collide
// on a cache line, capped so the window drain stays cheap. Always a
// power of two so stripe selection is a mask, fixed at server start
// (GOMAXPROCS changes mid-run only affect contention, not correctness).
func nStripes() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	if n > 64 {
		n = 64
	}
	// Round up to a power of two.
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// stripeIdx spreads writers across k stripes (k must be a power of two).
// math/rand/v2's global generator is per-P chacha8 state in the runtime:
// no lock, no allocation, and no shared cache line — exactly the cheap
// decorrelator striping wants. Uniformity matters less than avoiding a
// shared counter.
func stripeIdx(k int) int {
	return int(randv2.Uint32()) & (k - 1)
}

// windowStripe is one shard of a class's current-window accumulators.
// All four cells are drained with Swap by closeWindow, so an increment
// lands in exactly one window: nothing is ever lost or double-counted
// across the drain (asserted under -race by TestStormWindowConservation).
// Padded to a cache line so stripes don't false-share.
type windowStripe struct {
	arrivals atomic.Int64  // admitted requests this window
	workBits atomic.Uint64 // float64 bits: admitted work this window
	slowN    atomic.Int64  // completions this window
	slowBits atomic.Uint64 // float64 bits: summed slowdowns this window
	_        [32]byte      // pad to 64 bytes
}

// addFloatBits adds v to the float64 stored as bits, lock-free (same
// CAS loop the obs registry uses for its float counters).
func addFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// observeArrival accounts one admitted request in the current window.
// The count and the work land in the same stripe but are separate
// atomics, so a drain running between the two adds may split them across
// adjacent windows; each lands exactly once, so totals conserve and the
// estimator's windowed view is unbiased.
func (cr *classRuntime) observeArrival(size float64) {
	st := &cr.stripes[stripeIdx(len(cr.stripes))]
	st.arrivals.Add(1)
	addFloatBits(&st.workBits, size)
}

// observeSlowdown feeds one completion's slowdown into the current
// window (the controller consumes the per-window mean).
func (cr *classRuntime) observeSlowdown(sl float64) {
	st := &cr.stripes[stripeIdx(len(cr.stripes))]
	st.slowN.Add(1)
	addFloatBits(&st.slowBits, sl)
}

// closeWindow harvests and resets the per-window accumulators by
// Swap-draining every stripe: the N-shards view merges to exactly the
// single-stream totals (the same invariant the obs histogram merge
// machinery pins). Only the reallocation tick calls this in production;
// meanSlow is NaN when the window saw no completions.
func (cr *classRuntime) closeWindow() (count, work, meanSlow float64) {
	var n int64
	var slowSum float64
	for i := range cr.stripes {
		st := &cr.stripes[i]
		count += float64(st.arrivals.Swap(0))
		work += math.Float64frombits(st.workBits.Swap(0))
		n += st.slowN.Swap(0)
		slowSum += math.Float64frombits(st.slowBits.Swap(0))
	}
	if n > 0 {
		meanSlow = slowSum / float64(n)
	} else {
		meanSlow = math.NaN()
	}
	return count, work, meanSlow
}

// currentRate loads the installed class rate: a single atomic read.
// float64 bits in one word cannot tear (TestStormNoTornRates hammers
// this under -race).
func (cr *classRuntime) currentRate() float64 {
	return math.Float64frombits(cr.rateBits.Load())
}

// setRate publishes a new class rate and, when the value actually
// changed, bumps the rate epoch and wakes every class worker so in-
// flight jobs re-pace. The wake sends are non-blocking into reused
// buffered channels: the reallocation tick stays allocation-free
// (BenchmarkReallocate) and a coalesced signal only costs a worker one
// idempotent re-pace at the (re-read) current rate.
func (cr *classRuntime) setRate(r float64) {
	if cr.rateBits.Swap(math.Float64bits(r)) == math.Float64bits(r) {
		return
	}
	cr.rateEpoch.Add(1)
	for _, sig := range cr.sigs {
		select {
		case sig <- struct{}{}:
		default:
		}
	}
}

// rngStripe is one shard of the size-sampling RNG: a mutex-guarded
// deterministic child stream. Sampling takes the stripe lock only —
// 1/Kth of the old single sizeMu's traffic — and each stripe's stream is
// derived from Config.Seed via rng.SplitInto, so the sampled population
// is reproducible (though interleaving across stripes is not).
type rngStripe struct {
	mu  sync.Mutex
	src rng.Source
	_   [24]byte // pad to 64 bytes (8 mutex + 32 source)
}

// newRNGStripes derives k child streams from the server seed.
func newRNGStripes(seed uint64, k int) []rngStripe {
	parent := rng.New(seed)
	stripes := make([]rngStripe, k)
	for i := range stripes {
		parent.SplitInto(&stripes[i].src, uint64(i))
	}
	return stripes
}

// sampleSize draws an undeclared request size from one RNG stripe.
func (s *Server) sampleSize() float64 {
	st := &s.sizeStripes[stripeIdx(len(s.sizeStripes))]
	st.mu.Lock()
	v := s.cfg.Service.Sample(&st.src)
	st.mu.Unlock()
	return v
}

// paddedMutex keeps per-class admission locks off each other's cache
// lines.
type paddedMutex struct {
	mu sync.Mutex
	_  [56]byte
}

// admLock returns the lock guarding admission state for class: the
// class's own lock when the controller declared per-class isolation
// (admission.ClassIsolated), else the single global one.
func (s *Server) admLock(class int) *sync.Mutex {
	if len(s.admLocks) == 1 {
		return &s.admLocks[0].mu
	}
	return &s.admLocks[class].mu
}
