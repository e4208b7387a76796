package httpsrv

import (
	"math"

	"psd/internal/obs"
)

// Rates returns the current per-class rates.
func (s *Server) Rates() []float64 {
	out := make([]float64, len(s.classes))
	for i, cr := range s.classes {
		out[i] = cr.currentRate()
	}
	return out
}

// FlightRecorder exposes the control-plane flight recorder (the recorder
// parity tests compare it against a bare Loop's).
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.rec }

// RateEpoch returns how many times the class's rate has actually changed
// since start (a publication version: readers pairing Rates with epochs
// can detect a concurrent reallocation).
func (s *Server) RateEpoch(class int) uint64 {
	return s.classes[class].rateEpoch.Load()
}

// injectWindow adds a synthetic window observation (stripe 0), letting
// tests and benchmarks drive the control plane with exact counts.
func (cr *classRuntime) injectWindow(count int64, work float64) {
	cr.stripes[0].arrivals.Add(count)
	addFloatBits(&cr.stripes[0].workBits, work)
}

// pendingWindow reads the not-yet-drained window totals without
// resetting them (racy against a concurrent drain by design, like any
// scrape).
func (cr *classRuntime) pendingWindow() (count, work float64) {
	for i := range cr.stripes {
		st := &cr.stripes[i]
		count += float64(st.arrivals.Load())
		work += math.Float64frombits(st.workBits.Load())
	}
	return count, work
}
