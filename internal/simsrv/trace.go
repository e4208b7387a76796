package simsrv

import (
	"fmt"
	"math"
	"sort"
)

// TraceRequest is one externally supplied arrival for trace-driven
// replay (e.g. from internal/workload's session generator or a recorded
// production trace).
type TraceRequest struct {
	Time  float64
	Class int
	Size  float64
}

// validateTrace checks a trace against the class count: time-sorted,
// in-range classes, finite non-negative times, finite positive sizes. A
// NaN time would slip past the sortedness test (every comparison with it
// is false) and stall the replay at that row; an infinite size would
// never complete.
func validateTrace(classes int, trace []TraceRequest) error {
	if len(trace) == 0 {
		return fmt.Errorf("simsrv: empty trace")
	}
	if !sort.SliceIsSorted(trace, func(i, j int) bool { return trace[i].Time < trace[j].Time }) {
		return fmt.Errorf("simsrv: trace not time-sorted")
	}
	for i, tr := range trace {
		if tr.Class < 0 || tr.Class >= classes {
			return fmt.Errorf("simsrv: trace[%d] class %d out of range", i, tr.Class)
		}
		if !(tr.Size > 0) || math.IsInf(tr.Size, 1) {
			return fmt.Errorf("simsrv: trace[%d] size %v must be positive and finite", i, tr.Size)
		}
		if !(tr.Time >= 0) || math.IsInf(tr.Time, 1) {
			return fmt.Errorf("simsrv: trace[%d] time %v must be non-negative and finite", i, tr.Time)
		}
	}
	return nil
}

// RunTrace replays a fixed arrival trace through the server model instead
// of the Poisson generators. The Config's class Lambdas are ignored for
// arrival generation but still seed the initial allocation (set them to
// the trace's empirical rates — see workload.ClassRates — or leave zero to
// start from an equal split); the estimator-driven reallocation then takes
// over exactly as in the Poisson mode.
//
// Requests arriving after Warmup+Horizon are ignored. The trace must be
// time-sorted with in-range classes and positive sizes. Batch callers
// replaying one trace many times should hold a Simulator and use
// ResetTrace to amortize arena construction.
func RunTrace(cfg Config, trace []TraceRequest) (*Result, error) {
	var s Simulator
	if err := s.ResetTrace(cfg, trace, cfg.Seed); err != nil {
		return nil, err
	}
	res := new(Result)
	if err := s.RunInto(res); err != nil {
		return nil, err
	}
	return res, nil
}
