package workload

import (
	"fmt"
	"math"

	"psd/internal/dist"
	"psd/internal/rng"
)

// Phase is one segment of a piecewise-constant arrival-rate schedule:
// from Start until the next phase begins, class i's Poisson rate is its
// base rate × ScaleFor(i).
type Phase struct {
	// Start is the phase's onset in time units from the run's start (in
	// the simulator, absolute simulation time, warmup included).
	Start float64
	// Scale multiplies each class's base rate. Length 1 applies one
	// factor to every class; otherwise the length must equal the class
	// count.
	Scale []float64
}

// ScaleFor returns the phase's factor for class i.
func (p Phase) ScaleFor(i int) float64 {
	if len(p.Scale) == 1 {
		return p.Scale[0]
	}
	return p.Scale[i]
}

// LoadStep builds a single global load step: all classes jump to factor×
// their base rates at time at.
func LoadStep(at, factor float64) []Phase {
	return []Phase{{Start: at, Scale: []float64{factor}}}
}

// FlashCrowd builds a transient surge: factor× the base rates during
// [at, at+duration), then back to the base rates.
func FlashCrowd(at, duration, factor float64) []Phase {
	return []Phase{
		{Start: at, Scale: []float64{factor}},
		{Start: at + duration, Scale: []float64{1}},
	}
}

// ClassMixChurn rotates a traffic surge across classes while keeping the
// aggregate offered load roughly constant: starting at time at, phase k
// (of the given count, each period long) runs class k mod classes at hi×
// its base rate and every other class at lo×. With equal per-class base
// loads, hi + (classes−1)·lo = classes keeps the total unchanged.
func ClassMixChurn(classes int, at, period float64, count int, hi, lo float64) []Phase {
	phases := make([]Phase, count)
	for k := range phases {
		scale := make([]float64, classes)
		for i := range scale {
			scale[i] = lo
		}
		scale[k%classes] = hi
		phases[k] = Phase{Start: at + float64(float64(k)*period), Scale: scale}
	}
	return phases
}

// ValidateSchedule checks a schedule against the class count: finite,
// non-negative, strictly increasing starts and finite, non-negative
// factors, one or one per class in every phase.
func ValidateSchedule(schedule []Phase, classes int) error {
	prev := math.Inf(-1)
	for k, ph := range schedule {
		if !(ph.Start >= 0) || math.IsInf(ph.Start, 0) || ph.Start <= prev {
			return fmt.Errorf("workload: load phase %d start %v must be finite, >= 0 and after the previous start %v", k, ph.Start, prev)
		}
		prev = ph.Start
		if len(ph.Scale) != 1 && len(ph.Scale) != classes {
			return fmt.Errorf("workload: load phase %d has %d scale factors for %d classes (want 1 or %d)",
				k, len(ph.Scale), classes, classes)
		}
		for i, s := range ph.Scale {
			if !(s >= 0) || math.IsInf(s, 0) {
				return fmt.Errorf("workload: load phase %d scale[%d] = %v must be finite and >= 0", k, i, s)
			}
		}
	}
	return nil
}

// drawAhead is how many draws a Stream takes ahead from each of its two
// sources: 2 × 64 float64s, 1 KiB per class.
const drawAhead = 64

// Stream is one class's requests: Poisson gaps at the current rate and
// sizes from the class's law, each from its own source (SplitClass),
// read through draw-ahead buffers in the order one draw per request
// would read them — the gaps as unit exponentials over the rate, exactly
// as ExpFloat64 divides, the sizes in batches from a dist.Filler and one
// at a time from any other law. It is a plain value for an arena.
type Stream struct {
	law    dist.Distribution
	filler dist.Filler // law, when it may be drawn ahead; else nil

	arrivals, sizeSrc rng.Source
	// gaps and sizes hold the draws taken ahead; gapAt and sizeAt index
	// the next unread one (drawAhead: none left).
	gaps, sizes   [drawAhead]float64
	gapAt, sizeAt int

	base, rate float64 // the class's base rate and the current one
}

// SplitClass derives class's two sources from the run's root: arrivals
// from stream 2·class+1, sizes from 2·class+2.
func SplitClass(root *rng.Source, class int, arrivals, sizes *rng.Source) {
	root.SplitInto(arrivals, uint64(2*class+1))
	root.SplitInto(sizes, uint64(2*class+2))
}

// Reset re-arms the stream for class of a run with the given root
// source, base rate and size law, at the base rate.
func (s *Stream) Reset(root *rng.Source, class int, base float64, law dist.Distribution) {
	SplitClass(root, class, &s.arrivals, &s.sizeSrc)
	s.law = law
	s.filler, _ = law.(dist.Filler)
	s.gapAt, s.sizeAt = drawAhead, drawAhead
	s.base, s.rate = base, base
}

// Scale sets the current rate to the base rate times factor (a phase's
// ScaleFor).
func (s *Stream) Scale(factor float64) { s.rate = s.base * factor }

// Rate returns the current arrival rate.
func (s *Stream) Rate() float64 { return s.rate }

// NextGap returns the time from one arrival to the next at the current
// rate, which must be positive.
func (s *Stream) NextGap() float64 {
	if s.gapAt == drawAhead {
		s.refillGaps()
	}
	s.gapAt++
	return s.gaps[s.gapAt-1] / s.rate
}

// refillGaps draws the next drawAhead unit exponentials. The refills stay
// out of line so that NextGap and NextSize inline.
//
//go:noinline
func (s *Stream) refillGaps() {
	s.arrivals.FillExp(s.gaps[:])
	s.gapAt = 0
}

// NextSize returns the size of the class's next request.
func (s *Stream) NextSize() float64 {
	if s.sizeAt == drawAhead {
		s.refillSizes()
	}
	s.sizeAt++
	return s.sizes[s.sizeAt-1]
}

// refillSizes draws ahead the whole buffer from a dist.Filler, and from
// any other law the next size alone, into the last slot.
//
//go:noinline
func (s *Stream) refillSizes() {
	if s.filler == nil {
		s.sizeAt = drawAhead - 1
		s.sizes[s.sizeAt] = s.law.Sample(&s.sizeSrc)
		return
	}
	s.filler.Fill(&s.sizeSrc, s.sizes[:])
	s.sizeAt = 0
}
