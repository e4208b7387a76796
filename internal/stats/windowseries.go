package stats

// WindowSeries accumulates per-window means of a time-stamped metric, the
// mechanism the paper uses to report slowdowns "measured for every
// thousand time units" (§4.1). Windows are [i·W, (i+1)·W); Width must
// be positive.
type WindowSeries struct {
	Width  float64
	sums   []float64
	counts []int64
}

// Reset clears all windows while retaining both the width and the
// accumulated bucket capacity, so a reused series observes a fresh run
// without reallocating.
func (s *WindowSeries) Reset() {
	s.sums = s.sums[:0]
	s.counts = s.counts[:0]
}

// Observe records value v at time t (t ≥ 0).
func (s *WindowSeries) Observe(t, v float64) {
	if t < 0 {
		return
	}
	i := int(t / s.Width)
	for len(s.sums) <= i {
		s.sums = append(s.sums, 0)
		s.counts = append(s.counts, 0)
	}
	s.sums[i] += v
	s.counts[i]++
}

// WindowMean returns the mean of window i and whether it has observations.
func (s *WindowSeries) WindowMean(i int) (float64, bool) {
	if i < 0 || i >= len(s.sums) || s.counts[i] == 0 {
		return 0, false
	}
	return s.sums[i] / float64(s.counts[i]), true
}
