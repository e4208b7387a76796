package stats

import "sort"

// P2 is the Jain & Chlamtac P² streaming quantile estimator: it tracks a
// single quantile in O(1) space without storing the sample. The replication
// aggregator uses it to summarize pooled per-window slowdown ratios without
// buffering them (see simsrv.Aggregator); batch reports that need exact
// order statistics use Quantile instead. The zero value is unusable; call
// NewP2 or Init first. A P2 is freely embeddable by value and holds no
// heap state, so Reset/Init re-arm it without allocating.
type P2 struct {
	q       float64    // target quantile
	n       int        // observations seen
	heights [5]float64 // marker heights
	pos     [5]float64 // marker positions (1-based)
	desired [5]float64
	incr    [5]float64
	initial [5]float64 // first observations, buffered until 5 arrive
	ninit   int
}

// NewP2 creates an estimator for the q-th quantile, q in (0,1).
func NewP2(q float64) *P2 {
	p := &P2{}
	p.Init(q)
	return p
}

// Init (re)initializes the estimator in place for the q-th quantile,
// q in (0,1). It panics on an out-of-range quantile.
func (p *P2) Init(q float64) {
	if q <= 0 || q >= 1 {
		panic("stats: P2 quantile must be in (0,1)")
	}
	*p = P2{q: q}
}

// Add incorporates one observation.
func (p *P2) Add(x float64) {
	p.n++
	if p.ninit < 5 {
		p.initial[p.ninit] = x
		p.ninit++
		if p.ninit == 5 {
			sort.Float64s(p.initial[:])
			p.heights = p.initial
			for i := range p.pos {
				p.pos[i] = float64(i + 1)
			}
			p.desired = [5]float64{1, 1 + 2*p.q, 1 + 4*p.q, 3 + 2*p.q, 5}
			p.incr = [5]float64{0, p.q / 2, p.q, (1 + p.q) / 2, 1}
		}
		return
	}

	// Find cell k such that heights[k] <= x < heights[k+1].
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for i := 1; i < 5; i++ {
			if x < p.heights[i] {
				k = i - 1
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.desired {
		p.desired[i] += p.incr[i]
	}

	// Adjust interior markers.
	for i := 1; i <= 3; i++ {
		d := p.desired[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := p.parabolic(i, sign)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, sign)
			}
			p.pos[i] += sign
		}
	}
}

func (p *P2) parabolic(i int, d float64) float64 {
	num1 := p.pos[i] - p.pos[i-1] + d
	num2 := p.pos[i+1] - p.pos[i] - d
	den := p.pos[i+1] - p.pos[i-1]
	t1 := (p.heights[i+1] - p.heights[i]) / (p.pos[i+1] - p.pos[i])
	t2 := (p.heights[i] - p.heights[i-1]) / (p.pos[i] - p.pos[i-1])
	return p.heights[i] + d/den*(num1*t1+num2*t2)
}

func (p *P2) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.heights[i] + d*(p.heights[j]-p.heights[i])/(p.pos[j]-p.pos[i])
}

// Value returns the current quantile estimate. Before 5 observations it
// falls back to the exact quantile of the buffered sample.
func (p *P2) Value() float64 {
	if p.n == 0 {
		return 0
	}
	if p.ninit < 5 {
		var sorted [5]float64
		copy(sorted[:], p.initial[:p.ninit])
		sort.Float64s(sorted[:p.ninit])
		return QuantileSorted(sorted[:p.ninit], p.q)
	}
	return p.heights[2]
}

// StreamingSummary accumulates a Summary in O(1) space: exact count, mean,
// standard deviation and extrema via Welford, and P² estimates for the
// 5th/50th/95th percentiles. It is the streaming counterpart of Summarize
// for data too large (or too distributed over time) to buffer, such as the
// pooled per-window slowdown ratios of a 100-replication aggregate. The
// zero value is NOT ready; call Init (or embed and Init on first use).
type StreamingSummary struct {
	w   Welford
	p05 P2
	p50 P2
	p95 P2
}

// Init re-arms the accumulator, discarding prior observations.
func (s *StreamingSummary) Init() {
	s.w = Welford{}
	s.p05.Init(0.05)
	s.p50.Init(0.50)
	s.p95.Init(0.95)
}

// Add incorporates one observation.
func (s *StreamingSummary) Add(x float64) {
	s.w.Add(x)
	s.p05.Add(x)
	s.p50.Add(x)
	s.p95.Add(x)
}

// N returns the number of observations consumed.
func (s *StreamingSummary) N() int64 { return s.w.N() }

// Summary returns the current summary. Moments and extrema are exact; the
// percentiles are P² estimates (exact below 5 observations). The zero-
// observation summary is the zero Summary, matching Summarize's refusal to
// summarize nothing.
func (s *StreamingSummary) Summary() Summary {
	if s.w.N() == 0 {
		return Summary{}
	}
	return Summary{
		N: s.w.N(), Mean: s.w.Mean(), Std: s.w.Std(),
		Min: s.w.Min(), Max: s.w.Max(),
		P05: s.p05.Value(), P50: s.p50.Value(), P95: s.p95.Value(),
	}
}
