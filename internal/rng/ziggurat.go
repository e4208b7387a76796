package rng

import (
	"fmt"
	"math"
)

// Ziggurat samplers (Marsaglia & Tsang, "The Ziggurat Method for
// Generating Random Variables", 2000) for the unit exponential and the
// standard normal.
//
// The density f, decreasing on [0, ∞), is covered by zigLayers regions
// of equal area V: layer 0 is the rectangle [0, R] × [0, f(R)] plus the
// whole tail beyond R, layer i ≥ 1 is the rectangle
// [0, x_i] × [f(x_i), f(x_{i+1})] with x_1 = R > x_2 > … > x_N = 0. A
// draw picks a layer uniformly and a point x uniform across its width;
// if x falls left of the next layer's edge it lies under the curve by
// construction and is returned at once (one Uint64, one multiply, one
// compare — ~98.9 % of draws). Otherwise the point is in the wedge
// between the two edges (accepted iff a uniform height is under f) or,
// in layer 0, in the tail, which has its own exact sampler. Rejection
// from a hat that covers f exactly makes the result an exact draw from
// f, not an approximation: the tables only decide how often the slow
// path runs.
//
// The exponential's wedge test is squeezed (see Squeeze; internal/dist
// squeezes the Bounded Pareto's the same way): two straight lines per
// layer decide ~98 % of wedge points, and only the rest call Exp. The
// lines decide a point only where Exp would decide it the same way, so
// the draws are the ones the plain wedge test gives, bit for bit
// (TestVariateStreamGoldens). The normal's wedges are not squeezed: the
// half-normal density is concave on [0, 1], where tangent and chord
// swap sides.
const (
	zigLayers = 256
	zigMask   = zigLayers - 1

	// Right edge of the base rectangle for each law at 256 layers; the
	// common area V follows from it (R·f(R) + tail mass beyond R), and
	// newZiggurat panics at init unless the stack built from (R, V)
	// closes at f(0).
	expR  = 7.697117470131049720
	normR = 3.654152885361008796
)

// ziggurat holds the layer edges x[0..N] and the heights y[i] = f(x[i]).
// x[0] = V/f(R) is the width layer 0 would have as a plain rectangle of
// area V, so that "x < x[1]" there separates rectangle from tail with
// the right probabilities; x[N] = 0 makes the top layer always take the
// wedge test.
type ziggurat struct {
	x, y [zigLayers + 1]float64
}

// newZiggurat builds the tables for the density f (f(0) = 1, inverse
// finv) from the base edge r and the tail mass beyond it.
func newZiggurat(name string, r, tail float64, f, finv func(float64) float64) (z ziggurat) {
	v := r*f(r) + tail
	z.x[0], z.y[0] = v/f(r), 0
	z.x[1], z.y[1] = r, f(r)
	for i := 1; i < zigLayers; i++ {
		z.y[i+1] = z.y[i] + v/z.x[i]
		z.x[i+1] = finv(z.y[i+1])
	}
	// Closure: N equal areas stacked from (R, V) must end at the mode.
	if top := z.y[zigLayers]; math.Abs(top-1) > 1e-12 {
		panic(fmt.Sprintf("rng: %s ziggurat does not close: y[%d] = %.17g, want 1", name, zigLayers, top))
	}
	z.x[zigLayers], z.y[zigLayers] = 0, 1
	return z
}

// Squeeze bounds a convex decreasing density f on one ziggurat wedge
// [lo, hi] by two straight lines: the tangent at the midpoint, which lies
// under f everywhere, and the chord through (lo, f(lo)) and (hi, f(hi)),
// which lies over f on [lo, hi]. A wedge point (x, y) under the tangent
// is surely accepted and one over the chord surely rejected; only the
// thin sliver between the two needs the exact test y < f(x). Each line is
// moved away from f by a margin far wider than the rounding of f and of
// the line itself, so a line decides a point only when the exact test
// would decide it the same way.
type Squeeze struct{ tan0, tan1, chd0, chd1 float64 }

// NewSqueeze builds the lines for the wedge [lo, hi] of f, whose
// derivative is df, moved apart by margin. The caller sizes margin to
// cover the relative rounding of f and of terms as large as the line's
// intercepts. Where the lines would not be finite, or margin is too small
// to cover subnormal rounding, the squeeze never decides.
func NewSqueeze(lo, hi, margin float64, f, df func(float64) float64) Squeeze {
	m := lo + (hi-lo)/2
	tan1 := df(m)
	chd1 := (f(hi) - f(lo)) / (hi - lo)
	s := Squeeze{f(m) - tan1*m - margin, tan1, f(lo) - chd1*lo + margin, chd1}
	never := Squeeze{math.Inf(-1), 0, math.Inf(1), 0}
	if !(margin > 0x1p-1000) {
		return never
	}
	for _, c := range [...]float64{s.tan0, s.tan1, s.chd0, s.chd1} {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return never
		}
	}
	return s
}

// Under reports that (x, y) is surely under f.
func (s *Squeeze) Under(x, y float64) bool { return y < s.tan0+s.tan1*x }

// Over reports that (x, y) is surely over f.
func (s *Squeeze) Over(x, y float64) bool { return y > s.chd0+s.chd1*x }

var (
	expZig = newZiggurat("exponential", expR, math.Exp(-expR),
		func(x float64) float64 { return math.Exp(-x) },
		func(y float64) float64 { return -math.Log(y) })
	// expSq[i] squeezes layer i's wedge [x[i+1], x[i]] with a margin of
	// 1e-9 of its top height y[i+1]; expSq[0] is unused (layer 0's
	// overhang is the tail).
	expSq = func() (sq [zigLayers]Squeeze) {
		for i := 1; i < zigLayers; i++ {
			sq[i] = NewSqueeze(expZig.x[i+1], expZig.x[i], 1e-9*expZig.y[i+1],
				func(x float64) float64 { return math.Exp(-x) },
				func(x float64) float64 { return -math.Exp(-x) })
		}
		return sq
	}()
	normZig = newZiggurat("normal", normR, math.Sqrt(math.Pi/2)*math.Erfc(normR/math.Sqrt2),
		func(x float64) float64 { return math.Exp(-x * x / 2) },
		func(y float64) float64 { return math.Sqrt(-2 * math.Log(y)) })
)

// Unit53 maps the top 53 bits of the word b to a uniform on (0, 1]:
// never zero, so a layer-uniform point is strictly positive, and
// disjoint from the low 8 bits with which a 256-layer ziggurat (here, or
// internal/dist's) picks its layer from the same word.
func Unit53(b uint64) float64 { return float64(b>>11+1) * (1.0 / (1 << 53)) }

// ExpFloat64 returns an exponentially distributed float64 with the given
// rate (mean 1/rate), strictly positive. It is an exact ziggurat
// rejection sampler: one Uint64 and no transcendental call on the fast
// path, a variable number of Uint64s otherwise.
func (r *Source) ExpFloat64(rate float64) float64 {
	b := r.Uint64()
	i := b & zigMask
	x := Unit53(b) * expZig.x[i]
	if x < expZig.x[i+1] {
		return x / rate
	}
	return r.expSlow(i, x) / rate
}

// FillExp writes the stream's next len(dst) unit exponentials to dst,
// for a consumer that draws ahead of need: dst[j]/rate is, bit for bit,
// what the j-th of len(dst) successive ExpFloat64(rate) calls would have
// returned, whatever the rate, and the Source is left where those calls
// would leave it.
func (r *Source) FillExp(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for j := range dst {
		var b uint64
		b, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		i := b & zigMask
		x := Unit53(b) * expZig.x[i]
		if x >= expZig.x[i+1] {
			r.s = [4]uint64{s0, s1, s2, s3}
			x = r.expSlow(i, x)
			s0, s1, s2, s3 = r.s[0], r.s[1], r.s[2], r.s[3]
		}
		dst[j] = x
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// expSlow finishes a unit-exponential draw whose first point (layer i,
// abscissa x) missed the fast path.
func (r *Source) expSlow(i uint64, x float64) float64 {
	z := &expZig
	var shift float64
	for {
		switch {
		case x < z.x[i+1]:
			return shift + x
		case i == 0:
			// Tail: memorylessness makes X | X > R a fresh draw moved
			// right by R.
			shift += expR
		default:
			y := z.y[i] + r.Float64()*(z.y[i+1]-z.y[i])
			if s := &expSq[i]; s.Under(x, y) || !s.Over(x, y) && y < math.Exp(-x) {
				return shift + x
			}
		}
		b := r.Uint64()
		i = b & zigMask
		x = Unit53(b) * z.x[i]
	}
}

// NormFloat64 returns a standard normal variate from the ziggurat of the
// half-normal density; bit 8 of the draw supplies the sign.
func (r *Source) NormFloat64() float64 {
	b := r.Uint64()
	i := b & zigMask
	x := Unit53(b) * normZig.x[i]
	if x >= normZig.x[i+1] {
		x = r.normSlow(i, x)
	}
	return math.Float64frombits(math.Float64bits(x) | b<<55&(1<<63))
}

// normSlow finishes a half-normal draw whose first point missed the fast
// path.
func (r *Source) normSlow(i uint64, x float64) float64 {
	z := &normZig
	for {
		switch {
		case x < z.x[i+1]:
			return x
		case i == 0:
			// Tail beyond R (Marsaglia 1964): x = −ln(U₁)/R is accepted
			// with probability exp(−x²/2), i.e. when −2·ln(U₂) > x².
			for {
				x = r.ExpFloat64(normR)
				if 2*r.ExpFloat64(1) > x*x {
					return normR + x
				}
			}
		case z.y[i]+r.Float64()*(z.y[i+1]-z.y[i]) < math.Exp(-x*x/2):
			return x
		}
		b := r.Uint64()
		i = b & zigMask
		x = Unit53(b) * z.x[i]
	}
}
