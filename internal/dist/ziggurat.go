package dist

import (
	"math"

	"psd/internal/rng"
)

// bpLayers is the number of equal-area layers in a Bounded Pareto
// ziggurat; a power of two so the low bits of a draw pick the layer.
const bpLayers = 256

// bpZiggurat is the Marsaglia–Tsang construction (see internal/rng)
// applied to the Bounded Pareto density, which is decreasing on a
// bounded support: in units of t = x/k the curve is f(t) = t^(−α−1) on
// [1, p/k] with its mode f(1) = 1 at the left edge. Layer 0 is the
// rectangle [1, t₁] × [0, f(t₁)] plus the bounded tail [t₁, p/k] under
// the curve; layer i ≥ 1 is the rectangle [1, tᵢ] × [f(tᵢ), f(tᵢ₊₁)];
// all have area V. t₁ is solved so that the stack closes at the mode.
type bpZiggurat struct {
	// w[i] = k·(tᵢ − 1) is layer i's width in size units, w[0] the
	// width V/f(t₁) that layer 0 would have as a plain rectangle,
	// w[bpLayers] = 0. All zero when the law has no ziggurat (see
	// fillZiggurat): then no draw passes the fast-path compare.
	w [bpLayers + 1]float64
	// y[i] = f(tᵢ), y[0] = 0, y[bpLayers] = 1.
	y [bpLayers + 1]float64
	// The tail [x₁, p] is drawn by inverting the CDF restricted to it:
	// x = x₁·(1 − u·tailTrunc)^(−1/α), tailTrunc = 1 − (x₁/p)^α.
	x1, tailTrunc float64
	// sq[i] squeezes layer i's wedge in units of t (see squeeze); sq[0]
	// is unused, layer 0's overhang being the tail.
	sq [bpLayers]rng.Squeeze
}

// buildZiggurat computes, publishes and returns d's sampling table.
// Concurrent first callers each compute the same table; one wins.
func (d *BoundedPareto) buildZiggurat() *bpZiggurat {
	z := new(bpZiggurat)
	d.fillZiggurat(z)
	d.zig.CompareAndSwap(nil, z)
	return d.zig.Load()
}

// stack builds the layers upward from base edge t1 (in units of k) and
// returns how far above the mode the stack ends: positive when the
// common area is too large (t1 too small), +Inf when the stack overshoots
// before the last layer.
func (d *BoundedPareto) stack(z *bpZiggurat, t1 float64) float64 {
	a := d.Alpha + 1
	rho := d.P / d.K
	y := math.Pow(t1, -a)
	w := t1 - 1
	tail := (math.Pow(t1, -d.Alpha) - math.Pow(rho, -d.Alpha)) / d.Alpha
	v := w*y + tail
	z.w[0], z.y[0] = d.K*v/y, 0
	for i := 1; i < bpLayers; i++ {
		z.w[i], z.y[i] = d.K*w, y
		y += v / w
		if y > 1 && i < bpLayers-1 {
			return math.Inf(1)
		}
		// t − 1 = y^(−1/a) − 1, formed without cancellation near the
		// mode where the layers are thin.
		w = math.Expm1(-math.Log(y) / a)
	}
	z.w[bpLayers], z.y[bpLayers] = 0, 1
	z.x1 = d.K * t1
	z.tailTrunc = 1 - math.Pow(t1/rho, d.Alpha)
	return y - 1
}

// fillZiggurat solves for the base edge by bisection. The common area
// V(t₁) = (t₁−1)·f(t₁) + ∫_{t₁}^{p/k} f falls as t₁ grows, and so does
// the height N stacked layers reach; its smallest value is at t₁ = p/k
// (no tail, base rectangle across the whole support). When even that
// stack overshoots the mode the support is too narrow for bpLayers
// equal-area layers — roughly p/k < (256·α)^(1/α) — and z is left zero:
// Sample then falls back to inverting the CDF. Which of the two a law
// gets depends on (k, p, α) alone.
func (d *BoundedPareto) fillZiggurat(z *bpZiggurat) {
	lo, hi := 1.0, d.P/d.K // stack(lo) > 0 ≥ stack(hi)
	if d.stack(z, hi) > 0 {
		*z = bpZiggurat{}
		return
	}
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if d.stack(z, mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	d.stack(z, hi)
	d.squeeze(z)
}

// squeeze fills z.sq. Layer i's wedge points have t = x/k between the
// floats the sampler forms at its edges, (k + w[i+1])/k and (k + w[i])/k,
// and f(t) = t^(−a), a = α + 1, is convex and decreasing there. The
// margin is 1e-9·(1+a) of the wedge's top height y[i+1]: every term of a
// line is at most (1+a)·y[i+1] in size, and Pow's relative error grows
// like a·ε, so the band stays some 10⁶ times wider than any rounding
// whatever α is.
func (d *BoundedPareto) squeeze(z *bpZiggurat) {
	a := d.Alpha + 1
	f := func(t float64) float64 { return math.Pow(t, -a) }
	df := func(t float64) float64 { return -a * math.Pow(t, -a) / t }
	for i := 1; i < bpLayers; i++ {
		lo, hi := (d.K+z.w[i+1])/d.K, (d.K+z.w[i])/d.K
		z.sq[i] = rng.NewSqueeze(lo, hi, 1e-9*(1+a)*z.y[i+1], f, df)
	}
}

// invert maps a uniform u on [0, 1) through the inverse CDF of the law
// restricted to [lo, p], where trunc = 1 − (lo/p)^α.
func (d *BoundedPareto) invert(lo, trunc, u float64) float64 {
	return math.Min(d.P, lo*math.Pow(1-u*trunc, -1/d.Alpha))
}

// sampleSlow finishes a draw whose first word b missed the fast path.
func (d *BoundedPareto) sampleSlow(z *bpZiggurat, src *rng.Source, b uint64) float64 {
	if z.x1 == 0 {
		// No ziggurat for this law: plain inversion, one word per draw.
		return d.invert(d.K, d.trunc, float64(b>>11)*(1.0/(1<<53)))
	}
	for {
		i := b & (bpLayers - 1)
		dx := rng.Unit53(b) * z.w[i]
		switch {
		case dx < z.w[i+1]:
			return d.K + dx
		case i == 0:
			return d.invert(z.x1, z.tailTrunc, src.Float64())
		default:
			x := d.K + dx
			t := x / d.K
			y := z.y[i] + src.Float64()*(z.y[i+1]-z.y[i])
			if s := &z.sq[i]; s.Under(t, y) || !s.Over(t, y) && y < math.Pow(t, -d.Alpha-1) {
				return x
			}
		}
		b = src.Uint64()
	}
}
