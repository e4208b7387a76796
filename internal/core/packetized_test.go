package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// historicalQuadraticShares is the solver as it stood before the
// estimate-plus-exact-search replaced its probe schedule: a verbatim copy
// of the 200-step geometric bisection, kept as the reference the shipped
// routine must match in every output bit. The only edit is that it also
// returns the pivot it came to rest on.
func historicalQuadraticShares(dst []float64, classes []Class, w Workload, slowdownWeighted bool) (float64, error) {
	active := 0
	for _, c := range classes {
		if c.Lambda > 0 {
			active++
		}
	}
	if active == 0 {
		for i := range dst {
			dst[i] = 1 / float64(len(classes))
		}
		return 0, nil
	}
	coeff := func(c Class) float64 {
		v := c.Lambda * w.SecondMoment
		if slowdownWeighted {
			v *= w.InverseMoment
		}
		return v / 2
	}
	totalFor := func(a float64) float64 {
		total := 0.0
		for _, c := range classes {
			if c.Lambda == 0 {
				continue
			}
			b := c.Lambda * w.MeanSize
			q := coeff(c) / (a * c.Delta)
			total += (b + math.Sqrt(b*b+4*q)) / 2
		}
		return total
	}
	lo, hi := 1e-12, 1.0
	for totalFor(hi) > 1 {
		hi *= 2
		if hi > 1e18 {
			return 0, fmt.Errorf("%w: share bisection failed to bracket", ErrInfeasible)
		}
	}
	for iter := 0; iter < 200; iter++ {
		mid := math.Sqrt(lo * hi)
		if totalFor(mid) > 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	total := 0.0
	for i, c := range classes {
		if c.Lambda == 0 {
			dst[i] = 0
			continue
		}
		b := c.Lambda * w.MeanSize
		q := coeff(c) / (hi * c.Delta)
		dst[i] = (b + math.Sqrt(b*b+4*q)) / 2
		total += dst[i]
	}
	if total > 0 && total < 1 {
		residual := 1 - total
		for i := range dst {
			if classes[i].Lambda > 0 {
				dst[i] += residual * dst[i] / total
			}
		}
	}
	return hi, nil
}

// shareTotal is the solver's totalFor expression, for walking the float
// line around a pivot from outside.
func shareTotal(a float64, classes []Class, w Workload, slowdownWeighted bool) float64 {
	total := 0.0
	for _, c := range classes {
		if c.Lambda == 0 {
			continue
		}
		v := c.Lambda * w.SecondMoment
		if slowdownWeighted {
			v *= w.InverseMoment
		}
		b := c.Lambda * w.MeanSize
		q := v / 2 / (a * c.Delta)
		total += (b + math.Sqrt(b*b+4*q)) / 2
	}
	return total
}

// shareSystem is one solver input.
type shareSystem struct {
	classes []Class
	w       Workload
}

// inLemmaDomain reports whether sys is an input the allocators accept and
// on which the share total cannot be NaN: a coefficient that underflowed to
// 0 or overflowed to +Inf can meet an a·δ that did the same, and 0/0 or
// ∞/∞ is the one way the total stops being monotone in a.
func inLemmaDomain(sys shareSystem) bool {
	if _, err := validateClasses(sys.classes, sys.w); err != nil {
		return false
	}
	for _, c := range sys.classes {
		pdd, ppsd := c.Lambda*sys.w.SecondMoment/2, c.Lambda*sys.w.SecondMoment*sys.w.InverseMoment/2
		if c.Lambda > 0 && (pdd == 0 || ppsd == 0 || math.IsInf(pdd, 1) || math.IsInf(ppsd, 1)) {
			return false
		}
	}
	return true
}

// shareOutcome classifies one comparison for the family counters.
type shareOutcome int

const (
	shareSolved shareOutcome = iota
	shareFloored
	shareInfeasible
)

// checkSharesMatchHistorical runs the shipped solver and the reference on
// sys for one coefficient mode and fails unless they agree in error-ness
// and in every output bit.
func checkSharesMatchHistorical(t testing.TB, sys shareSystem, slowdownWeighted bool) shareOutcome {
	t.Helper()
	n := len(sys.classes)
	want, got := make([]float64, n), make([]float64, n)
	for i := range got {
		got[i] = math.NaN() // every slot must be written
	}
	pivot, wantErr := historicalQuadraticShares(want, sys.classes, sys.w, slowdownWeighted)
	gotErr := solveQuadraticSharesInto(got, sys.classes, sys.w, slowdownWeighted)
	if wantErr != nil || gotErr != nil {
		if !errors.Is(wantErr, ErrInfeasible) || !errors.Is(gotErr, ErrInfeasible) || wantErr.Error() != gotErr.Error() {
			t.Fatalf("error mismatch on %+v weighted=%v: historical %v, solver %v", sys, slowdownWeighted, wantErr, gotErr)
		}
		return shareInfeasible
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("share %d differs on %+v weighted=%v: historical %x (%v), solver %x (%v)",
				i, sys, slowdownWeighted, math.Float64bits(want[i]), want[i], math.Float64bits(got[i]), got[i])
		}
	}
	if pivot == 1e-12 {
		return shareFloored
	}
	return shareSolved
}

// randomShareSystem draws one system from the families the solver meets and
// the ones that stress it: 1–10 classes, some idle, loads from 1e-13 to
// 1 − 2⁻⁵³, δ spread up to e²⁷, the paper's moments or random ones.
func randomShareSystem(r *rand.Rand, paper Workload) shareSystem {
	w := paper
	if r.IntN(2) == 0 {
		m := math.Exp(r.Float64()*6 - 3)
		w = Workload{
			MeanSize:      m,
			SecondMoment:  m * m * (1 + math.Exp(r.Float64()*9-3)),
			InverseMoment: (1 + math.Exp(r.Float64()*9-3)) / m,
		}
	}
	var rho float64
	switch r.IntN(4) {
	case 0:
		rho = 0.01 + 0.98*r.Float64()
	case 1:
		rho = 1 - math.Pow(10, -16*r.Float64()) // up against saturation
	case 2:
		rho = math.Pow(10, -13*r.Float64()) // down to the 1e-12 floor
	default:
		rho = 1 - math.Ldexp(1, -r.IntN(54)) // 1 − 2⁻ᵏ exactly, k = 0 is rejected
	}
	n := 1 + r.IntN(10)
	classes := make([]Class, n)
	sum := 0.0
	for i := range classes {
		classes[i].Delta = 1 + float64(r.IntN(8))
		if r.IntN(2) == 0 {
			classes[i].Delta = math.Exp(27 * r.Float64())
		}
		if r.IntN(6) > 0 { // one class in six is idle
			classes[i].Lambda = r.ExpFloat64()
			sum += classes[i].Lambda
		}
	}
	for i := range classes {
		if sum > 0 {
			classes[i].Lambda *= rho / (sum * w.MeanSize)
		}
	}
	return shareSystem{classes, w}
}

// edgeShareSystems are the hand-picked corners: the fuzz seed corpus and
// part of the monotonicity table.
func edgeShareSystems(paper Workload) []shareSystem {
	at := func(rho float64, deltas ...float64) shareSystem {
		return shareSystem{equalLoadClasses(deltas, rho, paper), paper}
	}
	idle := at(0.6, 1, 2, 4)
	idle.classes[1].Lambda = 0
	tiny := at(0.5, 1, 2)
	tiny.classes[0].Lambda = math.Ldexp(1, -70)
	return []shareSystem{
		at(0.7, 1, 2, 3),
		at(0.9, 1, 2, 3, 4, 5, 6, 7, 8),
		at(1-math.Ldexp(1, -53), 1),      // ρ one ulp below 1, one active class
		at(1-math.Ldexp(1, -53), 1, 2),   // the same split in two
		at(1-math.Ldexp(1, -30), 1, 1e9), // saturated, wide δ
		at(math.Ldexp(1, -70), 1, 2),     // every λ ≈ 2⁻⁷⁰: rests on the floor
		at(0, 1, 2, 3),                   // all idle → equal shares
		idle,
		tiny,
		at(0.5, 1e-300, 1), // k = 4·coeff/δ overflows: NaN estimate, bracket failure
		at(0.5, 1e300, 1),  // one class with a vanishing coefficient term
		at(0.5, 1e300),     // estimate far below the floor
	}
}

// TestQuadraticSharesMatchHistorical is the differential gate behind the
// solver's contract: on ≥ 5·10⁵ seeded systems, both coefficient modes, the
// estimate-plus-exact-search returns what the 200-step bisection returned —
// same bits, same errors.
func TestQuadraticSharesMatchHistorical(t *testing.T) {
	paper := paperWorkload(t)
	systems := 500_000
	if testing.Short() {
		systems = 50_000
	}
	r := rand.New(rand.NewPCG(22, 0x9d5))
	var seen [3]int
	for _, sys := range edgeShareSystems(paper) {
		seen[checkSharesMatchHistorical(t, sys, true)]++
		seen[checkSharesMatchHistorical(t, sys, false)]++
	}
	for i := 0; i < systems; i++ {
		sys := randomShareSystem(r, paper)
		if !inLemmaDomain(sys) {
			continue
		}
		seen[checkSharesMatchHistorical(t, sys, true)]++
		seen[checkSharesMatchHistorical(t, sys, false)]++
	}
	t.Logf("compared %d solved, %d floored at 1e-12, %d bracket failures", seen[shareSolved], seen[shareFloored], seen[shareInfeasible])
	for kind, n := range seen {
		if n < systems/500 {
			t.Errorf("outcome %d reached only %d times: the generator no longer covers it", kind, n)
		}
	}
}

// FuzzQuadraticShares runs the same comparison on fuzzed inputs: 16 bytes
// per class (λ bits, δ bits, little endian; the class count is the length)
// and the three workload moments.
func FuzzQuadraticShares(f *testing.F) {
	for _, sys := range edgeShareSystems(paperWorkload(f)) {
		var data []byte
		for _, c := range sys.classes {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(c.Lambda))
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(c.Delta))
		}
		f.Add(data, sys.w.MeanSize, sys.w.SecondMoment, sys.w.InverseMoment)
	}
	f.Fuzz(func(t *testing.T, data []byte, mean, second, inverse float64) {
		n := min(len(data)/16, 16)
		sys := shareSystem{make([]Class, n), Workload{MeanSize: mean, SecondMoment: second, InverseMoment: inverse}}
		for i := range sys.classes {
			sys.classes[i].Lambda = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			sys.classes[i].Delta = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		if !inLemmaDomain(sys) {
			return
		}
		checkSharesMatchHistorical(t, sys, true)
		checkSharesMatchHistorical(t, sys, false)
	})
}

// TestShareTotalMonotoneAtPivot pins the lemma the replacement rests on,
// not just its consequence: along ±512 ulps around the returned pivot the
// predicate "share total > 1" flips exactly once, and the pivot is the
// first float on the ≤ 1 side (or the 1e-12 floor, with no flip above it).
func TestShareTotalMonotoneAtPivot(t *testing.T) {
	paper := paperWorkload(t)
	systems := edgeShareSystems(paper)
	for _, rho := range []float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95} {
		systems = append(systems,
			shareSystem{equalLoadClasses([]float64{1, 2, 3}, rho, paper), paper},
			shareSystem{equalLoadClasses([]float64{1, 2, 3, 4, 5, 6, 7, 8}, rho, paper), paper})
	}
	for _, sys := range systems {
		for _, weighted := range []bool{true, false} {
			dst := make([]float64, len(sys.classes))
			pivot, err := historicalQuadraticShares(dst, sys.classes, sys.w, weighted)
			if err != nil || pivot == 0 { // bracket failure or all idle: no pivot
				continue
			}
			checkSharesMatchHistorical(t, sys, weighted)
			p := math.Float64bits(pivot)
			for u := max(p-512, math.Float64bits(1e-12)); u <= p+512; u++ {
				over := shareTotal(math.Float64frombits(u), sys.classes, sys.w, weighted) > 1
				if over != (u < p) {
					t.Fatalf("%+v weighted=%v: total > 1 is %v at pivot%+d ulps (pivot %v)", sys, weighted, over, int64(u-p), pivot)
				}
			}
		}
	}
}

// TestShareFloorIsTheLiteral: when even 1e-12 satisfies the total, every
// probe of the historical bisection answered "≤ 1" and its upper end
// followed hi ← √(1e-12·hi) from 1.0 whatever the input. That recurrence
// rests on the bits of the literal 1e-12 — which is why the solver's floor
// is the literal and needs no init.
func TestShareFloorIsTheLiteral(t *testing.T) {
	hi := 1.0
	for iter := 0; iter < 200; iter++ {
		hi = math.Sqrt(1e-12 * hi)
	}
	if math.Float64bits(hi) != math.Float64bits(1e-12) {
		t.Fatalf("recurrence rests at %x, literal 1e-12 is %x", math.Float64bits(hi), math.Float64bits(1e-12))
	}
}
