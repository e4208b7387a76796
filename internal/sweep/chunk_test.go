package sweep

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"psd/internal/analytic"
	"psd/internal/core"
	"psd/internal/simsrv"
)

// TestLocate pins the task → (point, replication) map on offset vectors
// with zero-width (closed-form) entries at the head, interleaved and at
// the tail, against the definition: the last point whose offset ≤ task.
func TestLocate(t *testing.T) {
	for _, runs := range [][]int{
		{3},
		{2, 1, 4},
		{0, 0, 2, 3},       // zero-width head
		{2, 0, 0, 3, 0, 1}, // interleaved
		{1, 2, 0, 0, 0},    // zero-width tail
		{0, 0, 5, 0, 0},    // both ends
		{0, 1, 0, 1, 0, 1, 0},
	} {
		offsets := make([]int, len(runs))
		total := 0
		for i, r := range runs {
			offsets[i] = total
			total += r
		}
		task := 0
		for pt, r := range runs {
			for rep := 0; rep < r; rep++ {
				gotPt, gotRep := locate(offsets, task)
				if gotPt != pt || gotRep != rep {
					t.Errorf("runs %v: locate(task %d) = (%d, %d), want (%d, %d)", runs, task, gotPt, gotRep, pt, rep)
				}
				task++
			}
		}
	}
}

// referenceAggregate is the test's own copy of how the router shapes a
// closed-form Evaluation: one freshly allocated Aggregate per point, with
// no RatioSummaries because no window was simulated. The slab-carved
// aggregates must match it bit for bit.
func referenceAggregate(ev *analytic.Evaluation) *simsrv.Aggregate {
	nc := len(ev.Slowdowns)
	agg := &simsrv.Aggregate{
		Runs:              1,
		MeanSlowdowns:     make([]float64, nc),
		CI95:              make([]float64, nc),
		ExpectedSlowdowns: make([]float64, nc),
		MeanRatios:        make([]float64, nc),
		SystemSlowdown:    ev.SystemSlowdown,
	}
	copy(agg.MeanSlowdowns, ev.Slowdowns)
	copy(agg.ExpectedSlowdowns, ev.Slowdowns)
	for i := 1; i < nc; i++ {
		agg.MeanRatios[i] = ev.Ratios[i]
	}
	return agg
}

// aggBits flattens every field of an Aggregate the router fills into a
// NaN-safe comparable form.
func aggBits(a *simsrv.Aggregate) []uint64 {
	bits := []uint64{uint64(a.Runs), math.Float64bits(a.SystemSlowdown), math.Float64bits(a.MeanShedRate),
		uint64(a.AllocFailures), a.EventsProcessed, uint64(len(a.WindowRatioMeans))}
	for _, v := range [][]float64{a.MeanSlowdowns, a.CI95, a.ExpectedSlowdowns, a.MeanRatios} {
		bits = append(bits, uint64(len(v)))
		for _, x := range v {
			bits = append(bits, math.Float64bits(x))
		}
	}
	bits = append(bits, uint64(len(a.RatioSummaries)))
	if a.RatioSummaries == nil {
		bits = append(bits, math.MaxUint64)
	}
	for _, s := range a.RatioSummaries {
		bits = append(bits, uint64(s.N))
		for _, x := range []float64{s.Mean, s.Std, s.Min, s.Max, s.P05, s.P50, s.P95} {
			bits = append(bits, math.Float64bits(x))
		}
	}
	return bits
}

// closedFormShape checks a closed-form aggregate of nc classes against
// the router's contract: one exact replication of zero events, nil
// RatioSummaries and WindowRatioMeans (no window was simulated), and the
// four float vectors cut with len == cap == nc.
func closedFormShape(a *simsrv.Aggregate, nc int) error {
	if a.Runs != 1 || a.EventsProcessed != 0 {
		return fmt.Errorf("%d runs, %d events, want 1 run of 0 events", a.Runs, a.EventsProcessed)
	}
	if a.RatioSummaries != nil || a.WindowRatioMeans != nil {
		return fmt.Errorf("RatioSummaries %v, WindowRatioMeans %v, want both nil", a.RatioSummaries, a.WindowRatioMeans)
	}
	for k, v := range [][]float64{a.MeanSlowdowns, a.CI95, a.ExpectedSlowdowns, a.MeanRatios} {
		if len(v) != nc || cap(v) != nc {
			return fmt.Errorf("float vector %d has len %d, cap %d, want %d classes", k, len(v), cap(v), nc)
		}
	}
	return nil
}

// scribbleFloats overwrites each float vector of a in turn with -1 (a
// value the router never reports), checking that the other three keep
// theirs, then appends to all four; any error names the vector whose
// write leaked.
func scribbleFloats(a *simsrv.Aggregate) error {
	vecs := []*[]float64{&a.MeanSlowdowns, &a.CI95, &a.ExpectedSlowdowns, &a.MeanRatios}
	for k, v := range vecs {
		for j := range *v {
			(*v)[j] = -1
		}
		for o := k + 1; o < len(vecs); o++ {
			if slices.Contains(*vecs[o], -1) {
				return fmt.Errorf("writing float vector %d changed float vector %d", k, o)
			}
		}
	}
	for _, v := range vecs {
		*v = append(*v, -2, -3)
	}
	return nil
}

// mixedGrid builds n points: closed-form points of 2–5 classes, named and
// unnamed policies, with a DES-routed point (packetized, LoadSchedule,
// NeedWindowStats or closed-loop in turn) every desEvery points and on
// both sides of every chunk boundary. Run resolves policies in place, so
// every run gets a fresh grid.
func mixedGrid(n, desEvery int) []Point {
	policies := []string{"", "psd", "equal", "demand", "log"}
	grid := make([]Point, n)
	des := 0
	for i := range grid {
		nc := 2 + i%4
		deltas := make([]float64, nc)
		for c := range deltas {
			deltas[c] = 1 + float64(c)*(1+float64(i%3))
		}
		cfg := simsrv.EqualLoadConfig(deltas, 0.1+0.8*float64(i%89)/89, nil)
		cfg.Window = 250
		cfg.Warmup = 250
		cfg.Horizon = 1500
		cfg.Seed = uint64(1000 + i)
		p := Point{Cfg: cfg, Runs: 1 + i%2, Policy: policies[i%len(policies)]}
		if m := i % chunkPoints; i%desEvery == desEvery-1 || (i >= chunkPoints && (m == 0 || m == chunkPoints-1)) {
			switch des % 4 {
			case 0:
				p.Packetized = true
			case 1:
				p.Cfg.LoadSchedule = simsrv.LoadStep(700, 1.3)
			case 2:
				p.NeedWindowStats = true
			case 3:
				p.Cfg.Feedback = true
			}
			des++
		}
		grid[i] = p
	}
	return grid
}

// TestChunkedMixedGrid is the routing contract of the chunked phase, at
// grid sizes around the chunk boundary: closed-form points bit-identical
// to a per-point analytic.Evaluate, DES-routed points bit-identical to
// Kind DES, and the whole output independent of the worker count.
func TestChunkedMixedGrid(t *testing.T) {
	for _, n := range []int{chunkPoints - 1, chunkPoints, chunkPoints + 1, 3*chunkPoints + 7} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			const desEvery = 257
			var first []*simsrv.Aggregate
			var grid []Point
			for _, workers := range []int{1, 2, 8} {
				grid = mixedGrid(n, desEvery)
				got, err := (&Engine{Kind: Auto, Workers: workers}).Run(grid)
				if err != nil {
					t.Fatalf("workers %d: %v", workers, err)
				}
				if first == nil {
					first = got
					continue
				}
				for i := range got {
					if !slices.Equal(aggBits(got[i]), aggBits(first[i])) {
						t.Fatalf("point %d differs between 1 and %d workers", i, workers)
					}
				}
			}

			var desIdx []int
			var desGrid []Point
			fresh := mixedGrid(n, desEvery)
			for i, agg := range first {
				nc := len(grid[i].Cfg.Classes)
				if agg.EventsProcessed != 0 {
					if len(agg.RatioSummaries) != nc {
						t.Fatalf("simulated point %d: %d ratio summaries, want %d", i, len(agg.RatioSummaries), nc)
					}
					desIdx = append(desIdx, i)
					desGrid = append(desGrid, fresh[i])
					continue
				}
				if err := closedFormShape(agg, nc); err != nil {
					t.Fatalf("point %d: %v", i, err)
				}
				// grid[i].Cfg carries the allocator Run resolved.
				ev, err := analytic.Evaluate(grid[i].Cfg)
				if err != nil {
					t.Fatalf("point %d took the closed form but Evaluate says %v", i, err)
				}
				if !slices.Equal(aggBits(agg), aggBits(referenceAggregate(ev))) {
					t.Fatalf("point %d: slab aggregate differs from the per-point shaping", i)
				}
			}
			if want := n / desEvery; len(desIdx) < want {
				t.Fatalf("%d points simulated, want at least %d", len(desIdx), want)
			}
			// Seeds derive from each point's own Config, so the DES-routed
			// points alone, under Kind DES, are the reference.
			want, err := Run(desGrid)
			if err != nil {
				t.Fatal(err)
			}
			for k, i := range desIdx {
				if !slices.Equal(aggBits(first[i]), aggBits(want[k])) {
					t.Fatalf("point %d: Auto-routed simulation differs from Kind DES", i)
				}
			}
		})
	}
}

// TestSlabAggregatesDoNotAlias: the aggregates of a chunk share backing
// arrays, so every float vector must be cut with len == cap == nc —
// writing to and appending on each vector of one aggregate leaves its
// other vectors and its neighbours intact — and RatioSummaries must stay
// nil, since no window was simulated.
func TestSlabAggregatesDoNotAlias(t *testing.T) {
	mk := func() []Point {
		var grid []Point
		for i := 0; i < 64; i++ {
			deltas := make([]float64, 2+i%3)
			for c := range deltas {
				deltas[c] = float64(c + 1)
			}
			grid = append(grid, point(deltas, 0.2+0.01*float64(i), 1))
		}
		return grid
	}
	got, err := (&Engine{Kind: Auto}).Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Engine{Kind: Auto}).Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	grid := mk()
	for i, a := range got {
		if err := closedFormShape(a, len(grid[i].Cfg.Classes)); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
	for i := 1; i < len(got)-1; i += 2 {
		a := got[i]
		if err := scribbleFloats(a); err != nil {
			t.Fatalf("aggregate %d: %v", i, err)
		}
		a.Runs, a.SystemSlowdown = -1, -1
		for _, j := range []int{i - 1, i + 1} {
			if !slices.Equal(aggBits(got[j]), aggBits(want[j])) {
				t.Fatalf("scribbling on aggregate %d changed aggregate %d", i, j)
			}
		}
	}
}

// TestFirstErrorInPointOrder: chunks run concurrently, but the error
// reported is the lowest-indexed invalid point's, with the message a
// serial sweep gives.
func TestFirstErrorInPointOrder(t *testing.T) {
	lowBad, highBad := chunkPoints/2, 2*chunkPoints+5
	for _, kind := range []EngineKind{DES, Auto} {
		for _, workers := range []int{1, 2, 8} {
			grid := make([]Point, 3*chunkPoints)
			for i := range grid {
				grid[i] = point([]float64{1, 2}, 0.5, 1)
				grid[i].NeedWindowStats = true // cheap to prepare, and never run: the sweep fails first
			}
			grid[lowBad].Cfg.Classes[1].Delta = -2
			grid[highBad].Runs = 0
			_, err := (&Engine{Kind: kind, Workers: workers}).Run(grid)
			want := fmt.Sprintf("sweep: point %d: simsrv: class 1 delta -2 must be positive", lowBad)
			if err == nil || err.Error() != want {
				t.Errorf("kind %v, %d workers: error %q, want %q", kind, workers, err, want)
			}
		}
	}
}

// TestAnalyticKindRefusesFirstIneligiblePoint: in a grid of several
// chunks, Kind Analytic names the first point that needs the DES.
func TestAnalyticKindRefusesFirstIneligiblePoint(t *testing.T) {
	first, later := chunkPoints+3, 2*chunkPoints+1
	for _, workers := range []int{1, 2, 8} {
		grid := make([]Point, 2*chunkPoints+9)
		for i := range grid {
			grid[i] = point([]float64{1, 2, 4}, 0.4, 1)
		}
		grid[first].Cfg.LoadSchedule = simsrv.LoadStep(2000, 1.2)
		grid[later].Packetized = true
		_, err := (&Engine{Kind: Analytic, Workers: workers}).Run(grid)
		if !errors.Is(err, analytic.ErrNeedsSimulation) {
			t.Fatalf("%d workers: want ErrNeedsSimulation, got %v", workers, err)
		}
		if prefix := fmt.Sprintf("sweep: point %d: ", first); !strings.HasPrefix(err.Error(), prefix) ||
			!strings.Contains(err.Error(), "transient LoadSchedule phases") {
			t.Errorf("%d workers: error %q, want point %d's LoadSchedule refusal", workers, err, first)
		}
	}
}

// fuzzGrid decodes bytes into a grid of at most 16 stationary points,
// each from 4+nc bytes: nc in 1–8, the total load in (0, 1), one of the
// analytic-eligible registered policies, a seed byte, and one δ in
// [0.25, 8.2] per class. Every point it builds is one the closed forms
// answer.
func fuzzGrid(data []byte, policies []string) []Point {
	var grid []Point
	for len(data) >= 4 && len(grid) < 16 {
		nc := 1 + int(data[0]%8)
		load := 0.01 + 0.98*float64(data[1])/255
		policy := policies[int(data[2])%len(policies)]
		seed := uint64(data[3])
		data = data[4:]
		deltas := make([]float64, nc)
		for c := range deltas {
			var b byte
			if c < len(data) {
				b = data[c]
			}
			deltas[c] = 0.25 + float64(b)/32
		}
		data = data[min(nc, len(data)):]
		cfg := simsrv.EqualLoadConfig(deltas, load, nil)
		cfg.Warmup, cfg.Horizon, cfg.Seed = 100, 400, seed
		grid = append(grid, Point{Cfg: cfg, Runs: 1, Policy: policy})
	}
	return grid
}

// FuzzClosedFormAggregates: on any small stationary grid, Kind Auto
// answers every point in closed form, each aggregate is bit-equal to a
// fresh analytic.Evaluate of its point and keeps the closed-form shape,
// and scribbling on one aggregate's float vectors leaves every other
// aggregate of the grid intact.
func FuzzClosedFormAggregates(f *testing.F) {
	var policies []string
	for _, p := range core.Policies() {
		if p.Caps.AnalyticEligible {
			policies = append(policies, p.Name)
		}
	}
	f.Add([]byte{1, 128, 0, 7, 0, 32})
	f.Add([]byte{7, 250, 1, 1, 0, 8, 16, 24, 32, 40, 48, 56, 2, 10, 2, 3, 255, 0, 1})
	f.Add([]byte{0, 0, 3, 9, 200, 5, 255, 3, 44, 4, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		grid := fuzzGrid(data, policies)
		if len(grid) == 0 {
			return
		}
		want, err := (&Engine{Kind: Auto}).Run(grid)
		if err != nil {
			t.Fatal(err)
		}
		for i, agg := range want {
			if err := closedFormShape(agg, len(grid[i].Cfg.Classes)); err != nil {
				t.Fatalf("point %d: %v", i, err)
			}
			// grid[i].Cfg carries the allocator Run resolved.
			ev, err := analytic.Evaluate(grid[i].Cfg)
			if err != nil {
				t.Fatalf("point %d took the closed form but Evaluate says %v", i, err)
			}
			if !slices.Equal(aggBits(agg), aggBits(referenceAggregate(ev))) {
				t.Fatalf("point %d: aggregate differs from a fresh Evaluate", i)
			}
		}
		for i := range want {
			got, err := (&Engine{Kind: Auto}).Run(fuzzGrid(data, policies))
			if err != nil {
				t.Fatal(err)
			}
			if err := scribbleFloats(got[i]); err != nil {
				t.Fatalf("aggregate %d: %v", i, err)
			}
			for j := range got {
				if j != i && !slices.Equal(aggBits(got[j]), aggBits(want[j])) {
					t.Fatalf("scribbling on aggregate %d changed aggregate %d", i, j)
				}
			}
		}
	})
}
