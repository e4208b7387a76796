package sweep

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"psd/internal/analytic"
	"psd/internal/simsrv"
	"psd/internal/stats"
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

// referenceAggregate is the test's own copy of how the router has always
// shaped a closed-form Evaluation: one freshly allocated Aggregate per
// point. The slab-carved aggregates must match it bit for bit.
func referenceAggregate(ev *analytic.Evaluation) *simsrv.Aggregate {
	nc := len(ev.Slowdowns)
	agg := &simsrv.Aggregate{
		Runs:              1,
		MeanSlowdowns:     make([]float64, nc),
		CI95:              make([]float64, nc),
		ExpectedSlowdowns: make([]float64, nc),
		RatioSummaries:    make([]stats.Summary, nc),
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
	for _, s := range a.RatioSummaries {
		bits = append(bits, uint64(s.N))
		for _, x := range []float64{s.Mean, s.Std, s.Min, s.Max, s.P05, s.P50, s.P95} {
			bits = append(bits, math.Float64bits(x))
		}
	}
	return bits
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
				if agg.EventsProcessed != 0 {
					desIdx = append(desIdx, i)
					desGrid = append(desGrid, fresh[i])
					continue
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
// arrays, so every slice must be cut with cap == len — writing to and
// appending on each slice of one aggregate leaves its neighbours intact,
// and each slice has one entry per class (consumers index
// RatioSummaries[i]).
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
		nc := len(grid[i].Cfg.Classes)
		if len(a.MeanSlowdowns) != nc || len(a.CI95) != nc || len(a.ExpectedSlowdowns) != nc ||
			len(a.MeanRatios) != nc || len(a.RatioSummaries) != nc {
			t.Fatalf("point %d: slice lengths %d/%d/%d/%d/%d, want %d classes", i, len(a.MeanSlowdowns),
				len(a.CI95), len(a.ExpectedSlowdowns), len(a.MeanRatios), len(a.RatioSummaries), nc)
		}
	}
	for i := 1; i < len(got)-1; i += 2 {
		a := got[i]
		for _, v := range []*[]float64{&a.MeanSlowdowns, &a.CI95, &a.ExpectedSlowdowns, &a.MeanRatios} {
			for k := range *v {
				(*v)[k] = -1
			}
			*v = append(*v, -2, -3)
		}
		for k := range a.RatioSummaries {
			a.RatioSummaries[k] = stats.Summary{N: -1, Mean: -1}
		}
		a.RatioSummaries = append(a.RatioSummaries, stats.Summary{N: -2}, stats.Summary{N: -3})
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
