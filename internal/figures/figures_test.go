package figures

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"psd/internal/analytic"
	"psd/internal/sweep"
)

// tiny returns minimal-fidelity options for unit tests. The top load is
// 0.8 rather than the paper's 0.95: at an 8k-tu horizon the 90%+ points
// are dominated by transient noise and belong to the full-fidelity run
// (cmd/psdfig), not a unit test.
func tiny() Options {
	return Options{Runs: 6, Horizon: 8000, Warmup: 1000, Loads: []float64{0.3, 0.6, 0.8}, Seed: 1}
}

func TestGenerateRejectsUnknownID(t *testing.T) {
	if _, err := Generate(1, tiny()); err == nil {
		t.Error("figure 1 (the architecture diagram) should not generate")
	}
	if _, err := Generate(15, tiny()); err == nil {
		t.Error("figure 15 does not exist")
	}
}

// allIDs are every figure's ids, in order.
func allIDs() []int {
	var ids []int
	for id := 2; id <= 14; id++ {
		ids = append(ids, id)
	}
	return ids
}

// TestGenerateAllMatchesEachAlone: one grid over every figure, where
// shared points are simulated once, must write the same CSV bytes as each
// figure generated alone, under the DES and under the Auto router (where
// a mean figure's points take the closed form while the percentile
// figures' equal points simulate).
func TestGenerateAllMatchesEachAlone(t *testing.T) {
	for _, kind := range []sweep.EngineKind{sweep.DES, sweep.Auto} {
		opts := tiny()
		opts.Engine = kind
		all, err := GenerateAll(allIDs(), opts)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for i, id := range allIDs() {
			alone, err := Generate(id, opts)
			if err != nil {
				t.Fatalf("%v: figure %d: %v", kind, id, err)
			}
			var a, b bytes.Buffer
			if err := WriteCSV(&a, all[i]); err != nil {
				t.Fatal(err)
			}
			if err := WriteCSV(&b, alone); err != nil {
				t.Fatal(err)
			}
			if all[i].ID != id || !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("%v: figure %d from the whole grid (id %d) differs from the figure alone", kind, id, all[i].ID)
			}
			if all[i].Title != alone.Title || all[i].Notes != alone.Notes {
				t.Errorf("%v: figure %d headers differ: %q / %q", kind, id, all[i].Title, alone.Title)
			}
		}
	}
}

// TestGenerateAllAnalyticNamesFigureOnce: Figures 2–4 have closed forms,
// so under sweep.Analytic the whole grid fails at Figure 5's first point,
// and the error names that figure exactly once and no other.
func TestGenerateAllAnalyticNamesFigureOnce(t *testing.T) {
	opts := tiny()
	opts.Engine = sweep.Analytic
	figs, err := GenerateAll(allIDs(), opts)
	if err == nil {
		t.Fatalf("analytic grid over every figure succeeded with %d figures", len(figs))
	}
	if !errors.Is(err, analytic.ErrNeedsSimulation) {
		t.Fatalf("error %v does not wrap ErrNeedsSimulation", err)
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "figure 5: sweep: point ") || strings.Count(msg, "figure") != 1 {
		t.Fatalf("error %q, want it to name figure 5 once", msg)
	}
	for _, id := range []int{7, 14} {
		_, err := Generate(id, opts)
		if !errors.Is(err, analytic.ErrNeedsSimulation) || strings.Count(err.Error(), fmt.Sprintf("figure %d", id)) != 1 {
			t.Errorf("figure %d alone: error %v, want ErrNeedsSimulation naming it once", id, err)
		}
	}
}

// TestFigure14PolicyTournament checks the beyond-paper tournament
// figure: three series (ratio error, mean slowdown, shed rate) per
// racing policy, one point per scenario cell, finite non-negative
// values, and a shed series for the packetized heSRPT policy that shows
// the admission gate at work there too.
func TestFigure14PolicyTournament(t *testing.T) {
	f, err := Generate(14, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 14 {
		t.Fatalf("id = %d", f.ID)
	}
	if want := 3 * len(TournamentPolicies); len(f.Series) != want {
		t.Fatalf("series = %d, want %d", len(f.Series), want)
	}
	for _, s := range f.Series {
		if len(s.X) != 4 {
			t.Fatalf("series %q has %d cells, want 4", s.Name, len(s.X))
		}
		for i, v := range s.Y {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("series %q cell %d: value %v", s.Name, i+1, v)
			}
		}
	}
	// The heSRPT policy runs on the packetized server behind the same
	// admission gate as the fluid policies: a surge to ~136% must make it
	// shed somewhere.
	for _, s := range f.Series {
		if s.Name != "hesrpt shed rate" {
			continue
		}
		shed := 0.0
		for _, v := range s.Y {
			shed += v
		}
		if shed == 0 {
			t.Errorf("hesrpt shed series %v is identically zero", s.Y)
		}
	}
}

// TestFigure13EstimatorTransient checks the beyond-paper load-step
// figure: both estimator series plus the target line, a time axis that
// spans the step, and finite positive ratios.
func TestFigure13EstimatorTransient(t *testing.T) {
	f, err := Generate(13, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 13 || len(f.Series) != 3 {
		t.Fatalf("shape: id=%d series=%d", f.ID, len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) == 0 {
			t.Fatalf("series %q empty", s.Name)
		}
		for i := range s.X {
			if math.IsNaN(s.Y[i]) || s.Y[i] <= 0 {
				t.Fatalf("series %q has invalid ratio %v", s.Name, s.Y[i])
			}
		}
	}
	if f.Series[2].Name != "target ratio" || f.Series[2].Y[0] != 2 {
		t.Fatalf("target series wrong: %+v", f.Series[2].Name)
	}
	// Deterministic regeneration.
	g, err := Generate(13, tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Series[0].Y {
		if f.Series[0].Y[i] != g.Series[0].Y[i] {
			t.Fatal("figure 13 not deterministic")
		}
	}
}

func TestFigure2ShapeAndAgreement(t *testing.T) {
	f, err := Generate(2, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 2 {
		t.Fatalf("ID = %d", f.ID)
	}
	// 2 sim + 2 expected + 1 system series.
	if len(f.Series) != 5 {
		t.Fatalf("series count = %d", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) != 3 || len(s.Y) != 3 {
			t.Fatalf("series %q has %d points, want 3", s.Name, len(s.X))
		}
		for _, y := range s.Y {
			if math.IsNaN(y) || y < 0 {
				t.Fatalf("series %q has invalid value %v", s.Name, y)
			}
		}
	}
	// Simulated tracks expected within heavy-tail tolerance at this
	// fidelity.
	if gap := maxAbsRelGap(f); math.IsNaN(gap) || gap > 0.5 {
		t.Fatalf("sim-vs-expected gap = %v", gap)
	}
	// Slowdowns increase with load (paper property 1 / Figure 2 shape).
	for _, s := range f.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("series %q not increasing in load: %v", s.Name, s.Y)
			}
		}
	}
}

// TestFigure9RatiosNearTargets averages the achieved ratios over eight
// seeds at a 20k-tu horizon. Figure 9 plots the mean of per-run ratios,
// a statistic skewed upward under the heavy tail: at tiny()'s 8k tu one
// seed's value ranges over 1.9–3.8 for target 2 and even the eight-seed
// mean sits 40 % high, so a single short realisation tests the seed, not
// the allocator.
func TestFigure9RatiosNearTargets(t *testing.T) {
	const seeds = 8
	targets := []float64{2, 4, 8}
	mean := make([]float64, len(targets))
	for seed := uint64(1); seed <= seeds; seed++ {
		opts := tiny()
		opts.Loads = []float64{0.6}
		opts.Horizon = 20000
		opts.Seed = seed
		f, err := Generate(9, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Series) != len(targets) {
			t.Fatalf("series = %d, want 3 (ratios 2, 4, 8)", len(f.Series))
		}
		for i, s := range f.Series {
			mean[i] += s.Y[0] / seeds
		}
	}
	for i, got := range mean {
		if math.Abs(got-targets[i])/targets[i] > 0.4 {
			t.Errorf("ratio %g achieved %v over %d seeds (tolerance 40%% at tiny fidelity)", targets[i], got, seeds)
		}
	}
}

func TestFigure5PercentileOrdering(t *testing.T) {
	opts := tiny()
	opts.Loads = []float64{0.5}
	f, err := Generate(5, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Series come in (p05, p50, p95) triples per delta ratio.
	if len(f.Series) != 9 {
		t.Fatalf("series = %d, want 9", len(f.Series))
	}
	for g := 0; g < 3; g++ {
		p05 := f.Series[3*g+0].Y[0]
		p50 := f.Series[3*g+1].Y[0]
		p95 := f.Series[3*g+2].Y[0]
		if !(p05 <= p50 && p50 <= p95) {
			t.Errorf("group %d percentiles unordered: %v %v %v", g, p05, p50, p95)
		}
	}
}

func TestFigure7RecordsRequests(t *testing.T) {
	opts := tiny()
	f, err := Generate(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range f.Series {
		total += len(s.X)
		for i := range s.X {
			if s.Y[i] < 0 {
				t.Fatalf("negative slowdown in %q", s.Name)
			}
		}
	}
	if total == 0 {
		t.Fatal("no individual requests recorded")
	}
}

func TestFigure11Monotonicity(t *testing.T) {
	opts := tiny()
	f, err := Generate(11, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Expected slowdown strictly decreases as alpha grows (paper §4.5);
	// check the analytic series (the simulated one is noisy at tiny
	// fidelity).
	for _, s := range f.Series {
		if !strings.Contains(s.Name, "expected") {
			continue
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] >= s.Y[i-1] {
				t.Fatalf("series %q not decreasing in alpha: %v", s.Name, s.Y)
			}
		}
	}
}

func TestFigure12Monotonicity(t *testing.T) {
	opts := tiny()
	f, err := Generate(12, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if !strings.Contains(s.Name, "expected") {
			continue
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("series %q not increasing in p: %v", s.Name, s.Y)
			}
		}
	}
}

func TestWriteCSV(t *testing.T) {
	f := Figure{
		ID: 99, Title: "test",
		Series: []Series{{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, f); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "series,x,y\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "a,1,3") || !strings.Contains(out, "a,2,4") {
		t.Fatalf("rows missing: %q", out)
	}
}

func TestRenderTable(t *testing.T) {
	f := Figure{
		ID: 99, Title: "render test", XLabel: "x", Notes: "note",
		Series: []Series{
			{Name: "alpha", X: []float64{1, 2}, Y: []float64{3, 4}},
			{Name: "beta", X: []float64{2}, Y: []float64{5}},
		},
	}
	out := RenderTable(f)
	if !strings.Contains(out, "Figure 99") || !strings.Contains(out, "note") {
		t.Fatalf("header wrong: %q", out)
	}
	// beta has no value at x=1 → dash.
	if !strings.Contains(out, "-") {
		t.Fatalf("missing placeholder for absent point: %q", out)
	}
}

func TestMaxAbsRelGapNoPairs(t *testing.T) {
	f := Figure{Series: []Series{{Name: "solo", X: []float64{1}, Y: []float64{1}}}}
	if !math.IsNaN(maxAbsRelGap(f)) {
		t.Fatal("gap without pairs should be NaN")
	}
}

func TestOptionsDefaults(t *testing.T) {
	d := Defaults()
	if d.Runs != 100 || d.Horizon != 60000 || d.Warmup != 10000 {
		t.Fatalf("paper defaults wrong: %+v", d)
	}
	q := Quick()
	if q.Runs >= d.Runs {
		t.Fatal("quick options not reduced")
	}
	o := (Options{}).withDefaults()
	if len(o.Loads) == 0 || o.Runs == 0 {
		t.Fatal("withDefaults incomplete")
	}
}

// maxAbsRelGap returns the largest |sim−expected|/expected across paired
// "simulated"/"expected" series of a figure, the tests' measure of model
// agreement. Returns NaN if the figure has no such pairs.
func maxAbsRelGap(f Figure) float64 {
	worst := math.NaN()
	for _, s := range f.Series {
		if len(s.Name) < 12 || s.Name[len(s.Name)-11:] != "(simulated)" {
			continue
		}
		expName := s.Name[:len(s.Name)-11] + "(expected)"
		for _, e := range f.Series {
			if e.Name != expName {
				continue
			}
			for i := range s.Y {
				if i >= len(e.Y) || e.Y[i] == 0 {
					continue
				}
				gap := math.Abs(s.Y[i]-e.Y[i]) / math.Abs(e.Y[i])
				if math.IsNaN(worst) || gap > worst {
					worst = gap
				}
			}
		}
	}
	return worst
}
