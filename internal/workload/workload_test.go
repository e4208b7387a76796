package workload

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"psd/internal/rng"
)

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestModelValidationCatchesBadRows(t *testing.T) {
	m := DefaultModel()
	m.Transitions[Home][Browse] += 0.1 // row no longer sums to 1
	if err := m.Validate(); err == nil {
		t.Fatal("accepted bad row sum")
	}
	m2 := DefaultModel()
	m2.Transitions[Exit][Exit] = 0.5
	m2.Transitions[Exit][Home] = 0.5
	if err := m2.Validate(); err == nil {
		t.Fatal("accepted non-absorbing Exit")
	}
	m3 := DefaultModel()
	m3.Service[Home] = nil
	if err := m3.Validate(); err == nil {
		t.Fatal("accepted missing service distribution")
	}
	m4 := DefaultModel()
	m4.ThinkMean = 0
	if err := m4.Validate(); err == nil {
		t.Fatal("accepted zero think time")
	}
}

func TestStateString(t *testing.T) {
	if Home.String() != "home" || Exit.String() != "exit" {
		t.Fatal("state names wrong")
	}
	if !strings.Contains(State(99).String(), "99") {
		t.Fatal("out-of-range state should include the number")
	}
}

func TestGeneratorValidation(t *testing.T) {
	m := DefaultModel()
	src := rng.New(1)
	if _, err := NewGenerator(nil, 1, []float64{1}, src); err == nil {
		t.Error("accepted nil model")
	}
	if _, err := NewGenerator(m, 0, []float64{1}, src); err == nil {
		t.Error("accepted zero session rate")
	}
	if _, err := NewGenerator(m, 1, nil, src); err == nil {
		t.Error("accepted empty class probs")
	}
	if _, err := NewGenerator(m, 1, []float64{0.5, 0.4}, src); err == nil {
		t.Error("accepted probs not summing to 1")
	}
	if _, err := NewGenerator(m, 1, []float64{0.5, -0.5, 1.0}, src); err == nil {
		t.Error("accepted negative prob")
	}
}

func TestGenerateBasicProperties(t *testing.T) {
	g, err := NewGenerator(DefaultModel(), 0.5, []float64{0.5, 0.5}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.Generate(5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 {
		t.Fatal("no requests generated")
	}
	if !sort.SliceIsSorted(reqs, func(i, j int) bool { return reqs[i].Time < reqs[j].Time }) {
		t.Fatal("requests not time-sorted")
	}
	for _, r := range reqs {
		if r.Time < 0 || r.Time >= 5000 {
			t.Fatalf("request time %v outside [0, 5000)", r.Time)
		}
		if r.Size <= 0 {
			t.Fatalf("non-positive size: %+v", r)
		}
		if r.Class < 0 || r.Class > 1 {
			t.Fatalf("bad class: %+v", r)
		}
		if r.State == Exit {
			t.Fatalf("Exit state issued a request: %+v", r)
		}
	}
}

func TestGenerateSessionStructure(t *testing.T) {
	g, _ := NewGenerator(DefaultModel(), 0.2, []float64{1}, rng.New(3))
	reqs, _ := g.Generate(10000)
	// Each session starts at Home, and all its requests share one class.
	bySession := map[int][]Request{}
	for _, r := range reqs {
		bySession[r.Session] = append(bySession[r.Session], r)
	}
	if len(bySession) < 100 {
		t.Fatalf("only %d sessions", len(bySession))
	}
	for id, rs := range bySession {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Time < rs[j].Time })
		if rs[0].State != Home {
			t.Fatalf("session %d starts at %v", id, rs[0].State)
		}
		for _, r := range rs[1:] {
			if r.Class != rs[0].Class {
				t.Fatalf("session %d mixes classes", id)
			}
		}
	}
}

func TestMeanRequestsPerSessionMatchesEmpirical(t *testing.T) {
	m := DefaultModel()
	analytic := m.MeanRequestsPerSession()
	if analytic <= 1 {
		t.Fatalf("analytic session length %v suspicious", analytic)
	}
	g, _ := NewGenerator(m, 0.2, []float64{1}, rng.New(4))
	// Long horizon; count only sessions that completed well before it.
	reqs, _ := g.Generate(100000)
	counts := map[int]int{}
	for _, r := range reqs {
		if r.Time < 80000 {
			counts[r.Session]++
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	empirical := float64(total) / float64(len(counts))
	if math.Abs(empirical-analytic)/analytic > 0.1 {
		t.Fatalf("empirical session length %v vs analytic %v", empirical, analytic)
	}
}

func TestClassMixProportions(t *testing.T) {
	g, _ := NewGenerator(DefaultModel(), 1, []float64{0.7, 0.3}, rng.New(5))
	reqs, _ := g.Generate(20000)
	sessions := map[int]int{}
	for _, r := range reqs {
		sessions[r.Session] = r.Class
	}
	count0 := 0
	for _, c := range sessions {
		if c == 0 {
			count0++
		}
	}
	frac := float64(count0) / float64(len(sessions))
	if math.Abs(frac-0.7) > 0.03 {
		t.Fatalf("class 0 session fraction %v, want 0.7", frac)
	}
}

func TestDeterministicStatesHaveConstantSizes(t *testing.T) {
	g, _ := NewGenerator(DefaultModel(), 1, []float64{1}, rng.New(6))
	reqs, _ := g.Generate(5000)
	for _, r := range reqs {
		switch r.State {
		case Home:
			if r.Size != 0.15 {
				t.Fatalf("home size %v, want 0.15 (M/D/1 state)", r.Size)
			}
		case Register:
			if r.Size != 0.25 {
				t.Fatalf("register size %v, want 0.25", r.Size)
			}
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	g, _ := NewGenerator(DefaultModel(), 0.5, []float64{0.6, 0.4}, rng.New(7))
	reqs, _ := g.Generate(2000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reqs) {
		t.Fatalf("round trip lost requests: %d vs %d", len(back), len(reqs))
	}
	for i := range reqs {
		if reqs[i] != back[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, reqs[i], back[i])
		}
	}
}

// malformedTraces are traces ReadTrace must reject.
var malformedTraces = []string{
	"",        // no header
	"a,b,c\n", // wrong header
	"time,class,state,size,session\nx,0,home,1,0\n",    // bad time
	"time,class,state,size,session\n1,x,home,1,0\n",    // bad class
	"time,class,state,size,session\n1,0,nowhere,1,0\n", // bad state
	"time,class,state,size,session\n1,0,home,x,0\n",    // bad size
	"time,class,state,size,session\n1,0,home,1,x\n",    // bad session
}

func TestReadTraceErrors(t *testing.T) {
	for i, c := range malformedTraces {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: accepted malformed trace", i)
		}
	}
}

// FuzzReadTrace feeds ReadTrace arbitrary bytes: it must never panic, and
// any trace it accepts must round-trip through WriteTrace to the same
// requests (equal float bits, or both NaN).
func FuzzReadTrace(f *testing.F) {
	for _, c := range malformedTraces {
		f.Add([]byte(c))
	}
	g, err := NewGenerator(DefaultModel(), 0.3, []float64{0.5, 0.5}, rng.New(1))
	if err != nil {
		f.Fatal(err)
	}
	reqs, err := g.Generate(200)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, reqs); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("time,class,state,size,session\nNaN,0,home,+Inf,0\n-0,1,browse,1e-320,-3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, reqs); err != nil {
			t.Fatalf("writing an accepted trace: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v\n%s", err, buf.Bytes())
		}
		if len(back) != len(reqs) {
			t.Fatalf("round trip kept %d of %d requests", len(back), len(reqs))
		}
		same := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
		}
		for i, r := range reqs {
			b := back[i]
			if !same(r.Time, b.Time) || !same(r.Size, b.Size) || r.Class != b.Class || r.State != b.State || r.Session != b.Session {
				t.Fatalf("request %d: %+v round-tripped to %+v", i, r, b)
			}
		}
	})
}

func TestClassRates(t *testing.T) {
	reqs := []Request{
		{Time: 1, Class: 0}, {Time: 2, Class: 0}, {Time: 3, Class: 1},
	}
	rates, err := ClassRates(reqs, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != 0.2 || rates[1] != 0.1 {
		t.Fatalf("rates = %v", rates)
	}
	if _, err := ClassRates([]Request{{Class: 5}}, 2, 10); err == nil {
		t.Error("accepted out-of-range class")
	}
	if _, err := ClassRates(nil, 2, 0); err == nil {
		t.Error("accepted zero horizon")
	}
}

func TestSizeMoments(t *testing.T) {
	reqs := []Request{{Size: 1}, {Size: 2}, {Size: 4}}
	mean, second, inverse, err := SizeMoments(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-7.0/3) > 1e-12 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(second-21.0/3) > 1e-12 {
		t.Fatalf("second = %v", second)
	}
	if math.Abs(inverse-(1+0.5+0.25)/3) > 1e-12 {
		t.Fatalf("inverse = %v", inverse)
	}
	if _, _, _, err := SizeMoments(nil); err == nil {
		t.Error("accepted empty trace")
	}
	if _, _, _, err := SizeMoments([]Request{{Size: 0}}); err == nil {
		t.Error("accepted zero size")
	}
}

func TestGenerateHorizonValidation(t *testing.T) {
	g, _ := NewGenerator(DefaultModel(), 1, []float64{1}, rng.New(8))
	if _, err := g.Generate(0); err == nil {
		t.Error("accepted zero horizon")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, _ := NewGenerator(DefaultModel(), 0.5, []float64{1}, rng.New(9))
	b, _ := NewGenerator(DefaultModel(), 0.5, []float64{1}, rng.New(9))
	ra, _ := a.Generate(3000)
	rb, _ := b.Generate(3000)
	if len(ra) != len(rb) {
		t.Fatalf("lengths differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}
