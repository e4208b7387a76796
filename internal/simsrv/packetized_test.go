package simsrv

import (
	"math"
	"testing"

	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/sched"
)

func packetizedConfig(deltas []float64, rho float64) PacketizedConfig {
	cfg := EqualLoadConfig(deltas, rho, nil)
	cfg.Warmup = 2000
	cfg.Horizon = 20000
	cfg.Seed = 3
	cfg.Allocator = core.PacketizedPSD{}
	return PacketizedConfig{Config: cfg}
}

// ratioOfMeans averages mean slowdowns over seeds and returns the class
// i/class 0 ratio of the averaged means (low-bias estimator).
func packetizedRatio(t *testing.T, pc PacketizedConfig, runs int) float64 {
	t.Helper()
	var s0, s1 float64
	for seed := uint64(0); seed < uint64(runs); seed++ {
		pc.Config.Seed = seed
		res, err := runPacketized(pc)
		if err != nil {
			t.Fatal(err)
		}
		s0 += res.Classes[0].MeanSlowdown
		s1 += res.Classes[1].MeanSlowdown
	}
	return s1 / s0
}

func TestPacketizedRejectsWorkConservingFlag(t *testing.T) {
	pc := packetizedConfig([]float64{1, 2}, 0.5)
	pc.Config.WorkConserving = true
	if _, err := runPacketized(pc); err == nil {
		t.Fatal("accepted WorkConserving flag")
	}
}

func TestPacketizedBasicRun(t *testing.T) {
	pc := packetizedConfig([]float64{1, 2}, 0.6)
	res, err := runPacketized(pc)
	if err != nil {
		t.Fatal(err)
	}
	for i, cs := range res.Classes {
		if cs.Count == 0 {
			t.Fatalf("class %d starved", i)
		}
		if math.IsNaN(cs.MeanSlowdown) || cs.MeanSlowdown < 0 {
			t.Fatalf("class %d slowdown %v", i, cs.MeanSlowdown)
		}
	}
	// Full-speed service: mean service time equals the size law's mean
	// (≈0.29 for the paper default), NOT inflated by a rate split.
	if res.Classes[0].MeanService > 0.5 {
		t.Fatalf("packetized service time %v looks rate-divided", res.Classes[0].MeanService)
	}
	if res.Classes[0].MeanSlowdown >= res.Classes[1].MeanSlowdown {
		t.Fatalf("ordering violated: %v vs %v",
			res.Classes[0].MeanSlowdown, res.Classes[1].MeanSlowdown)
	}
}

// TestPacketizedWorkConservationLimitsDifferentiation is the central
// finding of the packetized study, and the reproduction's justification
// for the paper's non-work-conserving design: a work-conserving
// weighted-fair scheduler at moderate load differentiates only weakly —
// the achieved ratio sits well below the target 2 regardless of which
// allocator chose the weights, because reordering can only trade delay
// during contention (Kleinrock's conservation law) while the paper's
// strict capacity partition holds the gap open at every load.
func TestPacketizedWorkConservationLimitsDifferentiation(t *testing.T) {
	const runs = 6
	for _, alloc := range []core.Allocator{core.PacketizedPSD{}, core.PSD{}} {
		pc := packetizedConfig([]float64{1, 2}, 0.6)
		pc.Config.Allocator = alloc
		ratio := packetizedRatio(t, pc, runs)
		if ratio <= 1.0 {
			t.Logf("%s: ratio %v at or below 1 — reorder-only differentiation "+
				"vanished entirely in this sample", alloc.Name(), ratio)
		}
		if ratio > 1.6 {
			t.Errorf("%s: ratio %v unexpectedly close to the partitioned target 2 — "+
				"the work-conserving limitation should bind", alloc.Name(), ratio)
		}
	}
	// The paper's partitioned task servers hit the target on the same
	// workload. Per-run slowdown means are heavy-tail noisy, so this arm
	// uses the paper's full 60k-tu horizon and 8 seeds (ratio of summed
	// means) with a tolerance sized for that fidelity.
	var s0, s1 float64
	for seed := uint64(0); seed < 8; seed++ {
		cfg := packetizedConfig([]float64{1, 2}, 0.6).Config
		cfg.Allocator = core.PSD{}
		cfg.Horizon = 60000
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s0 += res.Classes[0].MeanSlowdown
		s1 += res.Classes[1].MeanSlowdown
	}
	partitioned := s1 / s0
	if math.Abs(partitioned-2)/2 > 0.3 {
		t.Fatalf("partitioned model should achieve the target: ratio %v", partitioned)
	}
}

// strictPriority always serves the lowest-numbered backlogged class, FIFO
// within a class, and ignores the weights: the related-work baseline
// ([Almeida et al.], paper §5).
type strictPriority struct{ queues [][]sched.Job }

func (p *strictPriority) SetWeights([]float64) error { return nil }

func (p *strictPriority) Enqueue(j sched.Job) { p.queues[j.Class] = append(p.queues[j.Class], j) }

func (p *strictPriority) Dequeue() (sched.Job, bool) {
	for c, q := range p.queues {
		if len(q) > 0 {
			p.queues[c] = q[1:]
			return q[0], true
		}
	}
	return sched.Job{}, false
}

// TestPacketizedStrictPriorityBreaksProportionality reproduces the
// related-work claim (§5): priority scheduling differentiates but cannot
// hold a target spacing.
func TestPacketizedStrictPriorityBreaksProportionality(t *testing.T) {
	pc := packetizedConfig([]float64{1, 2}, 0.7)
	pc.NewScheduler = func(n int) sched.Scheduler { return &strictPriority{queues: make([][]sched.Job, n)} }
	ratio := packetizedRatio(t, pc, 4)
	// Strict priority starves class 2 relative to any fixed proportional
	// target; the ratio runs far above 2.
	if ratio < 3 {
		t.Fatalf("strict priority ratio %v unexpectedly close to proportional target", ratio)
	}
}

func TestPacketizedDeterminism(t *testing.T) {
	pc := packetizedConfig([]float64{1, 2}, 0.5)
	a, err := runPacketized(pc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPacketized(pc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Classes[0].MeanSlowdown != b.Classes[0].MeanSlowdown || a.EventsProcessed != b.EventsProcessed {
		t.Fatal("packetized run not deterministic")
	}
}

func TestPacketizedDefaultsToPacketizedAllocator(t *testing.T) {
	cfg := EqualLoadConfig([]float64{1, 2}, 0.5, nil)
	cfg.Warmup = 1000
	cfg.Horizon = 5000
	pc := PacketizedConfig{Config: cfg} // Allocator nil
	res, err := runPacketized(pc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes[0].Count == 0 {
		t.Fatal("no traffic measured")
	}
	// Expected slowdowns should come from the packetized model (finite,
	// ordered by delta).
	if !(res.ExpectedSlowdowns[0] < res.ExpectedSlowdowns[1]) {
		t.Fatalf("expected slowdowns unordered: %v", res.ExpectedSlowdowns)
	}
}

func TestPacketizedRecordsRequests(t *testing.T) {
	pc := packetizedConfig([]float64{1, 2}, 0.5)
	pc.Config.RecordRequests = true
	pc.Config.RecordFrom = 5000
	pc.Config.RecordTo = 7000
	res, err := runPacketized(pc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records captured")
	}
	for _, r := range res.Records {
		if r.Completion < 5000 || r.Completion >= 7000 {
			t.Fatalf("record outside range: %+v", r)
		}
		// Packetized service runs at full speed: duration == size.
		if math.Abs((r.Completion-r.ServiceStart)-r.Size) > 1e-9 {
			t.Fatalf("service duration != size: %+v", r)
		}
	}
}

// TestPacketizedPSDAllocatorProperties: core-level invariants of the new
// allocator.
func TestPacketizedPSDAllocatorProperties(t *testing.T) {
	w, err := core.WorkloadFromDist(dist.PaperDefault())
	if err != nil {
		t.Fatal(err)
	}
	lambda := 0.3 / w.MeanSize
	classes := []core.Class{{Delta: 1, Lambda: lambda}, {Delta: 2, Lambda: lambda}}
	alloc, err := (core.PacketizedPSD{}).Allocate(classes, w)
	if err != nil {
		t.Fatal(err)
	}
	sum := alloc.Rates[0] + alloc.Rates[1]
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("weights sum to %v", sum)
	}
	// Predicted slowdowns in exact delta ratio.
	if math.Abs(alloc.ExpectedSlowdowns[1]/alloc.ExpectedSlowdowns[0]-2) > 1e-4 {
		t.Fatalf("predicted ratio %v", alloc.ExpectedSlowdowns[1]/alloc.ExpectedSlowdowns[0])
	}
	// Cross-check against PacketizedSlowdown.
	for i, c := range classes {
		s, err := core.PacketizedSlowdown(c.Lambda, w, alloc.Rates[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s-alloc.ExpectedSlowdowns[i])/s > 1e-6 {
			t.Fatalf("class %d: model %v vs alloc %v", i, s, alloc.ExpectedSlowdowns[i])
		}
	}
}
