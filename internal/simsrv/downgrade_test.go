package simsrv

import (
	"math"
	"testing"

	"psd/internal/admission"
	"psd/internal/core"
)

// overloadConfig builds a sustained-overload scenario (ρ ≈ 1.3) behind a
// utilization-bound admission gate — the regime the downgrading policy
// exists for.
func overloadConfig(t *testing.T, alloc core.Allocator) Config {
	t.Helper()
	cfg := EqualLoadConfig([]float64{1, 4}, 1.3, nil)
	cfg.Allocator = alloc
	cfg.Window = 500
	cfg.Warmup = 2000
	cfg.Horizon = 10000
	cfg.Seed = 7
	// The utilization bound sheds large jobs first; estimate load from
	// work so ρ̂ tracks the admitted process (see Config.EstimateFromWork).
	cfg.EstimateFromWork = true
	adm, err := admission.NewUtilizationBound(0.9, cfg.Window)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Admission = adm
	return cfg
}

// TestDowngradingEngagesLadderBeforeShedding is the allocation-side
// ladder-coupling contract: under sustained overload the downgrading
// allocator must step the degradation ladder (scaling effective δ
// targets) strictly before the admission gate sheds its first request,
// and with ρ ≈ 1.3 the overload eventually exhausts every rung, at which
// point shedding begins.
func TestDowngradingEngagesLadderBeforeShedding(t *testing.T) {
	res, err := Run(overloadConfig(t, core.Downgrading{}))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.LadderEngagedAt) {
		t.Fatal("ladder never engaged under sustained 130% load")
	}
	if !res.LadderMaxedOut {
		t.Fatal("ladder should max out: degradation cannot absorb 30% structural overload")
	}
	if math.IsNaN(res.FirstShedAt) {
		t.Fatal("admission never shed despite a maxed-out ladder at 130% load")
	}
	if res.LadderEngagedAt >= res.FirstShedAt {
		t.Fatalf("degrade-before-shed violated: ladder engaged at %g, first shed at %g",
			res.LadderEngagedAt, res.FirstShedAt)
	}
	var rejected int64
	for _, cs := range res.Classes {
		rejected += cs.Rejected
	}
	if rejected == 0 {
		t.Fatal("no rejections counted after the gate opened")
	}
}

// TestPlainPSDShedsWithoutLadder is the contrast run: the same overload
// behind the same gate, but with plain PSD — no ladder is armed, the
// ladder fields stay at their NaN/false zero semantics, and the gate
// sheds from the start instead of waiting for degradation.
func TestPlainPSDShedsWithoutLadder(t *testing.T) {
	res, err := Run(overloadConfig(t, core.PSD{}))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.LadderEngagedAt) || res.LadderMaxedOut {
		t.Fatalf("plain PSD must not arm the ladder: engagedAt=%v maxedOut=%v",
			res.LadderEngagedAt, res.LadderMaxedOut)
	}
	if math.IsNaN(res.FirstShedAt) {
		t.Fatal("plain PSD behind an open gate never shed at 130% load")
	}
	// The ungated-until-maxed-out window is the policy's whole point:
	// the downgrading run must admit strictly longer before shedding.
	down, err := Run(overloadConfig(t, core.Downgrading{}))
	if err != nil {
		t.Fatal(err)
	}
	if down.FirstShedAt <= res.FirstShedAt {
		t.Errorf("downgrading shed at %g, not later than plain PSD's %g",
			down.FirstShedAt, res.FirstShedAt)
	}
}

// TestDowngradingAggregateShedRate exercises the aggregation path: the
// aggregate's MeanShedRate must be positive under overload and zero in a
// comfortably feasible run. Replications run sequentially through one
// arena with a fresh admission controller each — controllers are
// stateful, so parallel replications must never share one.
func TestDowngradingAggregateShedRate(t *testing.T) {
	cfg := overloadConfig(t, core.Downgrading{})
	agg0 := NewAggregator(cfg)
	var sim Simulator
	var res Result
	for rep := 0; rep < 3; rep++ {
		adm, err := admission.NewUtilizationBound(0.9, cfg.Window)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Admission = adm
		if err := sim.Reset(cfg, ReplicationSeed(cfg.Seed, rep)); err != nil {
			t.Fatal(err)
		}
		if err := sim.RunInto(&res); err != nil {
			t.Fatal(err)
		}
		agg0.Add(&res)
	}
	agg, err := agg0.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if !(agg.MeanShedRate > 0) {
		t.Errorf("MeanShedRate = %v, want > 0 at 130%% load", agg.MeanShedRate)
	}
	if agg.MeanShedRate >= 1 {
		t.Errorf("MeanShedRate = %v, want < 1", agg.MeanShedRate)
	}

	calm := EqualLoadConfig([]float64{1, 4}, 0.5, nil)
	calm.Warmup = 1000
	calm.Horizon = 5000
	calmAgg := replicate(t, calm, 3)
	if calmAgg.MeanShedRate != 0 {
		t.Errorf("MeanShedRate = %v without an admission gate, want 0", calmAgg.MeanShedRate)
	}
}

// totalRejected sums the admission rejections over all classes.
func totalRejected(res *Result) (n int64) {
	for _, cs := range res.Classes {
		n += cs.Rejected
	}
	return n
}

// TestPacketizedGateAndLadder: the skeleton owns the admission gate and
// the degradation ladder, so the packetized model has both. The same
// sustained overload as above behind a 0.95 bound must shed on the
// full-speed processor too, and with the downgrading allocator the ladder
// engages no later than the first shed.
func TestPacketizedGateAndLadder(t *testing.T) {
	run := func(alloc core.Allocator) *Result {
		t.Helper()
		cfg := overloadConfig(t, alloc)
		adm, err := admission.NewUtilizationBound(0.95, cfg.Window)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Admission = adm
		res, err := runPacketized(PacketizedConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(core.PacketizedPSD{})
	if totalRejected(plain) == 0 || math.IsNaN(plain.FirstShedAt) {
		t.Fatalf("packetized ρ≈1.3 behind a 0.95 bound shed nothing: rejected=%d firstShed=%v",
			totalRejected(plain), plain.FirstShedAt)
	}
	if !math.IsNaN(plain.LadderEngagedAt) || plain.LadderMaxedOut {
		t.Errorf("ppsd must not arm the ladder: engagedAt=%v maxedOut=%v", plain.LadderEngagedAt, plain.LadderMaxedOut)
	}

	down := run(core.Downgrading{})
	if totalRejected(down) == 0 {
		t.Fatal("downgrade on the packetized model shed nothing at ρ≈1.3")
	}
	if math.IsNaN(down.LadderEngagedAt) || !(down.LadderEngagedAt <= down.FirstShedAt) {
		t.Errorf("degrade-before-shed violated on the packetized model: ladder engaged at %v, first shed at %v",
			down.LadderEngagedAt, down.FirstShedAt)
	}
}
