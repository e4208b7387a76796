package simsrv

import (
	"fmt"
	"testing"

	"psd/internal/admission"
	"psd/internal/core"
	"psd/internal/sched"
)

// TestArenaModeCycling drives ONE Simulator through every combination of
// service model and arrival source, each step differing from the last in
// whatever a shared runner could leak — an armed ladder, a trace, a
// scheduler factory, a scheduler sized for another class count — and
// requires each Result to equal a fresh Simulator's bit for bit. %+v
// prints every field of every class at round-trip precision and NaNs as
// NaN, so string equality is value equality with NaN placement included.
func TestArenaModeCycling(t *testing.T) {
	short := func(cfg Config) Config {
		cfg.Window, cfg.Warmup, cfg.Horizon, cfg.Seed = 100, 500, 4000, 21
		return cfg
	}
	overload := short(EqualLoadConfig([]float64{1, 4}, 1.3, nil))
	overload.Allocator = core.Downgrading{}
	overload.EstimateFromWork = true

	hesrpt := short(EqualLoadConfig([]float64{1, 2, 4}, 0.7, nil))
	hesrpt.Allocator = core.HeSRPTWeights{}
	hesrpt.LoadSchedule = FlashCrowd(1500, 800, 1.5)

	var trace []TraceRequest
	for i := 0; i < 6000; i++ {
		trace = append(trace, TraceRequest{Time: 0.7 * float64(i+1), Class: i % 2, Size: 0.3 + float64(i%5)*0.2})
	}
	replay := short(EqualLoadConfig([]float64{1, 2}, 0.5, nil))
	replay.RecordRequests, replay.RecordFrom, replay.RecordTo = true, 1000, 1200

	plain := short(EqualLoadConfig([]float64{1, 2, 4, 8, 16}, 0.8, nil))
	plain.Feedback = true

	scfq := short(EqualLoadConfig([]float64{1, 3}, 0.6, nil))

	steps := []struct {
		name string
		arm  func(*Simulator) error
	}{
		{"fluid downgrade+admission", func(s *Simulator) error {
			cfg := overload
			adm, err := admission.NewUtilizationBound(0.9, cfg.Window) // stateful: one per run
			if err != nil {
				return err
			}
			cfg.Admission = adm
			return s.Reset(cfg, cfg.Seed)
		}},
		{"packetized hesrpt factory", func(s *Simulator) error {
			mk := func(n int) sched.Scheduler { return sched.NewHeSRPT(n) }
			return s.ResetPacketized(PacketizedConfig{Config: hesrpt, NewScheduler: mk}, hesrpt.Seed)
		}},
		{"trace replay", func(s *Simulator) error { return s.ResetTrace(replay, trace, replay.Seed) }},
		{"fluid psd", func(s *Simulator) error { return s.Reset(plain, plain.Seed) }},
		{"packetized scfq 2 classes", func(s *Simulator) error {
			return s.ResetPacketized(PacketizedConfig{Config: scfq}, scfq.Seed)
		}},
		{"packetized scfq 5 classes", func(s *Simulator) error {
			return s.ResetPacketized(PacketizedConfig{Config: plain}, plain.Seed)
		}},
	}
	var shared Simulator
	var sharedRes Result
	for _, st := range steps {
		var fresh Simulator
		var want Result
		for _, run := range []struct {
			sim *Simulator
			res *Result
		}{{&fresh, &want}, {&shared, &sharedRes}} {
			if err := st.arm(run.sim); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			if err := run.sim.RunInto(run.res); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
		if want.EventsProcessed == 0 || want.Classes[0].Count == 0 {
			t.Fatalf("%s: degenerate run: %+v", st.name, want)
		}
		if got, want := fmt.Sprintf("%+v", sharedRes), fmt.Sprintf("%+v", want); got != want {
			t.Errorf("%s: recycled arena diverges from a fresh one\n got %s\nwant %s", st.name, got, want)
		}
	}
	// The steps above must have exercised what they claim to.
	if err := steps[0].arm(&shared); err != nil {
		t.Fatal(err)
	}
	if err := shared.RunInto(&sharedRes); err != nil {
		t.Fatal(err)
	}
	if !sharedRes.LadderMaxedOut || sharedRes.Classes[0].Rejected+sharedRes.Classes[1].Rejected == 0 {
		t.Errorf("step 0 never armed the ladder or shed: %+v", sharedRes)
	}
}
