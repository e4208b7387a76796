package simsrv

import (
	"fmt"
	"testing"

	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/dist"
)

// fuzzSteppingConfig decodes data into a partitioned-model config whose
// classes stay independent between control boundaries: 1–8 classes, load
// from light to overload, short windows, flash crowds and class-mix churn
// (some phases exactly on tick multiples, some scaling classes to zero),
// zero-λ classes, per-class size laws, feedback, EWMA, oracle, several
// fluid allocators including the downgrading ladder, and a MinRate floor
// that binds. Missing bytes read as zero.
func fuzzSteppingConfig(data []byte) Config {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	nc := 1 + at(0)%8
	deltas := make([]float64, nc)
	for i := range deltas {
		deltas[i] = float64(1 + i*(1+at(1)%3))
	}
	cfg := EqualLoadConfig(deltas, 0.1+1.2*float64(at(2))/255, nil)
	cfg.Window = []float64{25, 50, 100, 250}[at(3)%4]
	cfg.Warmup = cfg.Window * float64(1+at(4)%4)
	cfg.Horizon = cfg.Window * float64(8+at(5)%24)
	cfg.Seed = uint64(at(6)) | uint64(at(7))<<8
	flags := at(8)
	cfg.Feedback = flags&1 != 0
	if flags&2 != 0 {
		cfg.Estimator = control.EWMA
	}
	cfg.Oracle = flags&4 != 0
	cfg.EstimateFromWork = flags&8 != 0
	cfg.MinRate = []float64{0, 0, 0.05, 0.2}[(flags>>4)%4]
	policy := []string{"psd", "downgrade", "pdd", "ppsd", "log", "equal", "demand"}[at(9)%7]
	if nc == 1 && policy == "downgrade" {
		policy = "psd" // a one-class ladder needs an explicit order
	}
	alloc, err := core.Parse(policy)
	if err != nil {
		panic(err)
	}
	cfg.Allocator = alloc
	zeroMask, lawMask := at(10), at(11)
	for i := range cfg.Classes {
		if zeroMask>>i&1 != 0 && i != nc-1 {
			cfg.Classes[i].Lambda = 0
		}
		if lawMask>>i&1 != 0 {
			cfg.Classes[i].Service, _ = dist.NewExponential(1 / cfg.Service.Mean())
		}
	}
	// A phase onset is k windows in, plus an offset that is zero (a tie
	// with the tick) for even offset bytes.
	start := func(k, off int) float64 {
		t := cfg.Window * float64(k)
		if off%2 == 1 {
			t += cfg.Window * float64(off) / 256
		}
		return t
	}
	total := int((cfg.Warmup + cfg.Horizon) / cfg.Window)
	switch at(12) % 3 {
	case 1:
		cfg.LoadSchedule = FlashCrowd(start(1+at(13)%total, at(14)),
			cfg.Window*float64(1+at(15)%6), 3*float64(at(16))/255)
	case 2:
		cfg.LoadSchedule = ClassMixChurn(nc, start(at(13)%total, at(14)),
			cfg.Window*float64(1+at(15)%4), 1+at(16)%6, 1+2*float64(at(17))/255, float64(at(18)%3)/2)
	}
	return cfg
}

// runStepping runs one replication of cfg through a fresh Simulator,
// stepping classes alone unless scan forces the global event scan.
func runStepping(t *testing.T, cfg Config, scan bool) string {
	t.Helper()
	var sim Simulator
	sim.scanOnly = scan
	if err := sim.Reset(cfg, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	if !sim.run.classesIndependent() {
		t.Fatal("config does not keep its classes independent")
	}
	var res Result
	if err := sim.RunInto(&res); err != nil {
		t.Fatal(err)
	}
	// %+v prints every field at round-trip precision and NaN as NaN, so
	// string equality is bit equality up to NaN payloads.
	return fmt.Sprintf("%+v", res)
}

// FuzzClassSteppingVsScan requires a partitioned run stepped one class at
// a time between control boundaries to reproduce the global (time, seq)
// scan bit for bit: events, reallocations, every per-class statistic and
// window mean, final rates, predictions and ladder times.
func FuzzClassSteppingVsScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 170, 2, 2, 20, 19, 0, 0x23, 1, 0, 0, 1, 4, 0, 5, 120}) // golden transient8's shape
	f.Add([]byte{3, 0, 250, 0, 1, 30, 5, 1, 0x31, 1, 0, 3, 1, 2, 0, 3, 140})  // overload, ladder, binding floor
	f.Add([]byte{5, 2, 140, 1, 3, 12, 9, 0, 0x2b, 2, 5, 9, 2, 0, 0, 2, 5, 200, 0})
	f.Add([]byte{2, 0, 90, 3, 0, 9, 1, 2, 0x14, 4, 1, 0, 2, 1, 7, 1, 3, 90, 1})
	f.Add([]byte{0, 0, 200, 1, 4, 23, 77, 3, 0x0e, 6, 0, 1, 1, 3, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzSteppingConfig(data)
		if scan, step := runStepping(t, cfg, true), runStepping(t, cfg, false); scan != step {
			t.Fatalf("class stepping differs from the scan\nscan: %s\nstep: %s", scan, step)
		}
	})
}
