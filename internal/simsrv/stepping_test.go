package simsrv

import (
	"fmt"
	"math"
	"testing"

	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/obs"
	"psd/internal/rng"
)

// fuzzSteppingConfig decodes data into a partitioned-model config whose
// classes stay independent between control boundaries: 1–8 classes, load
// from light to overload, short windows, flash crowds and class-mix churn
// (some phases exactly on tick multiples, some scaling classes to zero),
// zero-λ classes, per-class size laws (exponential, deterministic and
// uniform beside the shared BP), feedback, EWMA, oracle, several
// fluid allocators including the downgrading ladder, and a ServiceFloor
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
	cfg.ServiceFloor = []float64{0, 0, 0.05, 0.2}[(flags>>4)%4]
	policy := []string{"psd", "downgrade", "pdd", "ppsd", "log", "equal", "demand"}[at(9)%7]
	if nc == 1 && policy == "downgrade" {
		policy = "psd" // a one-class ladder needs an explicit order
	}
	alloc, err := core.Parse(policy)
	if err != nil {
		panic(err)
	}
	cfg.Allocator = alloc
	zeroMask, lawMask, lawKind := at(10), at(11), at(19)
	mean := cfg.Service.Mean()
	for i := range cfg.Classes {
		if zeroMask>>i&1 != 0 && i != nc-1 {
			cfg.Classes[i].Lambda = 0
		}
		if lawMask>>i&1 == 0 {
			continue // the shared BP
		}
		switch lawKind >> (2 * (i % 4)) & 3 {
		case 1:
			cfg.Classes[i].Service, _ = dist.NewDeterministic(mean)
		case 2:
			cfg.Classes[i].Service, _ = dist.NewUniform(mean/4, 7*mean/4)
		default:
			cfg.Classes[i].Service, _ = dist.NewExponential(1 / mean)
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
	// Starved: 7 classes at light load under the demand allocator, whose
	// zero estimate for a quiet class leaves it rate 0 when a request
	// arrives, so the request waits in service until the next tick.
	f.Add([]byte{0x66, 0x03, 0x02, 0x40, 0x2d, 0x46, 0x23, 0xc7, 0x68, 0x5a, 0x43, 0xa5, 0x7f, 0x54, 0x96, 0x0a, 0x03, 0x5e, 0x3e, 0x1a})
	// A job crossing two or more ticks with a queue behind it: 7 classes
	// at ρ ≈ 1.28 with 50-tu windows.
	f.Add([]byte{0x36, 0x4e, 0xfb, 0xe9, 0xe8, 0x21, 0x54, 0x7d, 0x8d, 0x5b, 0x90, 0xeb, 0x98, 0xb9, 0x0f, 0x36, 0x9e, 0x09, 0x36, 0xb9})
	// A phase switch while jobs cross the boundary: 8 classes at ρ ≈ 0.91
	// under class-mix churn with 25-tu windows.
	f.Add([]byte{0xbf, 0xae, 0xad, 0xe0, 0x77, 0xb8, 0x03, 0x2b, 0x80, 0xa6, 0x99, 0x06, 0x86, 0x61, 0x41, 0x76, 0x59, 0x20, 0x9e, 0xef})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzSteppingConfig(data)
		if scan, step := runStepping(t, cfg, true), runStepping(t, cfg, false); scan != step {
			t.Fatalf("class stepping differs from the scan\nscan: %s\nstep: %s", scan, step)
		}
	})
}

// tieLaw is a test size law that lands completions on exact ties. It
// replays its class's arrival stream (stream 2i+1 split off the
// replication's root source, as runner.reset derives it) and, for a
// class served at a fixed rate, sizes each request so that it completes
// exactly at the second control tick after its arrival when the next
// arrival comes later still (spanning the tick between), else exactly
// at the control tick before the next arrival when there is one, else
// exactly at the next arrival (every other request; the rest take half
// the gap). Sample hands the sizes out in arrival order and ignores its
// source.
type tieLaw struct {
	sizes                           []float64
	next                            int
	arrivalTies, tickTies, spanTies int
}

func newTieLaw(seed uint64, class int, lambda, rate, window, total float64) *tieLaw {
	var root, arrivals rng.Source
	root.Reseed(seed)
	root.SplitInto(&arrivals, uint64(2*class+1))
	law := &tieLaw{}
	a := arrivals.ExpFloat64(lambda)
	for k := 0; a <= total; k++ {
		next := a + arrivals.ExpFloat64(lambda)
		tick := (math.Floor(a/window) + 1) * window
		size := (next - a) * rate / 2
		// A spanning job's remaining work is synced at the tick between
		// and its completion re-armed from there.
		span := (tick + window - a) * rate
		switch {
		case tick+window < next && tick+(span-(tick-a)*rate)/rate == tick+window:
			size = span
			law.spanTies++
		case tick < next && a+(tick-a)*rate/rate == tick:
			size = (tick - a) * rate
			law.tickTies++
		case k%2 == 0 && a+(next-a)*rate/rate == next:
			size = (next - a) * rate
			law.arrivalTies++
		}
		law.sizes = append(law.sizes, size)
		a = next
	}
	return law
}

func (l *tieLaw) Mean() float64          { return 1 }
func (l *tieLaw) SecondMoment() float64  { return 1 }
func (l *tieLaw) InverseMoment() float64 { return 1 }
func (l *tieLaw) String() string         { return "tieLaw" }

func (l *tieLaw) Sample(*rng.Source) float64 {
	l.next++
	return l.sizes[l.next-1]
}

// TestClassSteppingExactTies runs two classes at the fixed rate 1/2 (the
// equal split; halving and doubling are exact) whose requests complete
// exactly at the next arrival or exactly at a control tick, and requires
// the class stepping to reproduce the scan: a completion tied with an
// arrival inside a window, and one tied with the tick, which the tick's
// rate sync leaves at zero remaining work and re-arms at the same
// instant, so it is served after the tick. Feedback and a flight
// recorder make that order visible: the tick's measured window slowdowns
// must not include it. A third kind of tie is a job that spans a tick and
// completes exactly on the next: its completion, re-armed by the tick it
// spans, fires before the tick it ties with, so it counts in the window
// that tick closes, where int((t − Warmup)/Window) would put it in the
// next. A recorded run pins that rule on every class's WindowMeans.
func TestClassSteppingExactTies(t *testing.T) {
	const seed, window, lambda, rate = 11, 10.0, 0.4, 0.5
	config := func() (Config, []*tieLaw) {
		cfg := EqualLoadConfig([]float64{1, 2}, 0.5, nil)
		cfg.Allocator = core.EqualShare{}
		cfg.Window, cfg.Warmup, cfg.Horizon, cfg.Seed = window, 100, 3000, seed
		cfg.Feedback = true
		cfg.Recorder, _ = obs.NewFlightRecorder(2, 512)
		laws := make([]*tieLaw, len(cfg.Classes))
		for i := range cfg.Classes {
			laws[i] = newTieLaw(seed, i, lambda, rate, window, cfg.Warmup+cfg.Horizon)
			cfg.Classes[i].Lambda, cfg.Classes[i].Service = lambda, laws[i]
		}
		return cfg, laws
	}
	run := func(scan bool) (string, []*tieLaw) {
		cfg, laws := config()
		return runStepping(t, cfg, scan) + fmt.Sprintf("%+v", cfg.Recorder.Snapshot()), laws
	}
	scan, laws := run(true)
	for i, law := range laws {
		if law.arrivalTies < 50 || law.tickTies < 50 {
			t.Fatalf("class %d arranges %d arrival and %d tick ties, want ≥ 50 of each", i, law.arrivalTies, law.tickTies)
		}
		if law.next != len(law.sizes) {
			t.Fatalf("class %d drew %d of %d sizes: its arrivals are not the replayed stream", i, law.next, len(law.sizes))
		}
	}
	if step, _ := run(false); step != scan {
		t.Fatalf("class stepping differs from the scan under exact ties\nscan: %s\nstep: %s", scan, step)
	}

	cfg, laws := config()
	cfg.RecordRequests, cfg.RecordFrom, cfg.RecordTo = true, cfg.Warmup, math.Inf(1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepped, _ := config()
	var sim Simulator
	var want Result
	if err := sim.Reset(stepped, stepped.Seed); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunInto(&want); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, law := range laws {
		spans += law.spanTies
	}
	spanned := func(r RequestRecord) bool {
		return math.Mod(r.Completion, window) == 0 && r.ServiceStart < r.Completion-window
	}
	counted := 0
	for _, r := range res.Records {
		if spanned(r) {
			counted++
		}
	}
	if spans < 5 || counted < 5 {
		t.Fatalf("%d spanning ties arranged, %d recorded, want ≥ 5 of each", spans, counted)
	}
	byFold := windowMeansOf(res.Records, cfg, spanned)
	byTime := windowMeansOf(res.Records, cfg, func(RequestRecord) bool { return false })
	for i := range res.Classes {
		checkWindowMeans(t, fmt.Sprintf("class %d, recorded run", i), res.Classes[i].WindowMeans, byFold[i])
		checkWindowMeans(t, fmt.Sprintf("class %d, stepped run", i), want.Classes[i].WindowMeans, byFold[i])
	}
	if fmt.Sprint(byFold) == fmt.Sprint(byTime) {
		t.Fatal("the spanning ties move no window mean: the test pins nothing")
	}
}
