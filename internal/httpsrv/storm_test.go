package httpsrv

import (
	"context"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The storm tests drive the sharded front door from many goroutines at
// once — load, window drains, metric scrapes, rate publications, real
// reallocation ticks — and assert the two invariants the lock-free
// design must keep: window-counter conservation across the striped
// Swap-drain (no lost or double-counted arrivals) and untorn rate reads
// (a reader only ever sees a value some writer actually published).
// They are deliberately not -short-gated: the CI race job is exactly
// where they earn their keep.

// stormSize is exactly representable in binary (2⁻⁶), so striped float
// work accumulation is exact and conservation can be asserted with ==.
const stormSize = 0.015625

// TestStormWindowConservation: concurrent multi-class load through Do,
// a concurrent drainer calling closeWindow, and concurrent metric
// scrapes. Every admitted arrival must appear in exactly one drained
// window: the sum of all drains plus the final drain equals the served
// count per class, and the drained work equals count·size exactly.
func TestStormWindowConservation(t *testing.T) {
	s, err := New(Config{
		Deltas:          []float64{1, 2, 4},
		TimeUnit:        time.Microsecond,
		Window:          1e9, // manual drains only
		WorkersPerClass: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		loaders    = 8
		perLoader  = 400
		numClasses = 3
	)
	var (
		served  [numClasses]atomic.Int64
		drained [numClasses]struct{ count, work float64 }
		stop    = make(chan struct{})
		drainWG sync.WaitGroup
	)
	// One drainer (the reallocation tick's role), racing the loaders.
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range s.classes {
				c, w, _ := s.classes[i].closeWindow()
				drained[i].count += c
				drained[i].work += w
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	// Scrapers: JSON snapshot and Prometheus exposition, continuously.
	for sc := 0; sc < 2; sc++ {
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Snapshot()
				s.refreshScrapeGauges()
				_ = s.reg.WriteProm(io.Discard)
				// Scrapes race the drain and the loaders, but a hot spin
				// would starve them of the (possibly single) CPU.
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	var loadWG sync.WaitGroup
	for g := 0; g < loaders; g++ {
		loadWG.Add(1)
		go func(g int) {
			defer loadWG.Done()
			class := g % numClasses
			for i := 0; i < perLoader; i++ {
				if _, st := s.Do(context.Background(), class, stormSize); st == Served {
					served[class].Add(1)
				} else {
					t.Errorf("loader %d: unexpected status %v", g, st)
					return
				}
			}
		}(g)
	}
	loadWG.Wait()
	close(stop)
	drainWG.Wait()
	// Final drain: whatever the storm-time drains didn't catch.
	for i := range s.classes {
		c, w, _ := s.classes[i].closeWindow()
		drained[i].count += c
		drained[i].work += w
	}
	for i := 0; i < numClasses; i++ {
		want := float64(served[i].Load())
		if drained[i].count != want {
			t.Errorf("class %d: drained %v arrivals over all windows, served %v — lost or duplicated across the striped drain",
				i, drained[i].count, want)
		}
		if drained[i].work != want*stormSize {
			t.Errorf("class %d: drained work %v != %v (count·size) — work cell lost across the striped drain",
				i, drained[i].work, want*stormSize)
		}
	}
}

// TestStormNoTornRates: a publisher installs rates from a known set
// while readers hammer currentRate and pacing workers serve load; every
// observed value must be bit-identical to a published (or initial)
// value — a torn 64-bit read would surface as a value outside the set.
func TestStormNoTornRates(t *testing.T) {
	s, err := New(Config{
		Deltas:   []float64{1, 2},
		TimeUnit: time.Microsecond,
		Window:   1e9, // rate changes are scripted, not ticked
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	published := []float64{0.5, 0.1, 0.2, 0.3, 0.45, 0.7, 1.0 / 3.0} // 0.5 = initial even split
	legal := make(map[uint64]bool, len(published))
	for _, r := range published {
		legal[math.Float64bits(r)] = true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, cr := range s.classes {
					got := cr.currentRate()
					if !legal[math.Float64bits(got)] {
						t.Errorf("torn or phantom rate read: %v (bits %#x) was never published", got, math.Float64bits(got))
						return
					}
				}
			}
		}()
	}
	// Load keeps the pacing path (another rate reader) hot too.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(class int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Do(context.Background(), class, stormSize)
			}
		}(g)
	}
	epoch0 := s.RateEpoch(0)
	for i := 0; i < 3000; i++ {
		for ci, cr := range s.classes {
			cr.setRate(published[(i+ci)%len(published)])
		}
	}
	if s.RateEpoch(0) == epoch0 {
		t.Error("rate epoch never advanced across 3000 publications")
	}
	close(stop)
	wg.Wait()
}

// TestStormTicksScrapesLoad: the full production concurrency — real
// background reallocation ticks, multi-class load, and metric scrapes —
// with sanity assertions on the control plane's outputs: rates stay a
// partition of capacity, and the allocator-side MinRate floor keeps the
// pacing clamp tripwire at zero.
func TestStormTicksScrapesLoad(t *testing.T) {
	s, err := New(Config{
		Deltas:          []float64{1, 2, 4},
		TimeUnit:        50 * time.Microsecond,
		Window:          20, // tick every 1ms
		WorkersPerClass: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for sc := 0; sc < 2; sc++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				doc := s.Snapshot()
				for i, cm := range doc.Classes {
					if math.IsNaN(cm.Rate) || cm.Rate < 0 || cm.Rate > 1 {
						t.Errorf("scraped class %d rate %v out of [0,1]", i, cm.Rate)
						return
					}
				}
				_ = s.reg.WriteProm(io.Discard)
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	var loadWG sync.WaitGroup
	for g := 0; g < 6; g++ {
		loadWG.Add(1)
		go func(g int) {
			defer loadWG.Done()
			for i := 0; i < 300; i++ {
				s.Do(context.Background(), g%3, 0.05)
			}
		}(g)
	}
	loadWG.Wait()
	// The load can outrun the 1ms ticker; keep the scrapers storming
	// until at least one real tick lands (bounded wait).
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Reallocations < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no reallocation tick completed during the storm")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	scrapeWG.Wait()

	doc := s.Snapshot()
	sum := 0.0
	for i, cm := range doc.Classes {
		if !(cm.Rate >= 0) || math.IsInf(cm.Rate, 0) {
			t.Fatalf("class %d rate %v not finite/non-negative", i, cm.Rate)
		}
		sum += cm.Rate
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rates sum to %v after storm, want 1 (capacity partition)", sum)
	}
	if doc.RateFloorClamps != 0 {
		t.Fatalf("pacing floor clamped %d times despite the allocator-side MinRate floor", doc.RateFloorClamps)
	}
}

// TestSnapshotWaitsForTickPublish: while a tick is writing its gauges
// (publishSeq odd), Snapshot must not return a rate vector half old and
// half new; once the tick closes the sequence it reads the new vector
// whole.
func TestSnapshotWaitsForTickPublish(t *testing.T) {
	s, _ := fastServer(t, Config{Window: 1e9})
	s.publishSeq.Add(1)
	s.met.rate.At(0).Set(0.9) // class 1 still holds its old rate
	got := make(chan MetricsDocument, 1)
	go func() { got <- s.Snapshot() }()
	select {
	case doc := <-got:
		t.Fatalf("Snapshot returned rates %v, %v mid-publish", doc.Classes[0].Rate, doc.Classes[1].Rate)
	case <-time.After(20 * time.Millisecond):
	}
	s.met.rate.At(1).Set(0.1)
	s.publishSeq.Add(1)
	if doc := <-got; doc.Classes[0].Rate != 0.9 || doc.Classes[1].Rate != 0.1 {
		t.Fatalf("rates %v, %v after the publish, want 0.9, 0.1", doc.Classes[0].Rate, doc.Classes[1].Rate)
	}
}

// BenchmarkFrontDoor measures the sharded admitted path end to end
// (admission → queue → paced service → completion accounting) under
// contention, and hard-gates its allocation behavior: the steady-state
// admitted path must not allocate (jobs and their channels are pooled;
// observations go to striped atomics). Each iteration is one fixed storm
// — stormClients goroutines, each issuing stormPerClient requests and
// waiting for every completion — against a 4-class server that also runs
// real reallocation ticks, so the gate holds at CI's -benchtime 1x.
func BenchmarkFrontDoor(b *testing.B) {
	const (
		stormClients   = 16
		stormPerClient = 6000
	)
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	s, err := New(Config{
		Deltas:          []float64{1, 2, 4, 8},
		TimeUnit:        time.Microsecond,
		Window:          2000, // a real reallocation tick every 2 ms
		WorkersPerClass: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 2048; i++ { // warm the job pool and the workers
		if _, st := s.Do(ctx, i%4, stormSize); st != Served {
			b.Fatalf("warmup request rejected: %v", st)
		}
	}
	var rejected atomic.Int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < stormClients; g++ {
			wg.Add(1)
			go func(class int) {
				defer wg.Done()
				for k := 0; k < stormPerClient; k++ {
					if _, st := s.Do(ctx, class, stormSize); st != Served {
						rejected.Add(1)
					}
				}
			}(g % 4)
		}
		wg.Wait()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	reqs := b.N * stormClients * stormPerClient
	if n := rejected.Load(); n > 0 {
		b.Fatalf("%d of %d storm requests rejected", n, reqs)
	}
	allocsPerReq := float64(ms1.Mallocs-ms0.Mallocs) / float64(reqs)
	b.ReportMetric(float64(reqs)/b.Elapsed().Seconds(), "reqs/s")
	b.ReportMetric(allocsPerReq, "allocs/req")
	if allocsPerReq > 0.01 {
		b.Fatalf("admitted path regressed into allocation: %.4f allocs/req (want ≤ 0.01)", allocsPerReq)
	}
}
