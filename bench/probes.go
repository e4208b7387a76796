package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"psd/internal/admission"
	"psd/internal/analytic"
	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/des"
	"psd/internal/dist"
	"psd/internal/figures"
	"psd/internal/httpsrv"
	"psd/internal/obs"
	"psd/internal/queueing"
	"psd/internal/rng"
	"psd/internal/sched"
	"psd/internal/simsrv"
	"psd/internal/stats"
	"psd/internal/sweep"
	"psd/internal/workload"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// prober runs the layer probes: each times calls into one layer's
// exported functions, from outside, and records one span per probe.
type prober struct {
	env
	tr     *tracer
	budget time.Duration // wall time per timed probe
	out    map[string]float64
	mu     sync.Mutex // failf is called from client goroutines too
	failed []string
}

// time runs one probe: f(n) performs n operations.
func (p *prober) time(name string, n int, f func(n int)) {
	s := p.tr.begin("probe:"+name, -1)
	p.out[name] = nsPerOp(p.budget, n, f)
	p.tr.end(s)
}

func (p *prober) failf(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed = append(p.failed, fmt.Sprintf(format, args...))
}

// must panics on errors only a bug in the probe itself can cause: every
// input below is a constant of this file.
func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("bench probe set-up: %v", err))
	}
	return v
}

// runProbes measures every layer. depth is the DES heap depth the
// traced workload keeps pending; 0 (no DES in the workload) probes at the
// 2-class depth.
func runProbes(e env, tr *tracer, depth int) *prober {
	p := &prober{env: e, tr: tr, budget: time.Duration(e.scaled(30, 1)) * time.Millisecond, out: map[string]float64{}}
	tr.enable(true)
	p.rngDist()
	p.des(depth)
	p.simsrv()
	p.sched()
	p.control()
	p.coreAnalytic()
	p.statsWorkload()
	p.obsAdmission()
	p.httpsrv()
	p.net()
	return p
}

func (p *prober) rngDist() {
	src := rng.New(p.seed)
	var dst rng.Source
	p.time("rng.uint64_ns", 1<<16, func(n int) {
		var x uint64
		for i := 0; i < n; i++ {
			x ^= src.Uint64()
		}
		sink += float64(x & 1)
	})
	p.time("rng.float64open_ns", 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			sink += src.Float64Open()
		}
	})
	p.time("rng.exp_ns", 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			sink += src.ExpFloat64(2)
		}
	})
	p.time("rng.split_ns", 1<<12, func(n int) {
		for i := 0; i < n; i++ {
			src.SplitInto(&dst, uint64(i))
		}
		sink += dst.Float64()
	})

	bp := dist.PaperDefault()
	sizes := make([]float64, 4096)
	for i := range sizes {
		sizes[i] = bp.Sample(src)
	}
	laws := []struct {
		name string
		d    dist.Distribution
	}{
		{"dist.bp_sample_ns", bp},
		{"dist.exp_sample_ns", must(dist.NewExponential(1 / bp.Mean()))},
		{"dist.lognormal_sample_ns", must(dist.NewLognormal(-1.125, 1.5))},
		{"dist.hyperexp_sample_ns", must(dist.NewHyperExp2(bp.Mean(), 4))},
		{"dist.empirical_sample_ns", must(dist.NewEmpirical(sizes))},
	}
	for _, l := range laws {
		d := l.d
		p.time(l.name, 1<<14, func(n int) {
			for i := 0; i < n; i++ {
				sink += d.Sample(src)
			}
		})
	}
	p.time("dist.bp_moments_ns", 1<<10, func(n int) {
		for i := 0; i < n; i++ {
			w := must(core.WorkloadFromDist(bp))
			sink += w.MeanSize
		}
	})
}

// hopper is a DES handler that reschedules itself, which keeps the heap
// at a fixed depth while events flow.
type hopper struct {
	sim *des.Simulator
	src *rng.Source
}

func (h *hopper) HandleEvent(kind, data int32) {
	h.sim.Schedule(h.src.Float64Open(), h, kind, data)
}

func (p *prober) des(depth int) {
	if depth == 0 {
		depth = 6
	}
	p.out["des.pending_max"] = float64(depth)
	sim := des.New()
	h := &hopper{sim: sim, src: rng.New(p.seed)}
	fill := func() {
		for i := 0; i < depth; i++ {
			sim.Schedule(h.src.Float64Open(), h, 0, int32(i))
		}
	}
	fill()
	p.time("des.schedule_step_ns", 1<<14, func(n int) {
		for i := 0; i < n; i++ {
			sim.Step() // fires one event, whose handler schedules the next
		}
	})
	p.time("des.cancel_ns", 1<<14, func(n int) {
		for i := 0; i < n; i++ {
			sim.Cancel(sim.Schedule(h.src.Float64Open(), h, 0, 0))
		}
	})
	// What an arena pays per replication: refill to depth, then Reset.
	p.time("des.reset_ns", 1<<10, func(n int) {
		for i := 0; i < n; i++ {
			sim.Reset()
			fill()
		}
	})
}

// paperConfig is the paper's scenario at 60 % load with a short horizon.
func (p *prober) paperConfig(deltas []float64) simsrv.Config {
	cfg := simsrv.EqualLoadConfig(deltas, 0.6, nil)
	cfg.Warmup, cfg.Horizon, cfg.Seed = 1000, p.scaled(20000, 2000), p.seed
	return cfg
}

func (p *prober) simsrv() {
	var sim simsrv.Simulator
	var res simsrv.Result
	// perEvent replays one replication on the retained arena until the
	// budget is spent and reports the median wall time per DES event.
	perEvent := func(name string, reset func() error) {
		s := p.tr.begin("probe:"+name, -1)
		defer p.tr.end(s)
		var per []float64
		var events uint64
		deadline := time.Now().Add(2 * p.budget)
		for i := 0; i < 3 || time.Now().Before(deadline); i++ {
			t0 := time.Now()
			if err := reset(); err != nil {
				p.failf("%s: %v", name, err)
				return
			}
			if err := sim.RunInto(&res); err != nil {
				p.failf("%s: %v", name, err)
				return
			}
			if i > 0 { // the first replication grows the arena
				per = append(per, float64(time.Since(t0))/float64(res.EventsProcessed))
				if res.EventsProcessed != events {
					p.failf("%s: %d events, then %d under the same seed", name, events, res.EventsProcessed)
				}
			}
			events = res.EventsProcessed
		}
		p.out[name] = median(per)
	}
	two := p.paperConfig([]float64{1, 2})
	perEvent("simsrv.ns_per_event_2c", func() error { return sim.Reset(two, p.seed) })
	p.time("simsrv.reset_us", 1<<6, func(n int) {
		for i := 0; i < n; i++ {
			if err := sim.Reset(two, p.seed); err != nil {
				p.failf("simsrv.reset_us: %v", err)
			}
		}
	})
	p.out["simsrv.reset_us"] /= 1e3
	eight := p.paperConfig([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	perEvent("simsrv.ns_per_event_8c", func() error { return sim.Reset(eight, p.seed) })
	pk := p.paperConfig([]float64{1, 2, 4})
	pk.Allocator = core.PacketizedPSD{}
	perEvent("simsrv.pk_ns_per_event", func() error {
		return sim.ResetPacketized(simsrv.PacketizedConfig{Config: pk}, p.seed)
	})

	gen := must(workload.NewGenerator(workload.DefaultModel(), 0.3, []float64{0.5, 0.5}, rng.New(p.seed)))
	reqs := must(gen.Generate(p.scaled(20000, 2000)))
	rates := must(workload.ClassRates(reqs, 2, reqs[len(reqs)-1].Time))
	trace := make([]simsrv.TraceRequest, len(reqs))
	for i, r := range reqs {
		trace[i] = simsrv.TraceRequest{Time: r.Time, Class: r.Class, Size: r.Size}
	}
	tc := simsrv.Config{
		Classes: []simsrv.ClassConfig{{Delta: 1, Lambda: rates[0]}, {Delta: 2, Lambda: rates[1]}},
		Warmup:  1000, Horizon: reqs[len(reqs)-1].Time - 1000, Seed: p.seed,
	}
	perEvent("simsrv.trace_ns_per_event", func() error { return sim.ResetTrace(tc, trace, p.seed) })
}

func (p *prober) sched() {
	const classes, backlog = 8, 64
	bp := dist.PaperDefault()
	src := rng.New(p.seed)
	weights := make([]float64, classes)
	for i := range weights {
		weights[i] = float64(classes-i) / float64(classes*(classes+1)/2)
	}
	for _, s := range []struct {
		name string
		s    sched.Scheduler
	}{
		{"sched.scfq_op_ns", sched.NewSCFQ(classes)},
		{"sched.hesrpt_op_ns", sched.NewHeSRPT(classes)},
	} {
		q := s.s
		if err := q.SetWeights(weights); err != nil {
			p.failf("%s: %v", s.name, err)
			continue
		}
		for i := 0; i < backlog; i++ {
			q.Enqueue(sched.Job{Class: i % classes, Size: bp.Sample(src)})
		}
		p.time(s.name, 1<<13, func(n int) {
			for i := 0; i < n; i++ {
				j, _ := q.Dequeue()
				j.Size = bp.Sample(src)
				q.Enqueue(j)
			}
		})
	}
	scfq := sched.NewSCFQ(classes)
	p.time("sched.setweights_ns", 1<<12, func(n int) {
		for i := 0; i < n; i++ {
			if err := scfq.SetWeights(weights); err != nil {
				p.failf("sched.setweights_ns: %v", err)
			}
		}
	})
}

var eightDeltas = []float64{1, 2, 3, 4, 5, 6, 7, 8}

func (p *prober) control() {
	nc := len(eightDeltas)
	wl := must(core.WorkloadFromDist(dist.PaperDefault()))
	counts := make([]float64, nc)
	work := make([]float64, nc)
	slows := make([]float64, nc)
	for _, c := range []struct {
		name     string
		est      control.EstimatorKind
		feedback bool
	}{
		{"control.tick_window_ns", control.Window, false},
		{"control.tick_ewma_ns", control.EWMA, false},
		{"control.tick_feedback_ns", control.Window, true},
	} {
		lp := must(control.NewLoop(control.LoopConfig{
			Deltas: eightDeltas, Window: 10, Estimator: c.est, Allocator: core.PSD{}, Workload: wl, Feedback: c.feedback,
		}))
		k := 0
		p.time(c.name, 1<<11, func(n int) {
			for i := 0; i < n; i++ {
				k++
				for j := 0; j < nc; j++ {
					counts[j] = float64(2 + (k*7+j*13)%3) // ~0.7 load over a 10 tu window
					work[j] = counts[j] * wl.MeanSize
					slows[j] = eightDeltas[j] * float64(1+(k+j)%3)
				}
				in := control.TickInput{Counts: counts, Work: work}
				if c.feedback {
					in.MeasuredSlowdowns = slows
				}
				if _, err := lp.Tick(in); err != nil {
					p.failf("%s: %v", c.name, err)
					return
				}
			}
		})
	}
	lp := must(control.NewLoop(control.LoopConfig{Deltas: eightDeltas, Window: 10, Allocator: core.PSD{}, Workload: wl}))
	p.time("control.observe_ns", 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			lp.Observe(i&7, 0.3)
		}
	})
}

func (p *prober) coreAnalytic() {
	bp := dist.PaperDefault()
	wl := must(core.WorkloadFromDist(bp))
	classes := make([]core.Class, len(eightDeltas))
	for i, d := range eightDeltas {
		classes[i] = core.Class{Delta: d, Lambda: 0.7 / wl.MeanSize / float64(len(eightDeltas))}
	}
	var dst core.Allocation
	for name, policy := range map[string]string{
		"core.psd_alloc_ns": "psd", "core.log_alloc_ns": "log",
		"core.ppsd_alloc_ns": "ppsd", "core.downgrade_alloc_ns": "downgrade",
	} {
		al := must(core.Parse(policy))
		p.time(name, 1<<10, func(n int) {
			for i := 0; i < n; i++ {
				if err := core.AllocateInto(al, &dst, classes, wl); err != nil {
					p.failf("%s: %v", name, err)
					return
				}
			}
		})
	}
	p.time("core.parse_ns", 1<<12, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := core.Parse("psd"); err != nil {
				p.failf("core.parse_ns: %v", err)
			}
		}
	})

	// The analytic path at the sweep-analytic mix: 2 and 8 classes.
	cfgs := []simsrv.Config{simsrv.EqualLoadConfig([]float64{1, 2}, 0.6, nil), simsrv.EqualLoadConfig(eightDeltas, 0.6, nil)}
	var ev analytic.Evaluator
	var res analytic.Evaluation
	p.time("analytic.eval_ns", 1<<11, func(n int) {
		for i := 0; i < n; i++ {
			if err := ev.EvaluateInto(&res, cfgs[i&1]); err != nil {
				p.failf("analytic.eval_ns: %v", err)
				return
			}
		}
	})
	p.time("queueing.theorem1_ns", 1<<12, func(n int) {
		for i := 0; i < n; i++ {
			sink += must(queueing.TaskServerSlowdown(1, bp, 0.5))
		}
	})
	points := make([]sweep.Point, 256)
	for i := range points {
		points[i] = sweep.Point{Cfg: cfgs[i&1], Runs: 1, Policy: "psd"}
	}
	eng := sweep.Engine{Kind: sweep.Auto, Workers: p.workers}
	p.time("sweep.route_ns_per_point", len(points), func(int) {
		if _, err := eng.Run(points); err != nil {
			p.failf("sweep.route_ns_per_point: %v", err)
		}
	})
	// The router's own share: a routed point minus its evaluation.
	p.out["sweep.route_ns_per_point"] -= p.out["analytic.eval_ns"]
	p.out["sweep.workers"] = float64(p.poolSize())
}

func (p *prober) statsWorkload() {
	src := rng.New(p.seed)
	var wf stats.Welford
	p.time("stats.welford_add_ns", 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			wf.Add(src.Float64())
		}
	})
	p2 := stats.NewP2(0.5)
	p.time("stats.p2_add_ns", 1<<14, func(n int) {
		for i := 0; i < n; i++ {
			p2.Add(src.Float64())
		}
	})
	sink += wf.Mean() + p2.Value()

	var reqs []workload.Request
	p.time("workload.generate_ns_per_req", 1, func(int) {
		gen := must(workload.NewGenerator(workload.DefaultModel(), 0.3, []float64{0.5, 0.5}, rng.New(p.seed)))
		reqs = must(gen.Generate(p.scaled(4000, 400)))
	})
	p.out["workload.generate_ns_per_req"] /= float64(len(reqs))
	var file bytes.Buffer
	if err := workload.WriteTrace(&file, reqs); err != nil {
		p.failf("workload.WriteTrace: %v", err)
		return
	}
	p.time("workload.readtrace_mb_per_s", 1, func(int) {
		got := must(workload.ReadTrace(bytes.NewReader(file.Bytes())))
		if len(got) != len(reqs) {
			p.failf("workload.ReadTrace returned %d of %d requests", len(got), len(reqs))
		}
	})
	p.out["workload.readtrace_mb_per_s"] = float64(file.Len()) / p.out["workload.readtrace_mb_per_s"] * 1e3

	// A figure shaped like Figure 2: 2 classes × (simulated, expected) + system, 11 loads.
	fig := figures.Figure{ID: 2}
	for s := 0; s < 5; s++ {
		sr := figures.Series{Name: fmt.Sprintf("Class %d (simulated)", s)}
		for _, rho := range figLoads {
			sr.X = append(sr.X, rho*100)
			sr.Y = append(sr.Y, src.Float64()*100)
		}
		fig.Series = append(fig.Series, sr)
	}
	var out bytes.Buffer
	p.time("figures.csv_us", 1<<4, func(n int) {
		for i := 0; i < n; i++ {
			out.Reset()
			if err := figures.WriteCSV(&out, fig); err != nil {
				p.failf("figures.csv_us: %v", err)
			}
		}
	})
	p.out["figures.csv_us"] /= 1e3
}

func (p *prober) obsAdmission() {
	const classes = 4
	reg := obs.NewRegistry()
	counter := reg.Counter("bench_served_total", "")
	hist := reg.Histogram("bench_slowdown", "", -7, 21)
	p.time("obs.counter_inc_ns", 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			counter.Inc()
		}
	})
	p.time("obs.hist_observe_ns", 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(float64(1+i%97) * 0.125)
		}
	})
	rec := must(obs.NewFlightRecorder(classes, 256))
	vec := []float64{1, 2, 4, 8}
	p.time("obs.flightrec_record_ns", 1<<14, func(n int) {
		for i := 0; i < n; i++ {
			rec.Record(float64(i), 0, vec, vec, vec, vec)
		}
	})
	tb := must(admission.NewTokenBucket([]float64{1e6, 1e6, 1e6, 1e6}, 1e6))
	now := 0.0
	p.time("admission.tokenbucket_admit_ns", 1<<16, func(n int) {
		for i := 0; i < n; i++ {
			now += 0.001
			if !tb.Admit(i&3, httpSize, now) {
				p.failf("admission.tokenbucket_admit_ns: a full bucket refused")
				return
			}
		}
	})
	ladder := must(admission.NewLadder(admission.LadderConfig{}, vec))
	p.time("admission.ladder_observe_ns", 1<<14, func(n int) {
		for i := 0; i < n; i++ {
			// Eight overloaded windows, then eight healthy ones: the
			// ladder climbs and unwinds instead of sitting at one end.
			rho := 0.5
			if i&8 != 0 {
				rho = 0.99
			}
			ladder.Observe(rho, false)
		}
	})
}

// memWriter is an http.ResponseWriter that keeps the reply in memory.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) WriteHeader(code int)        { w.code = code }

func (p *prober) frontDoor(adm admission.Controller) *httpsrv.Server {
	return must(httpsrv.New(httpsrv.Config{Deltas: httpDeltas, TimeUnit: time.Microsecond, Window: 2000, Admission: adm, Seed: p.seed}))
}

func (p *prober) httpsrv() {
	p.time("httpsrv.new_ms", 1, func(int) { p.frontDoor(nil).Close() })
	p.out["httpsrv.new_ms"] /= 1e6

	srv := p.frontDoor(nil)
	defer srv.Close()
	ctx := context.Background()
	do := func(n, offset int) {
		for i := 0; i < n; i++ {
			if _, st := srv.Do(ctx, (i+offset)&3, httpSize); st != httpsrv.Served {
				p.failf("httpsrv.Do: %v", st)
				return
			}
		}
	}
	p.time("httpsrv.do_ns", 1<<11, func(n int) { do(n, 0) })
	p.time("httpsrv.do_parallel_ns", 1<<12, func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < p.procs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				do(n/p.procs, g)
			}(g)
		}
		wg.Wait()
	})
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/?class=1&size=%g", httpSize), nil)
	mw := &memWriter{header: http.Header{}}
	p.time("httpsrv.handler_ns", 1<<10, func(n int) {
		for i := 0; i < n; i++ {
			mw.body.Reset()
			mw.code = http.StatusOK
			srv.ServeHTTP(mw, req)
			if mw.code != http.StatusOK {
				p.failf("httpsrv.handler_ns: status %d", mw.code)
				return
			}
		}
	})
	p.time("httpsrv.snapshot_us", 1<<8, func(n int) {
		for i := 0; i < n; i++ {
			sink += srv.Snapshot().UptimeSeconds
		}
	})
	p.out["httpsrv.snapshot_us"] /= 1e3
	p.time("httpsrv.prom_us", 1<<6, func(n int) {
		for i := 0; i < n; i++ {
			if err := srv.Registry().WriteProm(io.Discard); err != nil {
				p.failf("httpsrv.prom_us: %v", err)
			}
		}
	})
	p.out["httpsrv.prom_us"] /= 1e3

	// A bucket whose burst is below one request's size refuses them all.
	rates := []float64{1e-9, 1e-9, 1e-9, 1e-9}
	shut := p.frontDoor(must(admission.NewTokenBucket(rates, httpSize/2)))
	defer shut.Close()
	p.time("httpsrv.reject_ns", 1<<12, func(n int) {
		for i := 0; i < n; i++ {
			if _, st := shut.Do(ctx, i&3, httpSize); st != httpsrv.RejectedByAdmission {
				p.failf("httpsrv.reject_ns: an exhausted bucket answered %v", st)
				return
			}
		}
	})
}

// net measures the stdlib floor under live-http: the same closed-loop
// clients against a handler that only writes a body of the usual length.
func (p *prober) net() {
	body := append(must(json.Marshal(httpsrv.Response{Class: 1, Size: httpSize, DelayMs: 0.001234, ServiceMs: 0.000016, Slowdown: 77.125})), '\n')
	lb, err := listen(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body) // the client checks the length
	}), p.procs)
	if err != nil {
		p.failf("net: %v", err)
		return
	}
	defer lb.close()
	url := fmt.Sprintf("%s/?class=1&size=%g", lb.base, httpSize)
	storm := func(n int) []float64 {
		rtts := make([][]float64, len(lb.clients))
		var wg sync.WaitGroup
		for g, c := range lb.clients {
			wg.Add(1)
			go func(g int, c *http.Client) {
				defer wg.Done()
				var buf []byte
				for i := 0; i < n; i++ {
					t0 := time.Now()
					b, code, err := get(c, url, buf)
					if err != nil || code != http.StatusOK || len(b) != len(body) {
						p.failf("net: loopback reply %d %q: %v", code, b, err)
						return
					}
					buf = b
					rtts[g] = append(rtts[g], float64(time.Since(t0))/1e3)
				}
			}(g, c)
		}
		wg.Wait()
		var all []float64
		for _, r := range rtts {
			all = append(all, r...)
		}
		return all
	}
	s := p.tr.begin("probe:net.loopback", -1)
	storm(int(p.scaled(2000, 20))) // connections and buffers
	c0 := cpuNow()
	rtts := storm(int(p.scaled(10000, 50)))
	cpu := cpuNow() - c0
	p.tr.end(s)
	if len(rtts) > 0 {
		p.out["net.loopback_rtt_us"] = percentile(rtts, 0.5)
		p.out["net.loopback_cpu_us"] = cpu / float64(len(rtts)) / 1e3
	}
}
