package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/httpsrv"
	"psd/internal/rng"
)

// ------------------------------------------------------------- live-http

// httpSize is exactly representable (2⁻⁶) and, at 1 µs per time unit,
// paces for ~16 ns: the request measures the adapter and the front door,
// not the service.
const httpSize = 0.015625

// loopback is a closed-loop HTTP client set: one keep-alive connection
// and one goroutine per client, each waiting for its reply before it
// sends again. Traffic crosses the host's loopback interface, not a link.
type loopback struct {
	ln      net.Listener
	hs      *http.Server
	served  chan error
	clients []*http.Client
	base    string
}

func listen(h http.Handler, clients int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{ln: ln, hs: &http.Server{Handler: h}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { lb.served <- lb.hs.Serve(ln) }()
	for i := 0; i < clients; i++ {
		lb.clients = append(lb.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return lb, nil
}

func (lb *loopback) close() {
	for _, c := range lb.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := lb.hs.Shutdown(ctx); err != nil {
		lb.hs.Close()
	}
	<-lb.served
}

// get issues one request and returns its body.
func get(c *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body = body[:0]
	var chunk [512]byte
	for {
		n, err := resp.Body.Read(chunk[:])
		body = append(body, chunk[:n]...)
		if err == io.EOF {
			return body, resp.StatusCode, nil
		}
		if err != nil {
			return nil, resp.StatusCode, err
		}
	}
}

// liveHTTP is socket → net/http → Server.Do → response with pacing ≈ 0:
// the JSON/HTTP adapter and the front door.
type liveHTTP struct {
	env
	srv     *httpsrv.Server
	lb      *loopback
	urls    []string
	classes [][]uint8 // per client, the class of each request of a round
}

var httpDeltas = []float64{1, 2, 4, 8}

func (w *liveHTTP) setup() error {
	srv, err := httpsrv.New(httpsrv.Config{Deltas: httpDeltas, TimeUnit: time.Microsecond, Window: 2000, Seed: w.seed})
	if err != nil {
		return fmt.Errorf("live-http: %w", err)
	}
	w.srv = srv
	if w.lb, err = listen(srv.Mux(), w.procs); err != nil {
		srv.Close()
		return fmt.Errorf("live-http: %w", err)
	}
	w.urls = w.urls[:0]
	for c := range httpDeltas {
		w.urls = append(w.urls, fmt.Sprintf("%s/?class=%d&size=%g", w.lb.base, c, httpSize))
	}
	perClient := int(w.scaled(20000, 100)) / w.procs
	src := rng.New(w.seed)
	w.classes = make([][]uint8, w.procs)
	for g := range w.classes {
		w.classes[g] = make([]uint8, perClient)
		for i := range w.classes[g] {
			w.classes[g][i] = uint8(src.Intn(len(httpDeltas)))
		}
	}
	// Warm-up: connections, the job pool, the worker goroutines and the
	// metric catalog, so that no one-time cost lands in the first round.
	warm := newMeasurement()
	if _, err := w.storm(warm, nil, -1, int(w.scaled(8000, 50))/w.procs); err != nil {
		w.teardown()
		return err
	}
	if warm.failed > 0 {
		w.teardown()
		return fmt.Errorf("live-http warm-up: %s", warm.problems[0])
	}
	return nil
}

func (w *liveHTTP) teardown() {
	w.lb.close()
	w.srv.Close()
}

// storm has every client send its first n requests of the round, closed
// loop, and checks every reply.
func (w *liveHTTP) storm(m *measurement, tr *tracer, parent, n int) (float64, error) {
	type tally struct {
		lat, ovh []float64
		failed   int64
		problem  string
		err      error
	}
	tallies := make([]tally, len(w.lb.clients))
	var wg sync.WaitGroup
	for g, c := range w.lb.clients {
		wg.Add(1)
		go func(g int, c *http.Client) {
			defer wg.Done()
			t := &tallies[g]
			t.lat = make([]float64, 0, n)
			t.ovh = make([]float64, 0, n)
			var body []byte
			var reply httpsrv.Response
			for i := 0; i < n; i++ {
				class := int(w.classes[g][i])
				s := tr.begin("http.request", parent)
				t0 := time.Now()
				b, code, err := get(c, w.urls[class], body)
				rtt := float64(time.Since(t0)) / 1e3
				tr.end(s)
				if err != nil {
					t.err = fmt.Errorf("live-http client %d request %d: %w", g, i, err)
					return
				}
				body = b
				reply = httpsrv.Response{Class: -1}
				switch {
				case code != http.StatusOK:
					t.failed++
					t.problem = fmt.Sprintf("status %d for class %d", code, class)
				case json.Unmarshal(body, &reply) != nil || reply.Class != class || reply.Size != httpSize:
					t.failed++
					t.problem = fmt.Sprintf("sent class %d size %g, reply echoed %q", class, httpSize, body)
				}
				t.lat = append(t.lat, rtt)
				t.ovh = append(t.ovh, rtt-(reply.DelayMs+reply.ServiceMs)*1e3)
			}
		}(g, c)
	}
	wg.Wait()
	for _, t := range tallies {
		if t.err != nil {
			return 0, t.err
		}
		m.attempted += int64(len(t.lat))
		if t.failed > 0 {
			m.fail(t.failed, "%s", t.problem)
		}
		m.latUs = append(m.latUs, t.lat...)
		m.ovhUs = append(m.ovhUs, t.ovh...)
	}
	return float64(n * len(w.lb.clients)), nil
}

func (w *liveHTTP) measure(tr *tracer) (*measurement, error) {
	m := newMeasurement()
	ticks0 := w.srv.Snapshot().Reallocations
	err := w.runRounds(m, tr, func(_, parent int) (float64, error) {
		return w.storm(m, tr, parent, len(w.classes[0]))
	})
	if err != nil {
		return nil, err
	}
	m.layer["control.ticks"] = float64(w.srv.Snapshot().Reallocations - ticks0)
	m.layer["httpsrv.inflight_max"] = float64(w.procs)
	m.counts["reqs"] = m.rounds[0].ops
	return m, nil
}

// ------------------------------------------------------------ live-paced

// pacedCap bounds the requests in flight: one parked goroutine each.
// A request that finds none free counts as failed.
const pacedCap = 1024

// pacedLoad is the offered utilisation; with the paper's BP(0.1,100,1.5)
// sizes and 1 ms per time unit that is about 2 070 requests per second.
const pacedLoad = 0.6

var pacedDeltas = []float64{1, 2}

// pacedReq is one scheduled request and, once played, what happened to
// it. Each slot is written by the dispatcher before the hand-off and by
// exactly one serving goroutine after it.
type pacedReq struct {
	dueNs int64 // offset from the start of the schedule
	class int
	size  float64

	due     time.Time
	span    int
	played  bool
	lagNs   int64 // handed off this long after it was due
	totalNs int64 // due → Do returned
	doNs    int64 // Do called → Do returned
	modelNs int64 // server-reported Delay + Service
	service time.Duration
	slow    float64
	status  httpsrv.Status
}

// livePaced drives real paced service — timer sleeps, the pacing spin,
// real queueing and reallocation ticks — open loop: independent users do
// not wait for each other. It calls Server.Do in-process, so a queued
// request parks a goroutine, not a connection.
type livePaced struct {
	env
	srv      *httpsrv.Server
	schedule []pacedReq
	warm     int       // leading requests of the schedule played as warm-up
	rates    []float64 // Eq. 17's allocation at the offered load
	work     chan *pacedReq
	servers  sync.WaitGroup // the parked goroutines
	pending  sync.WaitGroup // requests handed off and not yet returned
	inflight atomic.Int64
	peak     int64 // most in flight at once; only the dispatcher writes it
	tr       *tracer
}

func (w *livePaced) setup() error {
	// The rate that offers pacedLoad, and what Eq. 17 allocates at it.
	svc := dist.PaperDefault()
	perMs := pacedLoad / svc.Mean()
	wl, err := core.WorkloadFromDist(svc)
	if err != nil {
		return fmt.Errorf("live-paced: %w", err)
	}
	classes := make([]core.Class, len(pacedDeltas))
	for i, d := range pacedDeltas {
		classes[i] = core.Class{Delta: d, Lambda: perMs / float64(len(pacedDeltas))}
	}
	alloc, err := core.PSD{}.Allocate(classes, wl)
	if err != nil {
		return fmt.Errorf("live-paced: %w", err)
	}
	w.rates = alloc.Rates
	w.srv, err = httpsrv.New(httpsrv.Config{Deltas: pacedDeltas, Service: svc, TimeUnit: time.Millisecond, Window: 100, Seed: w.seed})
	if err != nil {
		return fmt.Errorf("live-paced: %w", err)
	}
	// A Poisson schedule: exponential gaps, classes equally likely, sizes
	// from the paper's law.
	src := rng.New(w.seed)
	warmNs := int64(w.scaled(300, 20) * 1e6)
	endNs := warmNs + int64(w.seconds*1e9)
	w.schedule, w.warm = w.schedule[:0], 0
	for t := 0.0; ; {
		t += src.ExpFloat64(perMs) * 1e6
		if int64(t) >= endNs {
			break
		}
		if int64(t) < warmNs {
			w.warm++
		}
		w.schedule = append(w.schedule, pacedReq{dueNs: int64(t), class: src.Intn(len(pacedDeltas)), size: svc.Sample(src)})
	}
	// At most pacedCap requests are in flight, so this buffer never fills
	// and the dispatcher never waits for a goroutine to get back to it.
	w.work = make(chan *pacedReq, pacedCap)
	for i := 0; i < pacedCap; i++ {
		w.servers.Add(1)
		go w.serve()
	}
	w.play(w.schedule[:w.warm], -1, 0)
	for i := range w.schedule[:w.warm] {
		if r := &w.schedule[i]; !r.played || r.status != httpsrv.Served {
			w.teardown()
			return fmt.Errorf("live-paced warm-up: request %d of %d not served (%v)", i, w.warm, r.status)
		}
	}
	return nil
}

func (w *livePaced) teardown() {
	close(w.work)
	w.servers.Wait()
	w.srv.Close()
}

// serve is one parked goroutine: it carries one request at a time
// through Do and writes the outcome into the request's own slot.
func (w *livePaced) serve() {
	defer w.servers.Done()
	for r := range w.work {
		t0 := time.Now()
		out, st := w.srv.Do(context.Background(), r.class, r.size)
		r.doNs = int64(time.Since(t0))
		r.totalNs = int64(time.Since(r.due))
		w.tr.end(r.span)
		r.modelNs = int64(out.Delay + out.Service)
		r.service = out.Service
		r.slow = out.Slowdown
		r.status = st
		w.inflight.Add(-1)
		w.pending.Done()
	}
}

// play replays reqs against the wall clock from one dispatcher goroutine
// and returns once every request it handed off has come back. With a
// tracer, odd blocks of blockSize requests are traced.
func (w *livePaced) play(reqs []pacedReq, parent, blockSize int) {
	if len(reqs) == 0 {
		return
	}
	t0 := time.Now().Add(-time.Duration(reqs[0].dueNs))
	for i := range reqs {
		r := &reqs[i]
		if blockSize > 0 && i%blockSize == 0 {
			w.tr.enable(i/blockSize%2 == 1)
		}
		// Time the request from when it was due, so that a late
		// generator shows as latency and not as lighter load.
		r.due = t0.Add(time.Duration(r.dueNs))
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		r.lagNs = int64(time.Since(r.due))
		if w.inflight.Load() >= pacedCap {
			continue // overflow: played stays false and the request counts as failed
		}
		r.played = true
		r.span = w.tr.begin("Server.Do", parent)
		w.pending.Add(1)
		if n := w.inflight.Add(1); n > w.peak {
			w.peak = n
		}
		w.work <- r
	}
	w.pending.Wait()
}

func (w *livePaced) measure(tr *tracer) (*measurement, error) {
	m := newMeasurement()
	w.tr = tr
	reqs := w.schedule[w.warm:]
	blockSize := int(w.scaled(2000, 20))
	if blockSize > len(reqs)/2 {
		blockSize = len(reqs) / 2
	}
	if blockSize == 0 {
		return nil, fmt.Errorf("live-paced: %d requests scheduled in %g s, too few to measure", len(reqs), w.seconds)
	}

	ticks0 := w.srv.Snapshot().Reallocations
	tr.enable(true)
	root := tr.begin("play", -1)
	c0 := cpuNow()
	w.peak = 0
	w.play(reqs, root, blockSize)
	cpu := cpuNow() - c0
	tr.end(root)

	var lag, sojourn, doAdds []float64
	var serviceNs, modelledNs float64
	slow := make([]float64, len(pacedDeltas))
	served := make([]float64, len(pacedDeltas))
	for i := range reqs {
		r := &reqs[i]
		m.attempted++
		lag = append(lag, float64(r.lagNs)/1e3)
		if !r.played || r.status != httpsrv.Served {
			m.fail(1, "request %d: played=%v status=%v (at most %d in flight)", i, r.played, r.status, pacedCap)
			continue
		}
		// The full sojourn is set by the job sizes the seed drew (its p90
		// moves by 77 % between seeds), not by the program. What the
		// generator and the program add to the modelled Delay+Service,
		// timed from when the request was due, is steady. It is already
		// net of the model, so overhead is the same number. The few
		// microseconds Do itself adds move by 40 % with the state of the
		// box: a layer metric, not a gate.
		excess := float64(r.totalNs-r.modelNs) / 1e3
		m.latUs = append(m.latUs, excess)
		m.ovhUs = append(m.ovhUs, excess)
		doAdds = append(doAdds, float64(r.doNs-r.modelNs)/1e3)
		sojourn = append(sojourn, float64(r.totalNs)/1e3)
		serviceNs += float64(r.service)
		modelledNs += r.size * float64(time.Millisecond) / w.rates[r.class]
		slow[r.class] += r.slow
		served[r.class]++
	}
	// A block is a run of consecutive scheduled requests: its wall time
	// is first due → last return, its cost per operation the mean time
	// the system added.
	for b := 0; (b+1)*blockSize <= len(reqs); b++ {
		block := reqs[b*blockSize : (b+1)*blockSize]
		var end time.Time
		var ovh, ok float64
		for i := range block {
			r := &block[i]
			if !r.played || r.status != httpsrv.Served {
				continue
			}
			if t := r.due.Add(time.Duration(r.totalNs)); t.After(end) {
				end = t
			}
			ovh += float64(r.doNs - r.modelNs)
			ok++
		}
		if ok == 0 {
			continue
		}
		m.rounds = append(m.rounds, round{
			wallNs: float64(end.Sub(block[0].due)),
			cpuNs:  cpu * float64(len(block)) / float64(len(reqs)),
			ops:    ok,
			opNs:   ovh / ok,
			traced: tr != nil && b%2 == 1,
		})
	}
	if len(m.rounds) == 0 {
		return nil, errors.New("live-paced: no request was served")
	}
	m.layer["control.ticks"] = float64(w.srv.Snapshot().Reallocations - ticks0)
	m.layer["httpsrv.cpu_per_paced_s"] = cpu / serviceNs
	m.layer["httpsrv.pace_inflation"] = serviceNs / modelledNs
	m.layer["httpsrv.ratio_err"] = math.Abs(slow[1]/served[1]/(slow[0]/served[0])/(pacedDeltas[1]/pacedDeltas[0]) - 1)
	m.layer["httpsrv.inflight_max"] = float64(w.peak)
	m.layer["httpsrv.sojourn_p50_us"] = percentile(sojourn, 0.5)
	m.layer["httpsrv.do_overhead_p50_us"] = percentile(doAdds, 0.5)
	m.layer["httpsrv.do_overhead_p90_us"] = percentile(doAdds, 0.9)
	m.layer["bench.gen_lag_p50_us"] = percentile(lag, 0.5)
	m.layer["bench.gen_lag_p90_us"] = percentile(lag, 0.9)
	m.counts["reqs"] = float64(blockSize)
	return m, nil
}
