package simsrv

import "math"

// request is a job waiting at or occupying a task server. Requests are
// plain values: they live in the per-class ring queues and never touch
// the GC heap.
type request struct {
	size         float64
	arrival      float64
	serviceStart float64
}

// reqQueue is a growable power-of-two ring buffer of request values.
// Steady-state push/pop never allocates; the buffer only grows while a
// queue reaches a new high-water mark, and the capacity is retained
// across replication resets.
type reqQueue struct {
	buf  []request
	head int
	n    int
}

func (q *reqQueue) len() int { return q.n }

func (q *reqQueue) reset() {
	q.head = 0
	q.n = 0
}

func (q *reqQueue) push(r request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

func (q *reqQueue) pop() request {
	r := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

func (q *reqQueue) grow() {
	newCap := 8
	if len(q.buf) > 0 {
		newCap = len(q.buf) * 2
	}
	nb := make([]request, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

// taskServer is one class's FCFS queue and paced server.
type taskServer struct {
	role    int // its completion's role in the runner's event set
	queue   reqQueue
	current request
	busy    bool

	rate      float64 // nominal allocated rate
	effRate   float64 // effective rate (= rate unless work-conserving)
	remaining float64 // unfinished work of current
	lastSync  float64 // sim time when remaining was last updated
}

// taskServers is the paper's service model (§2.2): the capacity is
// partitioned among one task server per class, each draining its own
// queue at its allocated rate — strictly, or with idle capacity
// redistributed GPS-style under Config.WorkConserving. The queue rings
// are retained across resets.
type taskServers struct {
	r       *runner
	servers []taskServer
}

func (m *taskServers) reset(r *runner) int {
	m.r = r
	nc := len(r.classes)
	if cap(m.servers) < nc {
		old := m.servers
		m.servers = make([]taskServer, nc)
		copy(m.servers, old) // keep the retained queue buffers
	} else {
		m.servers = m.servers[:nc]
	}
	for i := range m.servers {
		ts := &m.servers[i]
		ts.queue.reset()
		*ts = taskServer{role: r.compBase + i, queue: ts.queue}
	}
	return nc
}

func (m *taskServers) accept(class int, size, now float64) {
	ts := &m.servers[class]
	ts.queue.push(request{size: size, arrival: now})
	if !ts.busy {
		m.startService(ts)
		if m.r.cfg.WorkConserving {
			m.recomputeEffectiveRates()
		}
	}
}

// startService moves the head-of-line request into service. Callers must
// ensure the server is idle and the queue non-empty.
func (m *taskServers) startService(ts *taskServer) {
	now := m.r.sim.Now()
	ts.current = ts.queue.pop()
	ts.current.serviceStart = now
	ts.busy = true
	ts.remaining = ts.current.size
	ts.lastSync = now
	m.armCompletion(ts)
}

// syncRemaining folds elapsed service into the remaining-work counter.
func (m *taskServers) syncRemaining(ts *taskServer) {
	if !ts.busy {
		return
	}
	now := m.r.sim.Now()
	elapsed := now - ts.lastSync
	if elapsed > 0 && ts.effRate > 0 {
		ts.remaining -= elapsed * ts.effRate
		if ts.remaining < 0 {
			ts.remaining = 0
		}
	}
	ts.lastSync = now
}

// armCompletion re-arms the in-service request's completion from the
// current remaining work and effective rate. An idle server has none, and
// neither has a starved one until a rate change revives the class.
func (m *taskServers) armCompletion(ts *taskServer) {
	if ts.busy && ts.effRate > 0 {
		m.r.sim.SetAfter(ts.role, ts.remaining/ts.effRate)
	} else {
		m.r.sim.Clear(ts.role)
	}
}

func (m *taskServers) complete(class int) {
	ts := &m.servers[class]
	req := ts.current
	ts.busy = false
	ts.remaining = 0
	now := m.r.sim.Now()
	m.r.served(now, class, req.size, req.arrival, req.serviceStart, now-req.serviceStart)
	if ts.queue.len() > 0 {
		m.startService(ts)
	} else if m.r.cfg.WorkConserving {
		m.recomputeEffectiveRates()
	}
}

// setRates installs a new nominal rate vector, flooring backlogged
// classes at ServiceFloor so no in-flight request is stranded, and re-arms all
// in-flight completions.
func (m *taskServers) setRates(rates []float64) error {
	for i := range m.servers {
		ts := &m.servers[i]
		m.syncRemaining(ts)
		rate := rates[i]
		if rate < m.r.cfg.ServiceFloor && (ts.busy || ts.queue.len() > 0) {
			rate = m.r.cfg.ServiceFloor
		}
		ts.rate = rate
	}
	m.recomputeEffectiveRates()
	return nil
}

func (m *taskServers) finalRates(dst []float64) {
	for i := range m.servers {
		dst[i] = m.servers[i].rate
	}
}

// recomputeEffectiveRates refreshes every server's effective service rate
// and re-arms completions. In partitioned mode eff = nominal. In
// work-conserving mode the whole capacity is redistributed GPS-style among
// busy classes in proportion to their nominal rates.
func (m *taskServers) recomputeEffectiveRates() {
	busyRate := 0.0
	numBusy := 0
	if m.r.cfg.WorkConserving {
		for i := range m.servers {
			if ts := &m.servers[i]; ts.busy {
				busyRate += ts.rate
				numBusy++
			}
		}
	}
	for i := range m.servers {
		ts := &m.servers[i]
		m.syncRemaining(ts)
		switch {
		case !ts.busy || !m.r.cfg.WorkConserving:
			ts.effRate = ts.rate
		case busyRate > 0:
			ts.effRate = ts.rate / busyRate
		default:
			ts.effRate = 1 / float64(numBusy)
		}
		m.armCompletion(ts)
	}
}

// stepClass advances class i alone through its arrivals and completions
// strictly before bound, the next control boundary, and returns how many
// of those model events it handled (see runner.runByClass). Until bound
// the class's rate is fixed, so its task server is a plain FCFS queue and
// each job's completion is known when it starts (Lindley's recursion):
// start = max(arrival, free), completion = start + size/effRate, the very
// float expression SetAfter would arm. A job that completes before bound
// is served on the spot and never touches the event set or the queue. The
// first one that does not, or that finds the rate at 0, is left in
// service exactly as startService leaves it, and later arrivals queue
// behind it. A backlog carried over the last boundary drains first, the
// same way. Per-class FCFS completes jobs in arrival order, so the
// statistics see them in the scan's order.
//
// Between buffer refills the arrival loop calls nothing on its common
// path (only queueing an arrival behind a job that crosses the boundary
// calls push): gaps and sizes come from the class's draw-ahead buffers,
// and the completions and arrivals add into locals — a copy of the class's accumulators, through
// the classAcc.record that served uses, and the loop's open-window count
// and work, as Loop.Observe would build them — written back once at the
// end. Nothing else reads them before the boundary.
//
// At the end the class's two roles are written back as the scan would
// leave them: a role re-armed in this window gets a fresh sequence number
// (so a tie with the boundary breaks as in the scan), in the order the
// scan armed them — the completion when its job started, the arrival at
// the last arrival — and a role left alone keeps its own. (When those two
// instants coincide the scan's order depends on an earlier tie; by the
// recursion above no result depends on it.)
func (m *taskServers) stepClass(i int, bound float64) (events uint64) {
	r := m.r
	ts := &m.servers[i]
	ta, tc := r.sim.At(i), r.sim.At(ts.role) // tc is +Inf unless a job is in service at a positive rate
	if ta >= bound && tc >= bound {
		return 0
	}
	cs := &r.classes[i]
	rate, warmup := ts.effRate, r.cfg.Warmup
	acc := cs.acc
	seen, work := r.loop.OpenWindow(i)
	free := math.Inf(-1) // when the jobs served on the spot release the server
	armedC := false      // whether the completion role was re-armed or disarmed
	startC := 0.0        // when the in-service job started, if armedC and busy
	for tc < bound {     // the backlog carried over the last boundary
		events++
		req := &ts.current
		delay, service := req.serviceStart-req.arrival, tc-req.serviceStart
		acc.record(slowdownOf(delay, service), delay, service, tc >= warmup)
		armedC = true
		if ts.queue.len() == 0 {
			ts.busy, ts.remaining = false, 0
			free, tc = tc, math.Inf(1)
			break
		}
		ts.current = ts.queue.pop()
		ts.current.serviceStart, ts.remaining, ts.lastSync = tc, ts.current.size, tc
		startC = tc
		if rate > 0 {
			tc += ts.current.size / rate
		} else {
			tc = math.Inf(1)
		}
	}
	lastA := -1.0 // the last arrival's time; arrivals are never negative
	for ta < bound {
		events++
		size := cs.nextSize()
		seen++
		work += size
		if ts.busy {
			ts.queue.push(request{size: size, arrival: ta})
		} else {
			start, done := max(ta, free), math.Inf(1)
			if rate > 0 {
				done = start + size/rate
			}
			if done < bound {
				events++
				delay, service := start-ta, done-start
				acc.record(slowdownOf(delay, service), delay, service, done >= warmup)
				free = done
			} else {
				ts.current = request{size: size, arrival: ta, serviceStart: start}
				ts.busy, ts.remaining, ts.lastSync = true, size, start
				tc, armedC, startC = done, true, start
			}
		}
		lastA = ta
		if cs.curLambda > 0 {
			ta += cs.nextGap()
		} else {
			ta = math.Inf(1)
		}
	}
	cs.acc = acc
	r.loop.SetOpenWindow(i, seen, work)
	completionLast := armedC && startC > lastA
	if armedC && !completionLast {
		m.writeCompletion(ts, tc)
	}
	if lastA >= 0 {
		if cs.curLambda > 0 {
			r.sim.Set(i, ta)
		} else {
			r.sim.Clear(i)
		}
	}
	if completionLast {
		m.writeCompletion(ts, tc)
	}
	return events
}

// writeCompletion arms ts's completion role at t as armCompletion would
// have when the in-service job started, or disarms it.
func (m *taskServers) writeCompletion(ts *taskServer, t float64) {
	if ts.busy && ts.effRate > 0 {
		m.r.sim.Set(ts.role, t)
	} else {
		m.r.sim.Clear(ts.role)
	}
}
