package simsrv

import "psd/internal/des"

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
	idx     int32 // own index, the evCompletion payload
	queue   reqQueue
	current request
	busy    bool

	rate       float64 // nominal allocated rate
	effRate    float64 // effective rate (= rate unless work-conserving)
	remaining  float64 // unfinished work of current
	lastSync   float64 // sim time when remaining was last updated
	completion des.EventID
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

func (m *taskServers) reset(r *runner) {
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
		*ts = taskServer{idx: int32(i), queue: ts.queue}
	}
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
// ensure the server is idle (so no completion is pending) and the queue
// non-empty.
func (m *taskServers) startService(ts *taskServer) {
	now := m.r.sim.Now()
	ts.current = ts.queue.pop()
	ts.current.serviceStart = now
	ts.busy = true
	ts.remaining = ts.current.size
	ts.lastSync = now
	if ts.effRate > 0 { // else starved, see scheduleCompletion
		ts.completion = m.r.sim.Schedule(ts.remaining/ts.effRate, m.r, evCompletion, ts.idx)
	}
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

// scheduleCompletion (re)schedules the in-service request's completion
// from the current remaining work and effective rate.
func (m *taskServers) scheduleCompletion(ts *taskServer) {
	if ts.completion != des.None {
		m.r.sim.Cancel(ts.completion)
		ts.completion = des.None
	}
	if !ts.busy {
		return
	}
	if ts.effRate <= 0 {
		// Starved: no completion until a rate change revives the class.
		return
	}
	ts.completion = m.r.sim.Schedule(ts.remaining/ts.effRate, m.r, evCompletion, ts.idx)
}

func (m *taskServers) complete(class int32) {
	ts := &m.servers[class]
	ts.completion = des.None
	req := ts.current
	ts.busy = false
	ts.remaining = 0
	m.r.served(int(class), req.size, req.arrival, req.serviceStart, m.r.sim.Now()-req.serviceStart)
	if ts.queue.len() > 0 {
		m.startService(ts)
	} else if m.r.cfg.WorkConserving {
		m.recomputeEffectiveRates()
	}
}

// setRates installs a new nominal rate vector, flooring backlogged
// classes at MinRate so no in-flight request is stranded, and reschedules
// all in-flight completions.
func (m *taskServers) setRates(rates []float64) error {
	for i := range m.servers {
		ts := &m.servers[i]
		m.syncRemaining(ts)
		rate := rates[i]
		if rate < m.r.cfg.MinRate && (ts.busy || ts.queue.len() > 0) {
			rate = m.r.cfg.MinRate
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
// and reschedules completions. In partitioned mode eff = nominal. In
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
		m.scheduleCompletion(ts)
	}
}
