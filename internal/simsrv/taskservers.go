package simsrv

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
	m.r.served(class, req.size, req.arrival, req.serviceStart, m.r.sim.Now()-req.serviceStart)
	if ts.queue.len() > 0 {
		m.startService(ts)
	} else if m.r.cfg.WorkConserving {
		m.recomputeEffectiveRates()
	}
}

// setRates installs a new nominal rate vector, flooring backlogged
// classes at MinRate so no in-flight request is stranded, and re-arms all
// in-flight completions.
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
