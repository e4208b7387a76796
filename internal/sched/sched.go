// Package sched implements the proportional-share scheduling substrate
// that the paper assumes is available on the server ("we assume that the
// processing rate of an Internet server can be proportionally allocated to
// a number of task servers", §2.2, citing GPS, PGPS and Lottery
// scheduling). The PSD rate allocator outputs a weight vector; these
// schedulers realize it on a single serially-shared processor by choosing
// which class's request runs next.
//
// Provided disciplines:
//
//   - SCFQ — self-clocked fair queueing, a practical packet-by-packet
//     approximation of GPS (PGPS family); the packetized simulator's
//     default
//   - HeSRPT — size-aware weighted shortest-job-first, the related-work
//     rival that the policy tournament runs
//
// Both keep their pending jobs in one shared value-typed heap and differ
// only in the priority key they compute at enqueue. Jobs move through the
// schedulers BY VALUE: Enqueue copies the Job into the heap and Dequeue
// copies it back out. No per-job heap allocation ever occurs in steady
// state — the heap grows only while the backlog reaches a new high-water
// mark, and Reset retains that capacity across simulation replications.
// This is what keeps the packetized simulation mode on the same ~zero
// allocs/event budget as the partitioned one.
//
// All schedulers are single-goroutine data structures.
package sched

import "fmt"

// Job is one schedulable request. Jobs are plain values; the scheduler
// stores a copy on Enqueue and returns a copy from Dequeue.
type Job struct {
	// Class indexes the weight vector.
	Class int
	// Size is the job's service demand in work units.
	Size float64
	// Arrival is the caller's arrival timestamp, carried through unread.
	Arrival float64
}

// Scheduler selects the next job to run to completion on the shared
// processor.
type Scheduler interface {
	// SetWeights installs the normalized per-class weights (from the rate
	// allocator). Implementations must accept any positive vector.
	SetWeights(w []float64) error
	// Enqueue adds a job (copied by value).
	Enqueue(j Job)
	// Dequeue removes and returns the next job to serve; ok is false when
	// the scheduler is idle.
	Dequeue() (j Job, ok bool)
}

var (
	_ Scheduler = (*SCFQ)(nil)
	_ Scheduler = (*HeSRPT)(nil)
)

// queue is the pending set both disciplines embed: the per-class weights
// plus a value-typed 4-ary implicit min-heap of (key, seq, Job) entries.
// The heap is ordered by the strict total order (key, seq) — seq is a
// monotone enqueue counter, so no two entries compare equal, equal keys
// dispatch FIFO, and the dequeue sequence is independent of heap
// internals. Job is pointer-free, so entries carry it inline and steady
// state allocates nothing.
type queue struct {
	weights []float64
	heap    []entry
	seq     uint64
}

type entry struct {
	key float64
	seq uint64
	job Job
}

func less(a, b *entry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func newQueue(classes int) queue {
	q := queue{weights: make([]float64, classes)}
	q.Reset()
	return q
}

// SetWeights implements Scheduler. Weights only affect jobs enqueued
// after the call: a queued job's key was fixed at enqueue.
func (q *queue) SetWeights(w []float64) error {
	if len(w) != len(q.weights) {
		return fmt.Errorf("sched: got %d weights for %d classes", len(w), len(q.weights))
	}
	for i, x := range w {
		if !(x > 0) {
			return fmt.Errorf("sched: weight[%d] = %v must be positive", i, x)
		}
	}
	copy(q.weights, w)
	return nil
}

// Reset restores the freshly constructed state — empty queue, equal
// weights — while retaining the heap's capacity, so a simulation arena
// reuses one scheduler across replications without allocating.
func (q *queue) Reset() {
	for i := range q.weights {
		q.weights[i] = 1 / float64(len(q.weights))
	}
	q.heap = q.heap[:0]
	q.seq = 0
}

func (q *queue) push(key float64, j Job) {
	q.heap = append(q.heap, entry{key: key, seq: q.seq, job: j})
	q.seq++
	h := q.heap
	i := len(h) - 1
	e := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !less(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// pop removes the minimum entry; ok is false when the queue is empty.
func (q *queue) pop() (root entry, ok bool) {
	n := len(q.heap) - 1
	if n < 0 {
		return entry{}, false
	}
	h := q.heap
	root, e := h[0], h[n]
	q.heap, h = h[:n], h[:n]
	if n == 0 {
		return root, true
	}
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if less(&h[c], &h[best]) {
				best = c
			}
		}
		if !less(&h[best], &e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
	return root, true
}

// SCFQ is self-clocked fair queueing (Golestani): each arriving job gets a
// finish tag F = max(V, F_prev(class)) + size/w(class), where the virtual
// time V is the finish tag of the job most recently dispatched. Jobs are
// served in increasing tag order, approximating GPS within one maximum job
// per class.
type SCFQ struct {
	queue
	lastTag []float64 // per-class last finish tag
	vtime   float64
}

// NewSCFQ builds an SCFQ scheduler for the given class count with equal
// initial weights.
func NewSCFQ(classes int) *SCFQ {
	return &SCFQ{queue: newQueue(classes), lastTag: make([]float64, classes)}
}

// Reset restores the freshly constructed state, including the virtual
// clock, while retaining the heap's capacity.
func (s *SCFQ) Reset() {
	s.queue.Reset()
	s.idle()
}

// idle clears the virtual-time bookkeeping so stale tags do not penalize
// the next busy period.
func (s *SCFQ) idle() {
	s.vtime = 0
	clear(s.lastTag)
}

// Enqueue implements Scheduler.
func (s *SCFQ) Enqueue(j Job) {
	tag := max(s.vtime, s.lastTag[j.Class]) + j.Size/s.weights[j.Class]
	s.lastTag[j.Class] = tag
	s.push(tag, j)
}

// Dequeue implements Scheduler.
func (s *SCFQ) Dequeue() (Job, bool) {
	e, ok := s.pop()
	if !ok {
		s.idle()
		return Job{}, false
	}
	s.vtime = e.key
	return e.job, true
}
