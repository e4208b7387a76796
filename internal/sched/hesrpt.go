package sched

// HeSRPT is the size-aware rival discipline from the related work (Berg,
// Vesilo & Harchol-Balter, "heSRPT: Parallel Scheduling to Minimize Mean
// Slowdown"): scheduling that exploits known job sizes to minimize mean
// slowdown, the frontier PSD deliberately trades away for ratio
// guarantees. On this repo's run-to-completion packetized server the
// policy reduces to weighted shortest-job-first: every dequeue serves
// the job with the smallest weighted remaining size Size/w(class) —
// since service is non-preemptive, remaining size IS the full size at
// every dispatch instant. With equal weights this is exact SRPT at
// dispatch instants (pure shortest-job-first); the allocator-supplied
// weights tilt priority toward high-entitlement (low-δ) classes, the
// heSRPT-style per-class scaling.
//
// Use NewHeSRPT; the scheduler reads every job's Size, so it only makes
// sense where sizes are known at enqueue (the packetized simulator).
type HeSRPT struct {
	queue
}

// NewHeSRPT builds the scheduler with equal initial weights (pure
// shortest-job-first until SetWeights installs the allocator's vector).
func NewHeSRPT(classes int) *HeSRPT {
	return &HeSRPT{newQueue(classes)}
}

// Enqueue implements Scheduler.
func (h *HeSRPT) Enqueue(j Job) {
	h.push(j.Size/h.weights[j.Class], j)
}

// Dequeue implements Scheduler.
func (h *HeSRPT) Dequeue() (Job, bool) {
	e, ok := h.pop()
	return e.job, ok
}
