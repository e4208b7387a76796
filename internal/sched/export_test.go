package sched

// Backlog returns the number of queued jobs.
func (q *queue) Backlog() int { return len(q.heap) }
