package sched

import (
	"fmt"
	"math"
	"sort"
)

// gpsFinishTimes simulates ideal fluid generalized processor sharing
// (Parekh & Gallager) of the given jobs on a unit-capacity server with the
// given per-class weights and returns each job's fluid completion time (in
// input order). Within a class, service is FIFO (the head job receives the
// class's whole fluid share, matching the per-class FCFS task-server
// model). It is the conformance oracle TestSCFQTracksGPS holds SCFQ to:
// PGPS completes every job no later than GPS plus one maximum job size,
// and SCFQ within a small number of maximum jobs.
func gpsFinishTimes(jobs []Job, weights []float64) ([]float64, error) {
	for i, j := range jobs {
		if j.Class < 0 || j.Class >= len(weights) {
			return nil, fmt.Errorf("sched: job %d class %d out of range", i, j.Class)
		}
		if !(j.Size > 0) {
			return nil, fmt.Errorf("sched: job %d size %v must be positive", i, j.Size)
		}
		if j.Arrival < 0 || math.IsNaN(j.Arrival) {
			return nil, fmt.Errorf("sched: job %d arrival %v invalid", i, j.Arrival)
		}
	}
	for c, w := range weights {
		if !(w > 0) {
			return nil, fmt.Errorf("sched: weight[%d] = %v must be positive", c, w)
		}
	}

	// Index jobs by arrival order per class.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Arrival < jobs[order[b]].Arrival })

	type jobState struct {
		idx       int
		remaining float64
	}
	queues := make([][]jobState, len(weights))
	finish := make([]float64, len(jobs))
	now := 0.0
	next := 0 // next arrival in order

	for {
		// Determine the backlogged weight.
		activeW := 0.0
		for c := range queues {
			if len(queues[c]) > 0 {
				activeW += weights[c]
			}
		}
		// Next arrival time, if any.
		arrT := math.Inf(1)
		if next < len(order) {
			arrT = jobs[order[next]].Arrival
		}
		if activeW == 0 {
			if math.IsInf(arrT, 1) {
				break
			}
			now = arrT
			j := order[next]
			queues[jobs[j].Class] = append(queues[jobs[j].Class], jobState{idx: j, remaining: jobs[j].Size})
			next++
			continue
		}
		// Earliest head completion under current shares.
		compT := math.Inf(1)
		compC := -1
		for c := range queues {
			if len(queues[c]) == 0 {
				continue
			}
			rate := weights[c] / activeW
			t := now + queues[c][0].remaining/rate
			if t < compT {
				compT = t
				compC = c
			}
		}
		if arrT < compT {
			// Advance fluid to the arrival.
			dt := arrT - now
			for c := range queues {
				if len(queues[c]) == 0 {
					continue
				}
				queues[c][0].remaining -= dt * weights[c] / activeW
			}
			now = arrT
			j := order[next]
			queues[jobs[j].Class] = append(queues[jobs[j].Class], jobState{idx: j, remaining: jobs[j].Size})
			next++
			continue
		}
		// Advance fluid to the completion.
		dt := compT - now
		for c := range queues {
			if len(queues[c]) == 0 {
				continue
			}
			queues[c][0].remaining -= dt * weights[c] / activeW
		}
		now = compT
		done := queues[compC][0]
		queues[compC] = queues[compC][1:]
		finish[done.idx] = now
	}
	return finish, nil
}
