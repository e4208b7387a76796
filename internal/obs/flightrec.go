package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// Flag bits annotating one recorded control tick.
const (
	// FlagAllocFailure marks a tick whose allocation was infeasible; the
	// recorded rates are the retained previous allocation (NaN before any
	// allocation succeeded).
	FlagAllocFailure uint8 = 1 << iota
	// FlagNonPositiveRate marks a successful tick that handed at least
	// one class a rate ≤ 0 — the starvation signal that surfaces
	// downstream as rate-floor clamps (simsrv ServiceFloor, httpsrv
	// pacing floor).
	FlagNonPositiveRate
	// FlagInputRejected marks a tick whose input carried NaN/Inf/negative
	// counts, work, or slowdowns; the corrupt fields were discarded and
	// the loop fell back to its last-good estimates.
	FlagInputRejected
	// FlagStaleTick marks a watchdog record: the reallocation loop missed
	// its deadline and pacing is frozen at the last-good rates shown.
	FlagStaleTick
)

// FlightRecorder is a fixed-size ring of control-plane tick records:
// per-class λ̂ estimates, allocated rates, measured slowdowns and
// effective (post-trim) δ, plus a timestamp and flag bits per tick. It is
// the replayable record of every control decision, hooked into
// control.Loop so the exact same recorder serves the simulator (dump
// after a run, psdsim -flightrec) and the live server (/debug/control).
//
// The record path is allocation-free: one mutex acquisition and four
// slice copies into a preallocated slab. When the ring is full the oldest
// tick is overwritten; Dropped reports how many were lost. Readers
// (Snapshot, WriteJSON) take the same mutex only long enough to copy the
// slab out, so a slow dump consumer can never stall the control loop
// beyond a memcpy.
type FlightRecorder struct {
	mu      sync.Mutex
	classes int
	seq     uint64 // ticks ever recorded
	n       int    // records currently held (≤ capacity)
	next    int    // ring write index
	times   []float64
	flags   []uint8
	slab    []float64 // capacity × classes × 4: λ̂ | rates | slows | effδ
}

// NewFlightRecorder creates a recorder for the given class count holding
// the most recent capacity ticks.
func NewFlightRecorder(classes, capacity int) (*FlightRecorder, error) {
	if classes < 1 || capacity < 1 {
		return nil, fmt.Errorf("obs: flight recorder needs classes >= 1 and capacity >= 1, got %d, %d", classes, capacity)
	}
	fr := &FlightRecorder{}
	fr.Reset(classes, capacity)
	return fr, nil
}

// Reset clears the ring and re-dimensions it, reusing the slab when it is
// already big enough (the arena pattern: one recorder serves thousands of
// simulator replications without reallocating).
func (fr *FlightRecorder) Reset(classes, capacity int) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.classes = classes
	fr.seq = 0
	fr.n = 0
	fr.next = 0
	need := capacity * classes * 4
	if cap(fr.slab) < need {
		fr.slab = make([]float64, need)
	} else {
		fr.slab = fr.slab[:need]
	}
	if cap(fr.times) < capacity {
		fr.times = make([]float64, capacity)
		fr.flags = make([]uint8, capacity)
	} else {
		fr.times = fr.times[:capacity]
		fr.flags = fr.flags[:capacity]
	}
}

// Classes returns the per-tick vector width.
func (fr *FlightRecorder) Classes() int {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.classes
}

// Capacity returns the ring size in ticks.
func (fr *FlightRecorder) Capacity() int {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return len(fr.times)
}

// Len returns the number of ticks currently held.
func (fr *FlightRecorder) Len() int {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.n
}

// Seq returns the total number of ticks ever recorded.
func (fr *FlightRecorder) Seq() uint64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.seq
}

// Record appends one tick. Each vector must have Classes() entries or be
// nil (stored as NaN — e.g. slowdowns on a tick without feedback input,
// or rates before the first successful allocation). Allocation-free.
func (fr *FlightRecorder) Record(time float64, flags uint8, lambdas, rates, slowdowns, effDeltas []float64) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	row := fr.slab[fr.next*fr.classes*4 : (fr.next+1)*fr.classes*4]
	fillVec(row[0:fr.classes], lambdas)
	fillVec(row[fr.classes:2*fr.classes], rates)
	fillVec(row[2*fr.classes:3*fr.classes], slowdowns)
	fillVec(row[3*fr.classes:4*fr.classes], effDeltas)
	fr.times[fr.next] = time
	fr.flags[fr.next] = flags
	fr.next = (fr.next + 1) % len(fr.times)
	if fr.n < len(fr.times) {
		fr.n++
	}
	fr.seq++
}

// fillVec copies src into dst, or NaN-fills dst when src is nil. src must
// otherwise match dst's length (a dimension bug, caught loudly).
func fillVec(dst, src []float64) {
	if src == nil {
		for i := range dst {
			dst[i] = math.NaN()
		}
		return
	}
	if len(src) != len(dst) {
		panic(fmt.Sprintf("obs: flight record vector has %d entries, recorder has %d classes", len(src), len(dst)))
	}
	copy(dst, src)
}

// TickRecord is one recorded control tick, oldest-first in Snapshot
// output. The vectors are owned by the caller (copied out of the ring).
type TickRecord struct {
	// Seq is the tick's global sequence number (0-based since the last
	// Reset); Time is the caller-supplied timestamp — control.Loop stamps
	// Seq·Window, the tick's position on the control clock.
	Seq   uint64
	Time  float64
	Flags uint8
	// Lambdas are the λ̂ estimates the allocator saw (oracle values on
	// oracle ticks), Rates the allocation in force after the tick,
	// Slowdowns the measured per-class window means fed to the feedback
	// controller (NaN without feedback or completions), EffDeltas the
	// post-trim δ vector handed to the allocator.
	Lambdas, Rates, Slowdowns, EffDeltas []float64
}

// Snapshot copies the held ticks out, oldest first.
func (fr *FlightRecorder) Snapshot() []TickRecord {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.snapshotLocked()
}

func (fr *FlightRecorder) snapshotLocked() []TickRecord {
	out := make([]TickRecord, fr.n)
	for k := 0; k < fr.n; k++ {
		idx := fr.ringIndex(k)
		row := fr.slab[idx*fr.classes*4 : (idx+1)*fr.classes*4]
		vecs := make([]float64, 4*fr.classes)
		copy(vecs, row)
		out[k] = TickRecord{
			Seq:       fr.seq - uint64(fr.n-k),
			Time:      fr.times[idx],
			Flags:     fr.flags[idx],
			Lambdas:   vecs[0:fr.classes],
			Rates:     vecs[fr.classes : 2*fr.classes],
			Slowdowns: vecs[2*fr.classes : 3*fr.classes],
			EffDeltas: vecs[3*fr.classes : 4*fr.classes],
		}
	}
	return out
}

// ringIndex maps held-record ordinal k (0 = oldest) to a slab row.
func (fr *FlightRecorder) ringIndex(k int) int {
	return (fr.next - fr.n + k + len(fr.times)) % len(fr.times)
}

// WriteJSON dumps the held ticks as one JSON document, oldest first:
//
//	{"classes":2,"capacity":256,"recorded":12,"dropped":0,"ticks":[
//	  {"seq":0,"time":50,"alloc_failure":false,"rate_clamped":false,
//	   "input_rejected":false,"stale_tick":false,
//	   "lambda_hat":[...],"rates":[...],"slowdowns":[null,...],
//	   "effective_deltas":[...]}]}
//
// NaN and ±Inf serialize as null (encoding/json rejects them outright).
// The ring is copied out under the lock and serialized outside it, so a
// slow reader never blocks Record.
func (fr *FlightRecorder) WriteJSON(w io.Writer) error {
	fr.mu.Lock()
	classes := fr.classes
	capacity := len(fr.times)
	seq := fr.seq
	ticks := fr.snapshotLocked()
	fr.mu.Unlock()

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"classes":%d,"capacity":%d,"recorded":%d,"dropped":%d,"ticks":[`,
		classes, capacity, seq, seq-uint64(len(ticks)))
	var scratch []byte
	for i := range ticks {
		t := &ticks[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `{"seq":%d,"time":`, t.Seq)
		scratch = appendJSONFloat(scratch, bw, t.Time)
		fmt.Fprintf(bw, `,"alloc_failure":%t,"rate_clamped":%t,"input_rejected":%t,"stale_tick":%t`,
			t.Flags&FlagAllocFailure != 0, t.Flags&FlagNonPositiveRate != 0,
			t.Flags&FlagInputRejected != 0, t.Flags&FlagStaleTick != 0)
		writeJSONVec(bw, &scratch, `"lambda_hat"`, t.Lambdas)
		writeJSONVec(bw, &scratch, `"rates"`, t.Rates)
		writeJSONVec(bw, &scratch, `"slowdowns"`, t.Slowdowns)
		writeJSONVec(bw, &scratch, `"effective_deltas"`, t.EffDeltas)
		bw.WriteByte('}')
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// writeJSONVec writes `,key:[v0,v1,...]` with NaN/Inf as null.
func writeJSONVec(bw *bufio.Writer, scratch *[]byte, key string, vec []float64) {
	bw.WriteByte(',')
	bw.WriteString(key)
	bw.WriteString(":[")
	for i, v := range vec {
		if i > 0 {
			bw.WriteByte(',')
		}
		*scratch = appendJSONFloat(*scratch, bw, v)
	}
	bw.WriteByte(']')
}

// appendJSONFloat writes one JSON number (or null for NaN/Inf).
func appendJSONFloat(scratch []byte, bw *bufio.Writer, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		bw.WriteString("null")
		return scratch
	}
	scratch = strconv.AppendFloat(scratch[:0], v, 'g', -1, 64)
	bw.Write(scratch)
	return scratch
}
