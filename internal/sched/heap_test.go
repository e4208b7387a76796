package sched

import (
	"math"
	"testing"
)

// scanRef is the reference FuzzHeapVsScan holds both disciplines to: it
// computes the same keys (SCFQ's finish tags with their idle-period
// reset, or heSRPT's Size/w), keeps the pending entries unordered, and
// serves the minimum (key, seq) found by a linear scan.
type scanRef struct {
	scfq    bool
	weights []float64
	lastTag []float64
	vtime   float64
	seq     uint64
	pending []entry
}

func newScanRef(classes int, scfq bool) *scanRef {
	r := &scanRef{scfq: scfq, weights: make([]float64, classes), lastTag: make([]float64, classes)}
	r.reset()
	return r
}

func (r *scanRef) reset() {
	for c := range r.weights {
		r.weights[c] = 1 / float64(len(r.weights))
		r.lastTag[c] = 0
	}
	r.vtime, r.seq, r.pending = 0, 0, r.pending[:0]
}

func (r *scanRef) enqueue(j Job) {
	key := j.Size / r.weights[j.Class]
	if r.scfq {
		start := r.vtime
		if r.lastTag[j.Class] > start {
			start = r.lastTag[j.Class]
		}
		key = start + key
		r.lastTag[j.Class] = key
	}
	r.pending = append(r.pending, entry{key: key, seq: r.seq, job: j})
	r.seq++
}

func (r *scanRef) dequeue() (Job, bool) {
	if len(r.pending) == 0 {
		if r.scfq {
			r.vtime = 0
			clear(r.lastTag)
		}
		return Job{}, false
	}
	best := 0
	for i, e := range r.pending {
		b := r.pending[best]
		if e.key < b.key || e.key == b.key && e.seq < b.seq {
			best = i
		}
	}
	e := r.pending[best]
	r.pending = append(r.pending[:best], r.pending[best+1:]...)
	if r.scfq {
		r.vtime = e.key
	}
	return e.job, true
}

// runScript decodes data into operations on s and ref and fails at the
// first dequeue (or backlog) on which they disagree. Each operation is
// one byte b, with operands in the bytes after it:
//
//   - b%8 < 4: Enqueue a job of class (b>>3)%classes whose size is
//     1 + s%8 for the operand s — a small set, so keys tie often;
//   - b%8 in {4, 5}: Dequeue;
//   - b%8 == 6: SetWeights from `classes` operands, weight (x%4+1)·2^-(x>>2)
//     for operand x, so keys reach 2^66 and absorb small increments;
//   - b%8 == 7: Reset.
func runScript(t *testing.T, name string, s discipline, ref *scanRef, data []byte) {
	t.Helper()
	classes := len(ref.weights)
	w := make([]float64, classes)
	for i := 0; i < len(data); i++ {
		b := data[i]
		switch op := b % 8; {
		case op < 4:
			if i+1 >= len(data) {
				return
			}
			i++
			j := Job{Class: int(b>>3) % classes, Size: float64(1 + data[i]%8), Arrival: float64(i)}
			s.Enqueue(j)
			ref.enqueue(j)
		case op < 6:
			got, ok := s.Dequeue()
			want, wok := ref.dequeue()
			if got != want || ok != wok {
				t.Fatalf("%s: op %d: dequeued %+v ok=%v, scan reference %+v ok=%v", name, i, got, ok, want, wok)
			}
		case op == 6:
			if i+classes >= len(data) {
				return
			}
			for c := range w {
				x := data[i+1+c]
				w[c] = math.Ldexp(float64(x%4+1), -int(x>>2))
			}
			i += classes
			if err := s.SetWeights(w); err != nil {
				t.Fatalf("%s: SetWeights(%v): %v", name, w, err)
			}
			copy(ref.weights, w)
		default:
			s.Reset()
			ref.reset()
		}
		if s.Backlog() != len(ref.pending) {
			t.Fatalf("%s: op %d: backlog %d, scan reference %d", name, i, s.Backlog(), len(ref.pending))
		}
	}
}

// FuzzHeapVsScan is the differential test of the shared heap: SCFQ and
// HeSRPT must dispatch exactly what a linear scan over the same keys
// dispatches, under any script of enqueues, dequeues, weight changes and
// resets.
func FuzzHeapVsScan(f *testing.F) {
	f.Add([]byte{})
	// Equal keys across and within classes: FIFO by seq decides.
	f.Add([]byte{0, 0, 8, 0, 16, 0, 0, 0, 8, 0, 4, 4, 4, 4, 4, 4})
	// An SCFQ idle period after a 2^63 tag: without the virtual-time
	// reset the next two tags both round to 2^63 and tie the wrong way.
	f.Add([]byte{6, 252, 0, 0, 0, 0, 4, 4, 6, 0, 0, 0, 8, 1, 16, 0, 4, 4})
	// Weights changing mid-backlog, a reset, and a mixed tail.
	f.Add([]byte{1, 3, 9, 7, 6, 5, 9, 200, 17, 2, 4, 2, 6, 3, 7, 7, 0, 5, 8, 6, 5, 4, 12, 3, 5, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		const classes = 3
		runScript(t, "scfq", NewSCFQ(classes), newScanRef(classes, true), data)
		runScript(t, "hesrpt", NewHeSRPT(classes), newScanRef(classes, false), data)
	})
}
