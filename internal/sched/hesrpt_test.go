package sched

import (
	"testing"
)

// TestHeSRPTSizeOrder: with equal weights the discipline is pure
// shortest-job-first — jobs come back in ascending size regardless of
// enqueue order.
func TestHeSRPTSizeOrder(t *testing.T) {
	h := NewHeSRPT(2)
	sizes := []float64{5, 1, 3, 2, 4}
	for i, s := range sizes {
		h.Enqueue(Job{Class: i % 2, Size: s, Arrival: float64(i)})
	}
	prev := 0.0
	for i := 0; i < len(sizes); i++ {
		j, ok := h.Dequeue()
		if !ok {
			t.Fatalf("dequeue %d: empty", i)
		}
		if j.Size < prev {
			t.Fatalf("dequeue %d: size %g after %g", i, j.Size, prev)
		}
		prev = j.Size
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("drained scheduler still dequeues")
	}
}

// TestHeSRPTWeightTilt: the allocator's weights scale priority — a class
// with a larger weight wins against a same-size rival, the heSRPT-style
// per-class scaling.
func TestHeSRPTWeightTilt(t *testing.T) {
	h := NewHeSRPT(2)
	if err := h.SetWeights([]float64{4, 1}); err != nil {
		t.Fatal(err)
	}
	// Keys: class 0 → 2/4 = 0.5; class 1 → 1/1 = 1. Class 0's larger job
	// still dispatches first under its 4x weight.
	h.Enqueue(Job{Class: 1, Size: 1})
	h.Enqueue(Job{Class: 0, Size: 2})
	j, _ := h.Dequeue()
	if j.Class != 0 {
		t.Fatalf("weighted priority: got class %d first, want 0", j.Class)
	}
}

// TestHeSRPTFIFOTies: equal keys dispatch in arrival order (the strict
// (key, seq) total order shared with SCFQ).
func TestHeSRPTFIFOTies(t *testing.T) {
	h := NewHeSRPT(1)
	for i := 0; i < 8; i++ {
		h.Enqueue(Job{Class: 0, Size: 1, Arrival: float64(i)})
	}
	for i := 0; i < 8; i++ {
		j, ok := h.Dequeue()
		if !ok || j.Arrival != float64(i) {
			t.Fatalf("tie %d: got arrival %v ok=%v", i, j.Arrival, ok)
		}
	}
}

// TestHeSRPTSetWeightsValidation mirrors the Scheduler contract: wrong
// length and non-positive entries are rejected.
func TestHeSRPTSetWeightsValidation(t *testing.T) {
	h := NewHeSRPT(2)
	if err := h.SetWeights([]float64{1}); err == nil {
		t.Error("wrong-length weights accepted")
	}
	if err := h.SetWeights([]float64{1, 0}); err == nil {
		t.Error("zero weight accepted")
	}
	if err := h.SetWeights([]float64{1, -2}); err == nil {
		t.Error("negative weight accepted")
	}
}

// TestHeSRPTReset: Reset restores equal weights and empties the backlog,
// while retaining capacity for reuse.
func TestHeSRPTReset(t *testing.T) {
	h := NewHeSRPT(2)
	if err := h.SetWeights([]float64{9, 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.Enqueue(Job{Class: i % 2, Size: float64(i + 1)})
	}
	h.Reset()
	if h.Backlog() != 0 {
		t.Fatalf("backlog %d after Reset", h.Backlog())
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("reset scheduler still dequeues")
	}
	// Equal weights again: same-size jobs of both classes tie FIFO.
	h.Enqueue(Job{Class: 1, Size: 1})
	h.Enqueue(Job{Class: 0, Size: 1})
	if j, _ := h.Dequeue(); j.Class != 1 {
		t.Fatalf("post-Reset weights not equal: class %d won", j.Class)
	}
}
