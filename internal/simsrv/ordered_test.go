package simsrv

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// runOrderedWithin fails the test instead of hanging it when the
// pipeline deadlocks.
func runOrderedWithin(t *testing.T, d time.Duration, total, workers int, run func(*Simulator, *Result, int) error, consume func(int, *Result)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- RunOrdered(total, workers, run, consume) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		buf := make([]byte, 1<<16)
		t.Fatalf("RunOrdered(%d tasks, %d workers) still blocked after %v:\n%s", total, workers, d, buf[:runtime.Stack(buf, true)])
		return nil
	}
}

// TestRunOrderedStalledHead forces the interleaving behind ROADMAP item
// 0: the task the in-order consumer is waiting for (task 0) is held up
// while every other worker runs ahead as far as the pipeline lets it.
// The old pipeline let a worker take a task before it had a Result, so
// the others could park the whole pool in the reorder buffer and starve
// the stalled task's worker of one. Here the head task already owns its
// Result, run-ahead stops at the pool size, and the run drains in order
// once the head is released. Run with -race -cpu 2,4,8.
func TestRunOrderedStalledHead(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		poolSize := 2 * workers
		total := 6*poolSize + 1
		var started, finished atomic.Int64
		run := func(_ *Simulator, res *Result, task int) error {
			started.Add(1)
			if task == 0 {
				// Hold the head until the others have used every other
				// pooled Result and nothing more can start.
				for finished.Load() < int64(poolSize-1) {
					runtime.Gosched()
				}
			}
			res.EventsProcessed = uint64(task)
			finished.Add(1)
			return nil
		}
		var runAhead int64
		next := 0
		consume := func(task int, res *Result) {
			if task == 0 {
				// The head's Result is not back in the pool yet.
				runAhead = started.Load()
			}
			if task != next || res.EventsProcessed != uint64(task) {
				t.Errorf("workers=%d: consumed task %d carrying %d, want %d in order", workers, task, res.EventsProcessed, next)
			}
			next++
		}
		if err := runOrderedWithin(t, 30*time.Second, total, workers, run, consume); err != nil {
			t.Fatal(err)
		}
		if next != total {
			t.Errorf("workers=%d: consumed %d of %d tasks", workers, next, total)
		}
		// While the head was stalled, at most the pool's worth of tasks
		// had been handed out: run-ahead is bounded by construction.
		if runAhead > int64(poolSize) {
			t.Errorf("workers=%d: %d tasks started behind a stalled head, pool holds %d", workers, runAhead, poolSize)
		}
	}
}

// TestRunOrderedFirstErrorInTaskOrder: whichever failing task finishes
// first, the one reported is the first in task order, and nothing from
// it on is consumed.
func TestRunOrderedFirstErrorInTaskOrder(t *testing.T) {
	errA, errB := errors.New("task 5"), errors.New("task 9")
	for _, workers := range []int{1, 2, 4} {
		run := func(_ *Simulator, _ *Result, task int) error {
			switch task {
			case 5:
				time.Sleep(2 * time.Millisecond) // let task 9 fail first
				return errA
			case 9:
				return errB
			}
			return nil
		}
		consumed := 0
		err := runOrderedWithin(t, 30*time.Second, 40, workers, run, func(task int, _ *Result) {
			if task >= 5 {
				t.Errorf("workers=%d: consumed task %d after the failure", workers, task)
			}
			consumed++
		})
		if !errors.Is(err, errA) {
			t.Errorf("workers=%d: got %v, want %v", workers, err, errA)
		}
		if consumed != 5 {
			t.Errorf("workers=%d: consumed %d tasks, want 5", workers, consumed)
		}
	}
}
