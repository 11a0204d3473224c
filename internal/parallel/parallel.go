// Package parallel provides the bounded worker pool that fans the
// independent items of a batch — the loops of a scheduling batch or
// stream, the kernels and loops of a table — across GOMAXPROCS
// goroutines. A single call (one reduction, one exact search, one
// loop's schedule) always runs serially.
//
// Determinism contract: workers write results into caller-indexed slots
// and the caller merges them in index order, so any computation whose
// per-index work is independent produces byte-identical output at every
// worker count. workers <= 1 always runs serially on the calling
// goroutine and is the reference path for equivalence tests.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Workers resolves a worker-count request: n < 1 selects GOMAXPROCS
// (the default of every -parallel flag), anything else is returned as is.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// WorkerPanic wraps a panic raised inside a worker goroutine. Re-raising
// a recovered value on the caller would otherwise discard the panicking
// goroutine's stack — the one that names the failing site (e.g. which
// loop's Schedule call blew up) — so the recover handler captures
// runtime.Stack at recover time and the caller re-panics with this
// wrapper, whose message prints the original value followed by the
// worker's stack.
type WorkerPanic struct {
	// Value is the original panic value.
	Value any
	// Stack is the panicking worker goroutine's stack, captured by
	// runtime.Stack inside the recover handler (so it still contains the
	// frames between the panic site and the recover).
	Stack string
}

// Error formats the original panic value followed by the worker stack;
// implementing error makes the runtime print the full message when the
// re-raised panic goes unrecovered.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\noriginal worker stack:\n%s", p.Value, p.Stack)
}

func (p *WorkerPanic) String() string { return p.Error() }

// Unwrap returns the original panic value if it was an error.
func (p *WorkerPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// NewWorkerPanic wraps a recovered panic value with the calling
// goroutine's stack. Call it from the worker's recover handler, where
// the stack still holds the frames between the panic site and the
// recover.
func NewWorkerPanic(value any) *WorkerPanic {
	buf := make([]byte, 64<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return &WorkerPanic{Value: value, Stack: string(buf)}
}

// ForEach runs fn(i) for every i in [0, n), fanning calls across at most
// workers goroutines with work stealing (an atomic index, so uneven item
// costs balance). workers <= 1 runs serially in index order on the
// calling goroutine. A panic in any worker is re-raised on the caller as
// a *WorkerPanic (original value plus the worker's stack) after all
// workers have drained; the serial path panics natively, stack intact.
func ForEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var firstPanic atomic.Pointer[WorkerPanic]
	var wg sync.WaitGroup
	metered := obs.Enabled()
	var perWorker []int64 // tasks executed per worker; each slot has one writer
	if metered {
		perWorker = make([]int64, workers)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					firstPanic.CompareAndSwap(nil, NewWorkerPanic(p))
				}
			}()
			done := int64(0)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				fn(i)
				done++
			}
			if metered {
				perWorker[w] = done
			}
		}(w)
	}
	wg.Wait()
	if p := firstPanic.Load(); p != nil {
		panic(p)
	}
	if metered {
		recordPool(perWorker, n)
	}
}

// recordPool publishes one pool run's shape to the "parallel" scope:
// pool count, total tasks, the per-worker task distribution, and the
// imbalance (max - min tasks over the pool's workers, 0 = perfectly
// level work stealing).
func recordPool(perWorker []int64, n int) {
	s := obs.Default().Scope("parallel")
	s.Counter("pools").Inc()
	s.Counter("tasks").Add(int64(n))
	tasksPer := s.Histogram("tasks_per_worker")
	min, max := perWorker[0], perWorker[0]
	for _, c := range perWorker {
		tasksPer.Observe(c)
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	s.Histogram("imbalance").Observe(max - min)
}

// Map applies fn to every index in [0, n) across the worker pool and
// returns the results in index order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// ForEachState is ForEach for loops whose body needs scratch state that
// is expensive to build: each worker calls newState once and reuses that
// state for every index it steals, so the construction cost is per
// worker, not per item. fn must leave the state reusable for the next
// index. The serial path (workers <= 1) builds exactly one state and
// runs in index order; panics propagate exactly as in ForEach.
func ForEachState[S any](n, workers int, newState func() S, fn func(st S, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n == 0 {
			return
		}
		st := newState()
		for i := 0; i < n; i++ {
			fn(st, i)
		}
		return
	}
	var next atomic.Int64
	var firstPanic atomic.Pointer[WorkerPanic]
	var wg sync.WaitGroup
	metered := obs.Enabled()
	var perWorker []int64
	if metered {
		perWorker = make([]int64, workers)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					firstPanic.CompareAndSwap(nil, NewWorkerPanic(p))
				}
			}()
			st := newState()
			done := int64(0)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				fn(st, i)
				done++
			}
			if metered {
				perWorker[w] = done
			}
		}(w)
	}
	wg.Wait()
	if p := firstPanic.Load(); p != nil {
		panic(p)
	}
	if metered {
		recordPool(perWorker, n)
	}
}
