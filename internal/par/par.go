// Package par is the shared parallel evaluation engine behind Darwin's
// experiment sweeps. The paper's evaluation is embarrassingly parallel — 100
// mix configurations × train/test seeds × a 25-expert grid × baselines — and
// every task is an independent, deterministic replay over an immutable trace.
// This package turns that shape into a small contract:
//
//   - bounded concurrency (a worker pool of Default() goroutines);
//   - deterministic result ordering (callers write results into slot i, so
//     output is bit-identical to the serial loop regardless of scheduling);
//   - aggregated errors (every failing task is reported with its index, not
//     just the first — a 200-task sweep tells you all 7 failures at once).
//
// The process-wide width defaults to runtime.NumCPU() and is plumbed to the
// `-parallelism` flag of cmd/experiments and cmd/darwin-sim via SetDefault.
// Width 1 runs tasks inline on the calling goroutine, which is the reference
// serial path the golden equivalence tests compare against.
package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultParallelism is the process-wide worker-pool width.
var defaultParallelism atomic.Int64

func init() { defaultParallelism.Store(int64(runtime.NumCPU())) }

// SetDefault sets the process-wide parallelism; n <= 0 restores
// runtime.NumCPU(). It returns the previous value so tests can restore it.
func SetDefault(n int) int {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return int(defaultParallelism.Swap(int64(n)))
}

// Default returns the process-wide parallelism.
func Default() int { return int(defaultParallelism.Load()) }

// ForEach runs fn(i) for every i in [0, n) with at most Default() concurrent
// invocations. All tasks run even if some fail; the returned error is nil or
// joins every failure, each as "task <i>: <err>", in index order.
//
// fn must confine its writes to per-index state (e.g. out[i]) — ForEach
// provides the memory barrier (all task effects happen-before it returns).
func ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	run := func(i int) {
		if err := fn(i); err != nil {
			errs[i] = fmt.Errorf("task %d: %w", i, err)
		}
	}
	workers := min(Default(), n)
	if workers == 1 {
		// Reference serial path: inline, in order, on the calling goroutine.
		for i := 0; i < n; i++ {
			run(i)
		}
		return errors.Join(errs...)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errors.Join(errs...)
}

// Map applies fn to every element of in under ForEach and returns the
// results in input order. A failing element leaves the zero value in its
// slot; the error joins every failure.
func Map[S, T any](in []S, fn func(i int, v S) (T, error)) ([]T, error) {
	out := make([]T, len(in))
	err := ForEach(len(in), func(i int) error {
		v, err := fn(i, in[i])
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
