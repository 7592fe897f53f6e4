// Package goctx seeds goroutine leaks: spawns with no visible termination
// path. The clean spawns pin each accepted signal: context use, select,
// range-over-channel, and WaitGroup.Done.
package goctx

import (
	"context"
	"sync"
)

func tick() {}

func work() {}

func runForever() {
	for {
		work()
	}
}

func Leak() {
	go func() { // want "no termination path"
		for {
			tick()
		}
	}()
}

func LeakNamed() {
	go runForever() // want "no termination path"
}

// WatchCtx is clean: the body consults its context.
func WatchCtx(ctx context.Context, reload chan struct{}) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-reload:
				work()
			}
		}
	}()
}

// Drain is clean: ranging over a channel ends when the channel closes.
func Drain(ch chan int) {
	go func() {
		for range ch {
			work()
		}
	}()
}

// A generic type's methods resolve to their declarations: a spawned generic
// method is checked like any other, and one whose body waits on a channel
// terminates.
type queue[T any] struct {
	items chan T
}

func (q *queue[T]) spin() {
	for {
		work()
	}
}

func (q *queue[T]) drain() {
	for range q.items {
		work()
	}
}

func LeakGeneric(q *queue[int]) {
	go q.spin() // want "no termination path"
}

// DrainGeneric is clean: the spawned body reaches q.drain's channel range.
func DrainGeneric(q *queue[int]) {
	go func() {
		q.drain()
	}()
}

// Tracked is clean: the WaitGroup ties the goroutine to a join point.
func Tracked(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
}
