// Package stripe provides lock-striped counter blocks — the accounting
// layer for call sites that bump counters from many goroutines and have no
// natural owner lock (the HTTP proxy's and the front tier's data-plane
// stats).
//
// A hot path that increments counters from many goroutines wants neither a
// global mutex (serializes the data plane) nor a bag of independent atomics
// (readers see torn cross-counter snapshots — a "requests" value from one
// instant paired with an "errors" value from another). Counters hashes each
// update's key to a stripe and runs it under that stripe's mutex, so
// unrelated keys never contend; a reader takes the same mutexes, one stripe
// at a time, for the few nanoseconds a copy takes.
package stripe

import (
	"fmt"
	"sync"
)

// Counters is a set of key-striped blocks of int64 counters. Updates hash
// their key to a stripe and run under that stripe's mutex; Snapshot locks
// each stripe in turn and sums.
//
// Coherence contract: each stripe is observed at one consistent instant, so
// two counters bumped under the same key in one critical section are never
// seen torn relative to each other. The aggregate is a sum of per-stripe
// consistent snapshots — strictly stronger than loading independent global
// atomics one by one, though stripes may be observed at slightly different
// instants relative to each other.
type Counters struct {
	width   int
	stripes []paddedStripe
}

// paddedStripe pads each stripe past a cache line so neighbouring stripes'
// mutexes never false-share.
type paddedStripe struct {
	mu   sync.Mutex
	vals []int64 // guarded by mu
	_    [32]byte
}

// New builds a Counters with the given stripe count (rounded up to a power
// of two, minimum 1) and counter width.
func New(stripes, width int) *Counters {
	n := 1
	for n < stripes {
		n <<= 1
	}
	c := &Counters{width: width, stripes: make([]paddedStripe, n)}
	for i := range c.stripes {
		c.stripes[i] = paddedStripe{vals: make([]int64, width)}
	}
	return c
}

// Width returns the number of counters per stripe.
func (c *Counters) Width() int { return c.width }

// Add adds delta to counter idx in the stripe owning key.
func (c *Counters) Add(key uint64, idx int, delta int64) {
	s := &c.stripes[Mix64(key)&uint64(len(c.stripes)-1)]
	s.mu.Lock()
	s.vals[idx] += delta
	s.mu.Unlock()
}

// Snapshot sums every stripe, each read under its mutex, into dst (len(dst)
// must equal Width).
func (c *Counters) Snapshot(dst []int64) {
	if len(dst) != c.width {
		panic(fmt.Sprintf("stripe: snapshot width %d != counters width %d", len(dst), c.width))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for j, v := range s.vals {
			dst[j] += v
		}
		s.mu.Unlock()
	}
}

// Mix64 is a SplitMix64-style finalizer: a cheap, allocation-free bijective
// mix spreading adjacent keys across the id space. The sharded cache engine
// and the striped counters share it so an object's shard and stats stripe
// derive from the same diffusion.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
