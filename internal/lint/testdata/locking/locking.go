// Package locking is a darwinlint golden fixture for guarded-by annotations
// on struct fields and package var blocks.
package locking

import "sync"

type counter struct {
	mu sync.Mutex
	// n is the running count; guarded by mu.
	n int
}

func newCounter() *counter {
	return &counter{n: 1} // composite-literal initialisation is not an access
}

func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) bad() int {
	return c.n /* want "n is guarded by mu" */
}

func (c *counter) addLocked(d int) {
	c.n += d // *Locked suffix: the caller holds mu
}

// machine keeps its state in one struct-valued field: a read of a field of
// that struct is an access to the guarded field.
type machine struct {
	mu sync.Mutex
	st state // guarded by mu
}

type state struct{ phase string }

func (m *machine) phase() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st.phase
}

func (m *machine) badPhase() string {
	return m.st.phase /* want "st is guarded by mu" */
}

func (m *machine) phaseLocked() string {
	return m.st.phase // *Locked suffix: the caller holds mu
}

// registry memoises lookups across goroutines. Guarded by regMu.
var (
	regMu sync.Mutex
	reg   = map[string]int{}
)

func lookup(k string) int {
	regMu.Lock()
	defer regMu.Unlock()
	return reg[k]
}

func badLookup(k string) int {
	return reg[k] /* want "reg is guarded by regMu" */
}

type broken struct {
	// x carries a dangling annotation; guarded by nosuch.
	x int /* want "guarded-by annotation names" */
}
