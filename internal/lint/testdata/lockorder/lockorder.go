// Package lockorder seeds lock-discipline violations: blocking operations
// under a held mutex (direct and through a static callee), double-locks, and
// a lock-order cycle. The clean functions pin the walker's branch handling:
// unlock-then-block and unlock-in-branch must not fire.
package lockorder

import (
	"net"
	"sync"
	"time"
)

type S struct {
	mu    sync.Mutex
	ready chan struct{}
	n     int
}

func (s *S) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "held across time.Sleep"
	s.mu.Unlock()
}

func (s *S) sendUnderDeferredLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ready <- struct{}{} // want "held across channel send"
}

func (s *S) selectUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "held across select"
	case <-s.ready: // want "held across channel receive"
		s.n++
	}
}

func (s *S) transitiveBlock() {
	s.mu.Lock()
	s.flush() // want "held across call to flush, which blocks"
	s.mu.Unlock()
}

func (s *S) flush() {
	<-s.ready
}

func (s *S) doubleLock() {
	s.mu.Lock()
	s.mu.Lock() // want "locked while already held"
	s.mu.Unlock()
}

// A hand-written socket round trip blocks like http.Client.Do: the write
// directly, and a function that wraps the exchange transitively.
type client struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

func (c *client) writeUnderLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _ = c.conn.Write(c.buf) // want "held across net.Conn Write"
}

func (c *client) roundTripUnderLock() {
	c.mu.Lock()
	c.roundTrip() // want "held across call to roundTrip, which blocks"
	c.mu.Unlock()
}

func (c *client) roundTrip() {
	_, _ = c.conn.Write(c.buf)
	_, _ = c.conn.Read(c.buf)
}

// pooledRoundTrip is clean: the lock covers taking the connection, not using
// it (the upstream client's idle stack).
func (c *client) pooledRoundTrip() {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	_, _ = conn.Read(c.buf)
}

// unlockThenBlock is clean: the walker must see the unlock before the
// receive (singleflight's unlock-then-wait shape).
func (s *S) unlockThenBlock() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	<-s.ready
}

// earlyReturn is clean: each branch exit releases the lock, so the
// fall-through receive runs unlocked.
func (s *S) earlyReturn(fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		return
	}
	s.n++
	s.mu.Unlock()
	<-s.ready
}

type Pair struct {
	a sync.Mutex
	b sync.Mutex
}

func (p *Pair) lockAB() {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

func (p *Pair) lockBA() {
	p.b.Lock()
	p.a.Lock() // want "lock-order cycle: a -> b -> a"
	p.a.Unlock()
	p.b.Unlock()
}
