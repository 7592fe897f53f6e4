package breaker

import (
	"sync"
	"time"
)

// Budget is a fixed-window token budget for auxiliary work — the proxy uses
// one to cap total retry attempts per window, so the backoff path can never
// inject more probe load against a sick origin than the breaker's own
// half-open budget would: retries stop amplifying exactly when amplification
// starts to matter.
//
// Like the Breaker it is deterministic under an injected clock. Its only
// surface is Allow: the proxy counts the denials it acts on
// (ProxyStats.RetryBudgetDenied).
type Budget struct {
	max    int64
	window time.Duration
	clock  func() time.Time

	mu sync.Mutex
	// winStart is the current window's start instant; guarded by mu.
	winStart time.Time
	// used counts tokens consumed this window; guarded by mu.
	used int64
}

// NewBudget builds a budget of max tokens per window. A nil clock selects
// time.Now; max <= 0 denies everything (a zero budget is a hard cap, not
// unlimited — pass no budget at all to disable capping).
func NewBudget(max int64, window time.Duration, clock func() time.Time) *Budget {
	if window <= 0 {
		window = time.Second
	}
	if clock == nil {
		clock = time.Now
	}
	g := &Budget{
		max:    max,
		window: window,
		clock:  clock,
	}
	g.mu.Lock()
	g.winStart = clock()
	g.mu.Unlock()
	return g
}

// Allow consumes one token if the current window has any left.
func (g *Budget) Allow() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.clock()
	if now.Sub(g.winStart) >= g.window {
		// Fixed-window reset, aligned to window multiples so the schedule is
		// a pure function of the clock (no drift from call timing).
		steps := now.Sub(g.winStart) / g.window
		g.winStart = g.winStart.Add(steps * g.window)
		g.used = 0
	}
	if g.used >= g.max {
		return false
	}
	g.used++
	return true
}
