// Package breaker is the overload-protection state machine for the serving
// tier: a deterministic rolling-window circuit breaker gating origin fetches,
// plus a rolling-window retry budget capping the resilience layer's backoff
// path. Both are built for the proxy's worst minutes — flash crowds and
// origin brownouts — where naive retries amplify load instead of shedding it
// (the retry-storm failure mode): once the origin's observed failure ratio
// crosses a threshold, the breaker opens and every would-be fetch fails
// immediately and cheaply, so the proxy degrades to serve-stale/503 instead
// of queueing doomed work behind a dying upstream.
//
// The state machine is the classic three-state breaker:
//
//   - Closed: all calls pass. Outcomes accumulate in a rolling window of
//     fixed-width buckets; when the window holds at least MinRequests
//     outcomes and the failure ratio reaches FailureThreshold, the breaker
//     trips to Open.
//   - Open: every call is denied. After OpenFor elapses the next call moves
//     the breaker to HalfOpen.
//   - HalfOpen: up to HalfOpenProbes calls are admitted as probes; the rest
//     are denied. HalfOpenProbes consecutive probe successes close the
//     breaker (window reset); any probe failure reopens it and restarts the
//     OpenFor timer.
//
// Determinism: every transition is a pure function of the call sequence and
// the injected clock, so tests (and the overload chaos experiment) drive the
// breaker with a fake clock and get bit-identical transition traces.
//
// Concurrency: one mutex serializes mutations and reads alike. State and
// SnapshotNow take it for a copy and change nothing — neither the window nor
// the open→half-open timer advances on a read — so health/readiness probes
// and experiment reporters see exactly what the last Allow or Record left.
package breaker

import (
	"errors"
	"sync"
	"time"
)

// ErrOpen is returned by callers that found the breaker open: the fetch was
// denied without touching the origin. The proxy maps it to a cheap shed
// (serve-stale or 503+Retry-After) rather than a 502.
var ErrOpen = errors.New("breaker: circuit open")

// State is the breaker's position in the closed → open → half-open cycle.
type State int32

const (
	// Closed passes every call; outcomes feed the rolling window.
	Closed State = iota
	// Open denies every call until OpenFor has elapsed.
	Open
	// HalfOpen admits a bounded probe budget to test the origin.
	HalfOpen
)

// String names the state for reports and /readyz bodies.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Config parameterises a Breaker. The zero value selects the defaults noted
// on each field.
type Config struct {
	// Window is the rolling failure-ratio window (default 1s).
	Window time.Duration
	// Buckets subdivides the window; outcomes expire one bucket at a time,
	// so a larger count tracks the ratio more smoothly (default 10).
	Buckets int
	// FailureThreshold is the windowed failure ratio at which the breaker
	// trips (default 0.5).
	FailureThreshold float64
	// MinRequests is the volume floor: the ratio is not evaluated until the
	// window holds this many outcomes, so a single failed request on an idle
	// proxy cannot trip the breaker (default 10).
	MinRequests int64
	// OpenFor is how long the breaker stays open before admitting half-open
	// probes (default 250ms).
	OpenFor time.Duration
	// HalfOpenProbes is the probe budget per half-open episode, and the
	// number of consecutive probe successes required to close (default 3).
	HalfOpenProbes int64
	// Clock is the time source (default time.Now). Tests and deterministic
	// replays inject a fake clock; every transition derives from it.
	Clock func() time.Time
}

// WithDefaults returns c with every unset (<= 0, nil) field replaced by its
// documented default. New applies it; callers that derive other settings
// from the breaker's (e.g. a retry budget from HalfOpenProbes) apply it first.
func (c Config) WithDefaults() Config {
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.Buckets <= 0 {
		c.Buckets = 10
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 0.5
	}
	if c.MinRequests <= 0 {
		c.MinRequests = 10
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 250 * time.Millisecond
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 3
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Snapshot is a coherent point-in-time copy of the breaker's state: the
// windowed counts and every cumulative transition/admission counter
// observed at one instant (read under the breaker mutex, never torn).
type Snapshot struct {
	// State is the breaker position at the snapshot instant.
	State State
	// WindowRequests/WindowFailures are the rolling-window outcome counts.
	WindowRequests, WindowFailures int64
	// Opens counts closed→open trips; Reopens counts half-open→open probe
	// failures; HalfOpens counts open→half-open transitions; Closes counts
	// half-open→closed recoveries.
	Opens, HalfOpens, Reopens, Closes int64
	// Allowed/Denied count admission decisions; Probes counts half-open
	// probe admissions (a subset of Allowed).
	Allowed, Denied, Probes int64
}

// bucket is one rolling-window slot.
type bucket struct {
	ok, fail int64
}

// Breaker is a deterministic rolling-window circuit breaker. Use New.
type Breaker struct {
	cfg   Config
	width time.Duration // bucket width (cfg.Window / cfg.Buckets)

	mu sync.Mutex
	// state is the current position; guarded by mu.
	state State
	// buckets is the rolling window ring; guarded by mu.
	buckets []bucket
	// cur indexes the active bucket; guarded by mu.
	cur int
	// curStart is the active bucket's start instant; guarded by mu.
	curStart time.Time
	// openedAt is when the breaker last tripped open; guarded by mu.
	openedAt time.Time
	// probes/probeOKs track the current half-open episode; guarded by mu.
	probes, probeOKs int64
	// opens, halfOpens, reopens, closes, allowed, denied, probesTotal are the
	// cumulative counters SnapshotNow reports; guarded by mu.
	opens, halfOpens, reopens, closes, allowed, denied, probesTotal int64
}

// New builds a breaker in the Closed state.
func New(cfg Config) *Breaker {
	cfg = cfg.WithDefaults()
	b := &Breaker{
		cfg:     cfg,
		width:   cfg.Window / time.Duration(cfg.Buckets),
		buckets: make([]bucket, cfg.Buckets),
	}
	b.mu.Lock()
	b.curStart = cfg.Clock()
	b.mu.Unlock()
	return b
}

// Allow reports whether a call may proceed, advancing the rolling window and
// the open→half-open timer. A true return must be paired with exactly one
// Record of the call's outcome; a false return means the call was denied
// (breaker open, or half-open probe budget spent) and nothing further is
// owed.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Clock()
	b.advanceLocked(now)
	if b.state == Open {
		if now.Sub(b.openedAt) < b.cfg.OpenFor {
			b.denied++
			return false
		}
		// The cool-off elapsed: this call race-free transitions to half-open
		// and competes for the probe budget below.
		b.state = HalfOpen
		b.halfOpens++
		b.probes, b.probeOKs = 0, 0
	}
	if b.state == HalfOpen {
		if b.probes >= b.cfg.HalfOpenProbes {
			b.denied++
			return false
		}
		b.probes++
		b.probesTotal++
	}
	b.allowed++
	return true
}

// Record folds one allowed call's outcome into the state machine: windowed
// counts (and a possible trip) when closed, probe accounting (close or
// reopen) when half-open.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Clock()
	b.advanceLocked(now)
	switch b.state {
	case HalfOpen:
		if !ok {
			// A probe failed: the origin is still unhealthy. Reopen and
			// restart the cool-off clock.
			b.state = Open
			b.openedAt = now
			b.reopens++
			break
		}
		b.probeOKs++
		if b.probeOKs >= b.cfg.HalfOpenProbes {
			// Enough consecutive probe successes: recover with a clean
			// window so stale brownout outcomes cannot re-trip immediately.
			b.state = Closed
			b.closes++
			b.resetWindowLocked(now)
		}
	default:
		// Closed — and Open, for stragglers that were allowed before a trip
		// and finished after it: fold the outcome into the window (it ages
		// out normally) but never re-trip an already-open breaker.
		bk := &b.buckets[b.cur]
		if ok {
			bk.ok++
		} else {
			bk.fail++
		}
		if b.state == Closed && !ok {
			reqs, fails := b.windowTotalsLocked()
			if reqs >= b.cfg.MinRequests && float64(fails) >= b.cfg.FailureThreshold*float64(reqs) {
				b.state = Open
				b.openedAt = now
				b.opens++
			}
		}
	}
}

// State returns the current state: what the last Allow or Record left. A
// read never moves the breaker, so an Open whose cool-off has elapsed still
// reads Open until the next Allow makes the half-open transition.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// SnapshotNow returns a coherent snapshot of the state under the breaker
// mutex, without advancing the window or the open→half-open timer.
func (b *Breaker) SnapshotNow() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	reqs, fails := b.windowTotalsLocked()
	return Snapshot{
		State:          b.state,
		WindowRequests: reqs,
		WindowFailures: fails,
		Opens:          b.opens,
		HalfOpens:      b.halfOpens,
		Reopens:        b.reopens,
		Closes:         b.closes,
		Allowed:        b.allowed,
		Denied:         b.denied,
		Probes:         b.probesTotal,
	}
}

// advanceLocked rotates the rolling window up to now, zeroing buckets that
// fell out of the window. Long idle gaps clear the whole window in O(1).
func (b *Breaker) advanceLocked(now time.Time) {
	elapsed := now.Sub(b.curStart)
	if elapsed < b.width {
		return
	}
	if elapsed >= b.cfg.Window+b.width {
		b.resetWindowLocked(now)
		return
	}
	for elapsed >= b.width {
		b.cur = (b.cur + 1) % len(b.buckets)
		b.buckets[b.cur] = bucket{}
		b.curStart = b.curStart.Add(b.width)
		elapsed -= b.width
	}
}

// resetWindowLocked clears every bucket and restarts the window at now.
func (b *Breaker) resetWindowLocked(now time.Time) {
	for i := range b.buckets {
		b.buckets[i] = bucket{}
	}
	b.cur = 0
	b.curStart = now
}

// windowTotalsLocked sums the rolling window.
func (b *Breaker) windowTotalsLocked() (reqs, fails int64) {
	for _, bk := range b.buckets {
		reqs += bk.ok + bk.fail
		fails += bk.fail
	}
	return reqs, fails
}
