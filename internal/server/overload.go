package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"darwin/internal/breaker"
	"darwin/internal/trace"
)

// DeadlineHeader carries the client's end-to-end deadline in milliseconds.
// The load generator sets it from LoadConfig.Deadline; the proxy (with
// PropagateDeadline on) converts it into a request context deadline that
// bounds every origin fetch attempt, so work the client has already given up
// on is cancelled instead of finished into the void.
const DeadlineHeader = "X-Darwin-Deadline-Ms"

// ShedHeader marks responses the overload layer answered without doing the
// full work: 503 rejects (admission, breaker, deadline) and degraded stale
// serves issued on a shed path. The value names the shed reason.
const ShedHeader = "X-Darwin-Shed"

// Overload configures the pipeline's overload-protection stages: circuit
// breaking on the origin path, bounded-in-flight admission control,
// client-deadline propagation with doomed-work shedding, hedged fetches, and
// a rolling-window retry budget. Each field gates its own stage; the zero
// value leaves none of them in the pipeline.
type Overload struct {
	// Enabled puts the origin circuit breaker and the retry budget in the
	// pipeline. It is the one presence bit: Breaker's zero value already
	// means "breaker defaults", so it cannot also mean "no breaker".
	Enabled bool
	// Breaker parameterises the origin circuit breaker; the zero value
	// selects breaker defaults (1s window, 50% threshold, 250ms cool-off,
	// 3 half-open probes).
	Breaker breaker.Config
	// MaxInFlight bounds concurrently admitted requests; a request over the
	// budget is shed immediately (stale or 503+Retry-After) instead of
	// queueing. 0 means unlimited.
	MaxInFlight int64
	// PropagateDeadline honors the client's DeadlineHeader, deriving the
	// context deadline every fetch attempt of a miss inherits.
	PropagateDeadline bool
	// MinFetchBudget is the remaining-deadline floor below which a miss is
	// shed rather than fetched: a fetch that cannot possibly finish in time
	// is doomed work (default 50ms).
	MinFetchBudget time.Duration
	// Hedge, when > 0, launches a second origin fetch if the first has not
	// answered after this delay; the first result wins and the loser is
	// cancelled. Pick a slow-percentile latency (e.g. ~p95 of healthy
	// fetches) so hedges fire only on straggler attempts.
	Hedge time.Duration
}

// retryAfterSeconds is the Retry-After every shed 503 advertises.
const retryAfterSeconds = "1"

// DefaultOverload returns the hardened defaults used by cmd/darwin-proxy and
// the overload chaos experiment: breaker defaults, 512 in-flight requests,
// deadline propagation with a 50ms fetch floor and a 25ms hedge. Enabled
// also caps retries at the breaker's half-open probe budget per window.
func DefaultOverload() Overload {
	return Overload{
		Enabled:           true,
		MaxInFlight:       512,
		PropagateDeadline: true,
		MinFetchBudget:    50 * time.Millisecond,
		Hedge:             25 * time.Millisecond,
	}
}

// Validate checks an Overload assembled from outside input and names the
// first value no operator can have meant. Zero keeps each field's documented
// meaning (stage absent, or the default).
func (ov Overload) Validate() error {
	b := ov.Breaker
	switch {
	case ov.MaxInFlight < 0:
		return fmt.Errorf("server: negative MaxInFlight %d", ov.MaxInFlight)
	case ov.MinFetchBudget < 0:
		return fmt.Errorf("server: negative MinFetchBudget %v", ov.MinFetchBudget)
	case ov.Hedge < 0:
		return fmt.Errorf("server: negative Hedge %v", ov.Hedge)
	case b.FailureThreshold < 0 || b.FailureThreshold > 1:
		return fmt.Errorf("server: breaker FailureThreshold %v, want in (0,1] (0 = default)", b.FailureThreshold)
	case b.Window < 0 || b.OpenFor < 0:
		return fmt.Errorf("server: negative breaker Window %v or OpenFor %v", b.Window, b.OpenFor)
	}
	return nil
}

// Ready reports whether the proxy is fit to receive new traffic: false while
// the origin circuit breaker is open (every miss would be shed), so a
// load-balancing layer consuming readiness sheds this server's ring weight
// until the origin recovers.
func (p *Proxy) Ready() bool {
	return p.brk == nil || p.brk.State() != breaker.Open
}

// BreakerSnapshot returns the circuit breaker's coherent counter snapshot,
// and whether the pipeline has a breaker at all.
func (p *Proxy) BreakerSnapshot() (breaker.Snapshot, bool) {
	if p.brk == nil {
		return breaker.Snapshot{}, false
	}
	return p.brk.SnapshotNow(), true
}

// clientDeadline returns the end-to-end deadline the client propagated in
// DeadlineHeader, or 0 when the stage is off or the header is absent,
// malformed, or too large for a time.Duration (the header is outside input:
// a value that would wrap must not turn into a tiny or negative deadline).
func (p *Proxy) clientDeadline(r *http.Request) time.Duration {
	if !p.ov.PropagateDeadline {
		return 0
	}
	ms, err := strconv.ParseInt(r.Header.Get(DeadlineHeader), 10, 64)
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// shed answers a request the overload stages refuse to do full work for:
// stale when possible, otherwise a cheap 503 with Retry-After — never by
// queueing behind a sick origin. The shed, a deadline reason and the answer
// are counted in one update, so no snapshot sees DeadlineSheds lead Shed or a
// shed 503 without its error.
func (p *Proxy) shed(w http.ResponseWriter, req trace.Request, reason string) {
	stale := p.servedBefore(req.ID)
	switch deadline := reason == "deadline"; {
	case deadline && stale:
		p.stats.add(req.ID, func(s *ProxyStats) { s.Shed++; s.DeadlineSheds++; s.StaleServes++ })
	case deadline:
		p.stats.add(req.ID, func(s *ProxyStats) { s.Shed++; s.DeadlineSheds++; s.Errors++ })
	case stale:
		p.stats.add(req.ID, func(s *ProxyStats) { s.Shed++; s.StaleServes++ })
	default:
		p.stats.add(req.ID, func(s *ProxyStats) { s.Shed++; s.Errors++ })
	}
	if stale {
		p.serveStale(w, req.Size, reason)
		return
	}
	w.Header().Set(ShedHeader, reason)
	w.Header().Set("Retry-After", retryAfterSeconds)
	http.Error(w, fmt.Sprintf("server: overloaded (%s)", reason), http.StatusServiceUnavailable)
}

// fetchMaybeHedged runs one breaker-accounted fetch attempt, launching a
// hedged second fetch if the first is still quiet after the hedge delay — or
// immediately, if the first fails before the delay (hedge-on-failure: a fast
// origin error costs one backup request, not a budgeted retry). The pair
// shares one breaker permit and one combined outcome, so hedging cannot
// outrun the breaker the way a retry storm can; whichever fetch answers
// first wins and the loser's context is cancelled.
func (p *Proxy) fetchMaybeHedged(ctx context.Context, id uint64, size int64) error {
	if p.ov.Hedge <= 0 {
		return p.fetchDiscard(ctx, id, size)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		hedged bool
		err    error
	}
	results := make(chan outcome, 2)
	launch := func(hedged bool) {
		results <- outcome{hedged: hedged, err: p.fetchDiscard(hctx, id, size)}
	}
	go launch(false)
	timer := time.NewTimer(p.ov.Hedge)
	defer timer.Stop()
	outstanding := 1
	hedgeFired := false
	hedge := func() {
		hedgeFired = true
		outstanding++
		p.stats.add(id, func(s *ProxyStats) { s.Hedges++; s.OriginFetches++ })
		go launch(true)
	}
	var firstErr error
	for {
		select {
		case res := <-results:
			outstanding--
			if res.err == nil {
				if res.hedged {
					p.stats.add(id, func(s *ProxyStats) { s.HedgeWins++ })
				}
				return nil // deferred cancel reaps the loser
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if !hedgeFired && ctx.Err() == nil {
				hedge() // hedge-on-failure: don't wait out the timer
				continue
			}
			if outstanding == 0 {
				return firstErr
			}
		case <-timer.C:
			if !hedgeFired {
				hedge()
			}
		}
	}
}
