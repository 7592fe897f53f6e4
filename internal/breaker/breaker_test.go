package breaker

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually-advanced deterministic time source.
type fakeClock struct {
	mu sync.Mutex
	// t is the current instant; guarded by mu.
	t time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(0, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testConfig returns a small deterministic breaker config on the given clock:
// 100ms window over 10 buckets, threshold 0.5 with a floor of 4 outcomes,
// 50ms open cool-off, 2 half-open probes.
func testConfig(c *fakeClock) Config {
	return Config{
		Window:           100 * time.Millisecond,
		Buckets:          10,
		FailureThreshold: 0.5,
		MinRequests:      4,
		OpenFor:          50 * time.Millisecond,
		HalfOpenProbes:   2,
		Clock:            c.Now,
	}
}

// step is one scripted action against the breaker.
type step struct {
	// advance moves the fake clock before the action.
	advance time.Duration
	// action: "allow" expects wantAllow; "ok"/"fail" record an outcome.
	action    string
	wantAllow bool
	// wantState is checked after the action.
	wantState State
}

func runScript(t *testing.T, b *Breaker, clock *fakeClock, script []step) {
	t.Helper()
	for i, s := range script {
		clock.Advance(s.advance)
		switch s.action {
		case "allow":
			if got := b.Allow(); got != s.wantAllow {
				t.Fatalf("step %d: Allow() = %v, want %v", i, got, s.wantAllow)
			}
		case "ok":
			b.Record(true)
		case "fail":
			b.Record(false)
		default:
			t.Fatalf("step %d: unknown action %q", i, s.action)
		}
		if got := b.State(); got != s.wantState {
			t.Fatalf("step %d (%s): state = %v, want %v", i, s.action, got, s.wantState)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	tests := []struct {
		name   string
		script []step
	}{
		{
			// Below the MinRequests floor the ratio is never evaluated: three
			// straight failures cannot trip a breaker with a floor of four.
			name: "volume floor holds",
			script: []step{
				{0, "fail", false, Closed},
				{0, "fail", false, Closed},
				{0, "fail", false, Closed},
				{0, "allow", true, Closed},
			},
		},
		{
			// Four outcomes at 50% failures trips exactly at the threshold.
			name: "trips at threshold",
			script: []step{
				{0, "ok", false, Closed},
				{0, "ok", false, Closed},
				{0, "fail", false, Closed},
				{0, "fail", false, Open},
				{0, "allow", false, Open},
			},
		},
		{
			// Open denies until OpenFor elapses, then half-open admits
			// exactly HalfOpenProbes probes; two successes close it.
			name: "open to half-open to closed",
			script: []step{
				{0, "fail", false, Closed},
				{0, "fail", false, Closed},
				{0, "fail", false, Closed},
				{0, "fail", false, Open},
				{10 * time.Millisecond, "allow", false, Open},
				{40 * time.Millisecond, "allow", true, HalfOpen},
				{0, "allow", true, HalfOpen},
				{0, "allow", false, HalfOpen}, // probe budget spent
				{0, "ok", false, HalfOpen},
				{0, "ok", false, Closed},
				{0, "allow", true, Closed},
			},
		},
		{
			// A failed probe reopens the breaker and restarts the cool-off.
			name: "probe failure reopens",
			script: []step{
				{0, "fail", false, Closed},
				{0, "fail", false, Closed},
				{0, "fail", false, Closed},
				{0, "fail", false, Open},
				{50 * time.Millisecond, "allow", true, HalfOpen},
				{0, "fail", false, Open},
				{40 * time.Millisecond, "allow", false, Open}, // cool-off restarted
				{10 * time.Millisecond, "allow", true, HalfOpen},
			},
		},
		{
			// Old failures age out of the rolling window: after the window
			// passes, fresh successes dominate and the breaker stays closed.
			name: "window expiry forgets failures",
			script: []step{
				{0, "fail", false, Closed},
				{0, "fail", false, Closed},
				{0, "fail", false, Closed},
				{150 * time.Millisecond, "ok", false, Closed},
				{0, "ok", false, Closed},
				{0, "ok", false, Closed},
				{0, "fail", false, Closed}, // 1/4 failures < 0.5
			},
		},
		{
			// Closing resets the window, so pre-trip failures cannot re-trip
			// the breaker right after recovery.
			name: "close resets window",
			script: []step{
				{0, "fail", false, Closed},
				{0, "fail", false, Closed},
				{0, "fail", false, Closed},
				{0, "fail", false, Open},
				{50 * time.Millisecond, "allow", true, HalfOpen},
				{0, "ok", false, HalfOpen},
				{0, "allow", true, HalfOpen},
				{0, "ok", false, Closed},
				{0, "fail", false, Closed}, // fresh window: 1 outcome, under floor
				{0, "allow", true, Closed},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			clock := newFakeClock()
			runScript(t, New(testConfig(clock)), clock, tt.script)
		})
	}
}

func TestBreakerSnapshotCounters(t *testing.T) {
	clock := newFakeClock()
	b := New(testConfig(clock))
	// Trip, cool off, probe-fail (reopen), cool off, probe to recovery.
	for i := 0; i < 4; i++ {
		b.Record(false)
	}
	clock.Advance(50 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("expected half-open probe to be allowed")
	}
	b.Record(false) // reopen
	clock.Advance(50 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("probe %d denied", i)
		}
		b.Record(true)
	}
	s := b.SnapshotNow()
	if s.State != Closed {
		t.Fatalf("state = %v, want Closed", s.State)
	}
	if s.Opens != 1 || s.HalfOpens != 2 || s.Reopens != 1 || s.Closes != 1 {
		t.Fatalf("transitions = opens %d halfopens %d reopens %d closes %d, want 1/2/1/1",
			s.Opens, s.HalfOpens, s.Reopens, s.Closes)
	}
	if s.Probes != 3 {
		t.Fatalf("probes = %d, want 3", s.Probes)
	}
	if s.WindowRequests != 0 {
		t.Fatalf("window requests = %d, want 0 after close reset", s.WindowRequests)
	}
}

func TestBudget(t *testing.T) {
	clock := newFakeClock()
	g := NewBudget(2, 100*time.Millisecond, clock.Now)
	for i := 0; i < 2; i++ {
		if !g.Allow() {
			t.Fatalf("token %d denied within budget", i)
		}
	}
	if g.Allow() {
		t.Fatal("third token allowed over a budget of 2")
	}
	// The reset is aligned to window multiples: 150 ms in is still the
	// second window, which holds exactly two tokens.
	clock.Advance(150 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if !g.Allow() {
			t.Fatalf("token %d denied after window reset", i)
		}
	}
	clock.Advance(40 * time.Millisecond)
	if g.Allow() {
		t.Fatal("third token allowed in the second window")
	}
	clock.Advance(10 * time.Millisecond)
	if !g.Allow() {
		t.Fatal("token denied at the third window's start")
	}
}

// TestHalfOpenProbeRace hammers a half-open breaker from many goroutines and
// asserts the probe budget is never exceeded: exactly HalfOpenProbes callers
// win admission per episode, no matter how many race for it, with snapshot
// reads interleaved.
func TestHalfOpenProbeRace(t *testing.T) {
	clock := newFakeClock()
	cfg := testConfig(clock)
	cfg.HalfOpenProbes = 3
	b := New(cfg)
	for i := 0; i < 4; i++ {
		b.Record(false)
	}
	if b.State() != Open {
		t.Fatal("breaker should be open")
	}
	clock.Advance(cfg.OpenFor)

	const goroutines = 64
	var admitted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b.Allow() {
				admitted.Add(1)
			}
			_ = b.SnapshotNow()
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != cfg.HalfOpenProbes {
		t.Fatalf("admitted %d probes, want exactly %d", got, cfg.HalfOpenProbes)
	}
	// The admitted probes all succeed: the breaker must close.
	for i := int64(0); i < cfg.HalfOpenProbes; i++ {
		b.Record(true)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v after successful probes, want Closed", b.State())
	}
	s := b.SnapshotNow()
	if s.Denied != int64(goroutines)-cfg.HalfOpenProbes {
		t.Fatalf("denied = %d, want %d", s.Denied, int64(goroutines)-cfg.HalfOpenProbes)
	}
}

// TestBudgetRace asserts the per-window cap holds under concurrent callers.
func TestBudgetRace(t *testing.T) {
	clock := newFakeClock()
	g := NewBudget(5, time.Second, clock.Now)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g.Allow() {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load(); got != 5 {
		t.Fatalf("admitted %d, want exactly 5", got)
	}
}

// TestReadsDoNotAdvance pins that State and SnapshotNow report what the last
// Allow or Record left and move nothing: an open breaker whose cool-off has
// elapsed reads Open, with its window intact, until the next Allow makes the
// transition — the front tier's readiness hook and the overload / flap
// reports depend on reads being pure.
func TestReadsDoNotAdvance(t *testing.T) {
	clock := newFakeClock()
	cfg := testConfig(clock)
	b := New(cfg)
	for i := 0; i < 4; i++ {
		b.Record(false)
	}
	clock.Advance(cfg.OpenFor + 2*cfg.Window)
	for i := 0; i < 3; i++ {
		s := b.SnapshotNow()
		if b.State() != Open || s.State != Open || s.HalfOpens != 0 {
			t.Fatalf("read %d after the cool-off elapsed: State() = %v, snapshot %+v, want Open and no half-open", i, b.State(), s)
		}
		if s.WindowRequests != 4 || s.WindowFailures != 4 {
			t.Fatalf("read %d rolled the window: %+v, want 4 of 4 failed", i, s)
		}
	}
	if !b.Allow() {
		t.Fatal("first Allow after the cool-off was denied, want a half-open probe")
	}
	if s := b.SnapshotNow(); s.State != HalfOpen || s.HalfOpens != 1 || s.WindowRequests != 0 {
		t.Fatalf("after Allow: %+v, want HalfOpen, one half-open, an aged-out window", s)
	}
}

// TestSnapshotsCoherentUnderTraffic runs State and SnapshotNow against
// concurrent Allow / Record traffic that also advances the clock, so the
// breaker trips, cools off, probes, reopens and closes throughout.
// Every snapshot is one instant under the breaker mutex: its counters obey
// the state machine's bookkeeping identities, the admission total never runs
// backwards, and once traffic stops it equals the number of Allow calls.
func TestSnapshotsCoherentUnderTraffic(t *testing.T) {
	clock := newFakeClock()
	b := New(testConfig(clock))

	const workers, iters = 4, 4_000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				clock.Advance(time.Millisecond)
				if b.Allow() {
					// The origin is sick and healthy in alternating 400ms
					// phases of fake time: trips and reopens, then a close.
					b.Record(clock.Now().UnixMilli()/400%2 == 1)
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	var lastCalls int64
	check := func() {
		t.Helper()
		s := b.SnapshotNow()
		// Every half-open episode was entered from an open or a reopen and
		// ends in exactly one close or reopen; only the current one is open.
		ended := s.Closes + s.Reopens
		if s.State == HalfOpen {
			ended++
		}
		if s.HalfOpens != ended || s.HalfOpens > s.Opens+s.Reopens {
			t.Fatalf("torn transition counters: %+v", s)
		}
		if s.Probes > s.Allowed || s.WindowFailures > s.WindowRequests {
			t.Fatalf("torn admission or window counters: %+v", s)
		}
		calls := s.Allowed + s.Denied
		if calls < lastCalls {
			t.Fatalf("admissions ran backwards: %d after %d", calls, lastCalls)
		}
		lastCalls = calls
		b.State() // no assertion possible mid-traffic; here for the race detector
	}
	for {
		check()
		select {
		case <-done:
			check()
			if lastCalls != workers*iters {
				t.Fatalf("final admissions: %d, want %d", lastCalls, workers*iters)
			}
			if s := b.SnapshotNow(); s.Reopens == 0 || s.Closes == 0 {
				t.Errorf("traffic never took the breaker through a reopen and a close: %+v", s)
			}
			return
		default:
		}
	}
}
