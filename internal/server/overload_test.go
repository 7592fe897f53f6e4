package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"darwin/internal/breaker"
	"darwin/internal/faults"
	"darwin/internal/trace"
)

// overloadTestbed builds origin (behind optional middleware) and an
// overload-protected proxy.
func overloadTestbed(t *testing.T, res Resilience, ov Overload, wrap func(http.Handler) http.Handler) (*httptest.Server, *Proxy) {
	t.Helper()
	origin := &Origin{}
	var h http.Handler = origin
	if wrap != nil {
		h = wrap(origin)
	}
	originSrv := httptest.NewServer(h)
	t.Cleanup(originSrv.Close)
	dec := staticDecider(t, 1)
	proxy := NewOverloadProxy(dec, originSrv.URL, 0, res, ov)
	proxySrv := httptest.NewServer(proxy)
	t.Cleanup(proxySrv.Close)
	return proxySrv, proxy
}

// getDeadline issues a GET with a propagated client deadline.
func getDeadline(t *testing.T, base string, id uint64, size int64, deadline time.Duration) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/obj/"+strconv.FormatUint(id, 10)+"?size="+strconv.FormatInt(size, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if deadline > 0 {
		req.Header.Set(DeadlineHeader, strconv.FormatInt(deadline.Milliseconds(), 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestDeadlineShedNotRetry is the deadline-propagation contract: a client
// deadline shorter than an origin stall must produce a fast shed, not a
// retry storm that blows through the deadline N more times.
func TestDeadlineShedNotRetry(t *testing.T) {
	res := fastResilience() // MaxAttempts 4: plenty of retries available
	ov := Overload{
		Enabled:           true,
		PropagateDeadline: true,
		MinFetchBudget:    5 * time.Millisecond,
		RetryBudget:       -1, // uncapped: prove the deadline alone stops retries
	}
	proxySrv, proxy := overloadTestbed(t, res, ov, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(400 * time.Millisecond) // origin stall well past the deadline
			h.ServeHTTP(w, r)
		})
	})
	start := time.Now()
	resp := getDeadline(t, proxySrv.URL, 1, 1000, 60*time.Millisecond)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(ShedHeader); got != "deadline" {
		t.Fatalf("shed header %q, want \"deadline\"", got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 missing Retry-After")
	}
	// The response must arrive around the 60 ms deadline, not after the
	// 400 ms stall or a multiple of it.
	if elapsed > 300*time.Millisecond {
		t.Fatalf("shed took %v, want well under the origin stall", elapsed)
	}
	st := proxy.Stats()
	if st.Retries != 0 {
		t.Fatalf("retries = %d, want 0 (deadline must stop the retry loop)", st.Retries)
	}
	if st.DeadlineSheds == 0 || st.Shed == 0 {
		t.Fatalf("stats = %+v, want deadline sheds recorded", st)
	}
}

// TestAdmissionShedsOverBudget covers bounded in-flight admission: requests
// over MaxInFlight are answered immediately with 503+Retry-After (or stale),
// never queued behind the slow work that is hogging the budget.
func TestAdmissionShedsOverBudget(t *testing.T) {
	res := fastResilience()
	ov := Overload{Enabled: true, MaxInFlight: 1, RetryBudget: -1}
	var slow atomic.Bool
	proxySrv, proxy := overloadTestbed(t, res, ov, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if slow.Load() {
				time.Sleep(250 * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	})

	// Warm object 1 so it can be served stale later.
	if resp := getDeadline(t, proxySrv.URL, 1, 1000, 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d", resp.StatusCode)
	}

	slow.Store(true)
	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		getDeadline(t, proxySrv.URL, 2, 1000, 0) // occupies the only slot ~250ms
	}()
	time.Sleep(50 * time.Millisecond) // let the slot fill

	// A cold object over budget: cheap 503 with Retry-After.
	start := time.Now()
	resp := getDeadline(t, proxySrv.URL, 3, 1000, 0)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-budget status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(ShedHeader) != "inflight" || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-budget headers: shed=%q retry-after=%q", resp.Header.Get(ShedHeader), resp.Header.Get("Retry-After"))
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("shed took %v, want immediate (no queueing)", elapsed)
	}

	// A warm object over budget: degraded stale success beats a 503.
	resp = getDeadline(t, proxySrv.URL, 1, 1000, 0)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "stale" {
		t.Fatalf("warm shed: status %d X-Cache %q, want stale 200", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if resp.Header.Get(ShedHeader) != "inflight" {
		t.Fatalf("warm shed header %q", resp.Header.Get(ShedHeader))
	}
	<-occupied

	// Budget free again: normal service resumes.
	slow.Store(false)
	if resp := getDeadline(t, proxySrv.URL, 4, 1000, 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status %d", resp.StatusCode)
	}
	if st := proxy.Stats(); st.Shed < 2 {
		t.Fatalf("stats = %+v, want >= 2 sheds", st)
	}
}

// TestHedgeRescuesStalledFetch: with hedging on, a stalled first fetch is
// overtaken by the hedged second, and the client sees a fast success.
func TestHedgeRescuesStalledFetch(t *testing.T) {
	res := fastResilience()
	ov := Overload{Enabled: true, Hedge: 10 * time.Millisecond, RetryBudget: -1}
	var n atomic.Int64
	proxySrv, proxy := overloadTestbed(t, res, ov, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n.Add(1) == 1 {
				time.Sleep(400 * time.Millisecond) // only the first fetch stalls
			}
			h.ServeHTTP(w, r)
		})
	})
	start := time.Now()
	resp := getDeadline(t, proxySrv.URL, 7, 2000, 0)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("took %v, want the hedge to beat the 400ms stall", elapsed)
	}
	st := proxy.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("stats = %+v, want a hedge launched and won", st)
	}
}

// TestBreakerGatesReadiness wires the proxy's breaker into the Health
// readiness surface: tripping it flips /readyz to 503 naming the gate.
func TestBreakerGatesReadiness(t *testing.T) {
	ov := Overload{
		Enabled: true,
		Breaker: breaker.Config{MinRequests: 2, OpenFor: time.Hour},
	}
	_, proxy := overloadTestbed(t, fastResilience(), ov, nil)
	health := NewHealth(Gate{Name: "breaker", Ready: proxy.Ready})

	check := func(want int, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		health.Readyz(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rec.Code != want {
			t.Fatalf("readyz = %d (%q), want %d", rec.Code, rec.Body.String(), want)
		}
		if body != "" && !contains(rec.Body.String(), body) {
			t.Fatalf("readyz body %q, want substring %q", rec.Body.String(), body)
		}
	}
	check(http.StatusOK, "")
	for i := 0; i < 2; i++ { // trip the breaker directly
		if proxy.brk.Allow() {
			proxy.brk.Record(false)
		}
	}
	if proxy.Ready() {
		t.Fatal("proxy still ready with an open breaker")
	}
	check(http.StatusServiceUnavailable, "breaker")

	health.StartDrain()
	check(http.StatusServiceUnavailable, "draining")
	rec := httptest.NewRecorder()
	health.Healthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d while draining, want 200 (liveness is not readiness)", rec.Code)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestBurstGapsDeterministic pins the seeded flash-crowd schedule: identical
// config yields an identical schedule, burst positions dispatch back to
// back, baseline gaps are jittered around Gap, and the seed changes the
// jitter stream.
func TestBurstGapsDeterministic(t *testing.T) {
	b := Burst{Seed: 9, Gap: time.Millisecond, Every: 10, Len: 3}
	g1, g2 := b.Gaps(100), b.Gaps(100)
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("gap %d: %v != %v (schedule not deterministic)", i, g1[i], g2[i])
		}
	}
	for i, g := range g1 {
		if i%10 < 3 {
			if g != 0 {
				t.Fatalf("burst position %d has gap %v, want 0", i, g)
			}
		} else if g < b.Gap/2 || g > 3*b.Gap/2 {
			t.Fatalf("baseline position %d gap %v outside [%v, %v]", i, g, b.Gap/2, 3*b.Gap/2)
		}
	}
	b2 := b
	b2.Seed = 10
	g3 := b2.Gaps(100)
	same := true
	for i := range g1 {
		if g1[i] != g3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

// TestOverloadSheddingStress drives the full overload stack (admission,
// breaker, deadlines, hedging, retry budget) against a fault-injecting
// origin under concurrency. Exercised by `make race`: the point is that the
// shedding paths are data-race-free and every request is accounted exactly
// once.
func TestOverloadSheddingStress(t *testing.T) {
	res := fastResilience()
	ov := DefaultOverload()
	ov.MaxInFlight = 8
	ov.MinFetchBudget = 2 * time.Millisecond
	ov.Hedge = 5 * time.Millisecond
	proxySrv, proxy := overloadTestbed(t, res, ov, func(h http.Handler) http.Handler {
		inj := faults.New(faults.Config{
			Seed:      5,
			ErrorRate: 0.25,
			StallRate: 0.15,
			Stall:     60 * time.Millisecond,
		})
		return inj.Wrap(h)
	})

	tr := &trace.Trace{Name: "overload-stress"}
	for i := 0; i < 600; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Time: int64(i), ID: uint64(i % 40), Size: int64(500 + (i%7)*300),
		})
	}
	lr, err := RunLoad(context.Background(), tr, LoadConfig{
		ProxyURL:       proxySrv.URL,
		Concurrency:    16,
		RequestTimeout: 10 * time.Second,
		Deadline:       40 * time.Millisecond,
		Burst:          &Burst{Seed: 3, Gap: 200 * time.Microsecond, Every: 100, Len: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Requests+lr.Errors != tr.Len() {
		t.Fatalf("accounting: ok %d + errors %d != %d issued", lr.Requests, lr.Errors, tr.Len())
	}
	if lr.OnTime > lr.Requests {
		t.Fatalf("on-time %d > successes %d", lr.OnTime, lr.Requests)
	}
	if lr.Shed > lr.Status5xx {
		t.Fatalf("client sheds %d > 5xx %d", lr.Shed, lr.Status5xx)
	}
	st := proxy.Stats()
	if st.DeadlineSheds > st.Shed {
		t.Fatalf("stats %+v: deadline sheds exceed total sheds", st)
	}
	if snap, ok := proxy.BreakerSnapshot(); !ok || snap.Allowed == 0 {
		t.Fatalf("breaker snapshot %+v ok=%v, want breaker engaged", snap, ok)
	}
}

// TestClientDeadlineRejectsWrappingValues: DeadlineHeader is outside input. A
// value in range sets the miss's deadline — 300 ms is under this proxy's fetch
// floor, so the miss is shed as doomed work — while zero, negative, malformed
// and too-large values set none: a millisecond count whose product with
// time.Millisecond wraps must not become a tiny or negative deadline.
func TestClientDeadlineRejectsWrappingValues(t *testing.T) {
	ov := Overload{PropagateDeadline: true, MinFetchBudget: time.Hour}
	_, proxy := overloadTestbed(t, Resilience{}, ov, nil)
	for i, tc := range []struct {
		header string
		shed   bool
	}{
		{"300", true},
		{"0", false},
		{"-5", false},
		{"x", false},
		{"18446744073710", false}, // wraps to ≈448 µs
		{"9223372036855", false},  // wraps negative
		{"9223372036854", false},  // the largest accepted value: ≈292 years
	} {
		r := httptest.NewRequest(http.MethodGet, "/obj/"+strconv.Itoa(100+i)+"?size=100", nil)
		r.Header.Set(DeadlineHeader, tc.header)
		w := httptest.NewRecorder()
		proxy.ServeHTTP(w, r)
		if shed := w.Header().Get(ShedHeader) == "deadline"; shed != tc.shed {
			t.Errorf("%s %q: deadline shed %v, want %v (status %d)", DeadlineHeader, tc.header, shed, tc.shed, w.Code)
		} else if !tc.shed && w.Code != http.StatusOK {
			t.Errorf("%s %q: status %d, want 200", DeadlineHeader, tc.header, w.Code)
		}
	}
}
