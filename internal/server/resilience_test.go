package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darwin/internal/baselines"
	"darwin/internal/cache"
	"darwin/internal/trace"
)

// fastResilience returns hardened settings with test-friendly backoffs.
func fastResilience() Resilience {
	r := DefaultResilience()
	r.FetchTimeout = 2 * time.Second
	r.BackoffBase = 1 * time.Millisecond
	return r
}

// resilientTestbed builds origin (behind optional middleware), a resilient
// proxy, and returns both servers plus the proxy and decider.
func resilientTestbed(t *testing.T, res Resilience, wrap func(http.Handler) http.Handler) (*Origin, *httptest.Server, *Proxy, *baselines.Static) {
	t.Helper()
	origin := &Origin{}
	var h http.Handler = origin
	if wrap != nil {
		h = wrap(origin)
	}
	originSrv := httptest.NewServer(h)
	t.Cleanup(originSrv.Close)
	dec := staticDecider(t, 1)
	proxy := NewOverloadProxy(dec, originSrv.URL, 0, res, Overload{})
	proxySrv := httptest.NewServer(proxy)
	t.Cleanup(proxySrv.Close)
	return origin, proxySrv, proxy, dec
}

// TestBackoffNeverOverflows: the doubling saturates at backoffCap for every
// retry count and base, where the unchecked shift went negative at retry 42
// with the default 5 ms base and panicked in the jitter draw.
func TestBackoffNeverOverflows(t *testing.T) {
	for _, tc := range []struct {
		name string
		base time.Duration
	}{
		{"default", 5 * time.Millisecond},
		{"base-above-cap", time.Second},
		{"huge-base", 1<<63 - 1},
		{"no-backoff", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proxy := NewOverloadProxy(staticDecider(t, 1), "http://unused", 0,
				Resilience{MaxAttempts: 101, BackoffBase: tc.base}, Overload{})
			var prev time.Duration
			for retry := 1; retry <= 100; retry++ {
				// Equal jitter: the delay lies in [d/2, d] for the pre-jitter d.
				d := proxy.backoff(retry)
				if d < 0 || d > backoffCap {
					t.Fatalf("retry %d: backoff %v outside [0, %v]", retry, d, backoffCap)
				}
				if tc.base > 0 && d < min(tc.base, backoffCap)/2 {
					t.Fatalf("retry %d: backoff %v below half the base", retry, d)
				}
				if d < prev/2 {
					t.Fatalf("retry %d: backoff %v fell from %v (overflow?)", retry, d, prev)
				}
				prev = d
			}
		})
	}
}

// TestValidateRejectsOutsideGarbage: the defaults validate, and each value no
// operator can have meant is named.
func TestValidateRejectsOutsideGarbage(t *testing.T) {
	if err := DefaultResilience().Validate(); err != nil {
		t.Errorf("DefaultResilience: %v", err)
	}
	if err := DefaultOverload().Validate(); err != nil {
		t.Errorf("DefaultOverload: %v", err)
	}
	badRes := map[string]func(*Resilience){
		"MaxAttempts":  func(r *Resilience) { r.MaxAttempts = 0 },
		"FetchTimeout": func(r *Resilience) { r.FetchTimeout = -time.Second },
		"BackoffBase":  func(r *Resilience) { r.BackoffBase = -1 },
	}
	for field, mutate := range badRes {
		r := DefaultResilience()
		mutate(&r)
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("bad %s: Validate() = %v, want an error naming it", field, err)
		}
	}
	badOv := map[string]func(*Overload){
		"MaxInFlight":      func(o *Overload) { o.MaxInFlight = -1 },
		"MinFetchBudget":   func(o *Overload) { o.MinFetchBudget = -1 },
		"Hedge":            func(o *Overload) { o.Hedge = -1 },
		"FailureThreshold": func(o *Overload) { o.Breaker.FailureThreshold = 1.5 },
		"Window":           func(o *Overload) { o.Breaker.Window = -1 },
	}
	for field, mutate := range badOv {
		o := DefaultOverload()
		mutate(&o)
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("bad %s: Validate() = %v, want an error naming it", field, err)
		}
	}
}

func TestParseObjectURLEdgeCases(t *testing.T) {
	cases := []struct {
		url    string
		wantID uint64
		wantSz int64
		ok     bool
	}{
		{"/obj/7?size=0", 7, 0, true},
		{"/obj/18446744073709551615?size=1", 1<<64 - 1, 1, true},
		{"/obj/", 0, 0, false},                            // empty id
		{"/obj", 0, 0, false},                             // prefix only
		{"/obj/abc?size=10", 0, 0, false},                 // non-numeric id
		{"/obj/-1?size=10", 0, 0, false},                  // negative id
		{"/obj/18446744073709551616?size=1", 0, 0, false}, // id overflow
		{"/obj/1", 0, 0, false},                           // missing size
		{"/obj/1?size=", 0, 0, false},                     // empty size
		{"/obj/1?size=-5", 0, 0, false},                   // negative size
		{"/obj/1?size=x", 0, 0, false},                    // non-numeric size
		{"/obj/1/2?size=5", 0, 0, false},                  // overlong path
		{"/other/1?size=5", 0, 0, false},                  // wrong prefix
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, c.url, nil)
		id, size, err := parseObjectURL(r)
		if c.ok {
			if err != nil || id != c.wantID || size != c.wantSz {
				t.Errorf("%q: got (%d, %d, %v), want (%d, %d, nil)", c.url, id, size, err, c.wantID, c.wantSz)
			}
		} else if err == nil {
			t.Errorf("%q: accepted as (%d, %d)", c.url, id, size)
		}
	}
}

// failFirst rejects the first n requests with the given status, then passes.
type failFirst struct {
	n      int64
	status int
	seen   atomic.Int64
	next   http.Handler
}

func (f *failFirst) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.seen.Add(1) <= f.n {
		http.Error(w, "flaky origin", f.status)
		return
	}
	f.next.ServeHTTP(w, r)
}

func TestProxyRetriesFlakyOrigin(t *testing.T) {
	var flaky *failFirst
	_, proxySrv, proxy, dec := resilientTestbed(t, fastResilience(), func(h http.Handler) http.Handler {
		flaky = &failFirst{n: 2, status: http.StatusInternalServerError, next: h}
		return flaky
	})
	resp, body := get(t, proxySrv.URL, 11, 5000)
	if resp.StatusCode != http.StatusOK || len(body) != 5000 {
		t.Fatalf("status %d, body %d bytes", resp.StatusCode, len(body))
	}
	st := proxy.Stats()
	if st.Retries < 2 || st.OriginFetches < 3 {
		t.Fatalf("stats = %+v, want >= 2 retries over >= 3 attempts", st)
	}
	if m := dec.Metrics(); m.Requests != 1 || m.Misses != 1 {
		t.Fatalf("decider metrics = %+v, want exactly one accounted miss", m)
	}
}

// down is a toggleable hard-failing origin middleware.
type down struct {
	broken atomic.Bool
	next   http.Handler
}

func (d *down) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.broken.Load() {
		http.Error(w, "origin down", http.StatusServiceUnavailable)
		return
	}
	d.next.ServeHTTP(w, r)
}

func TestProxyFetchFailureNoPhantomAdmission(t *testing.T) {
	res := fastResilience()
	res.ServeStale = false
	var sw *down
	_, proxySrv, proxy, dec := resilientTestbed(t, res, func(h http.Handler) http.Handler {
		sw = &down{next: h}
		return sw
	})
	sw.broken.Store(true)
	resp, _ := get(t, proxySrv.URL, 5, 1000)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	// The failed fetch must leave no trace in the decider: no request, no
	// miss, no admission — it is a proxy-level error.
	if m := dec.Metrics(); m.Requests != 0 || m.DCWrites != 0 {
		t.Fatalf("phantom accounting after failed fetch: %+v", m)
	}
	if st := proxy.Stats(); st.FetchFailures == 0 || st.Errors == 0 {
		t.Fatalf("stats = %+v, want fetch failure + proxy error recorded", st)
	}

	sw.broken.Store(false)
	resp, body := get(t, proxySrv.URL, 5, 1000)
	if resp.StatusCode != http.StatusOK || len(body) != 1000 {
		t.Fatalf("recovery: status %d, body %d", resp.StatusCode, len(body))
	}
	if m := dec.Metrics(); m.Requests != 1 || m.Misses != 1 {
		t.Fatalf("metrics after recovery = %+v", m)
	}
}

func TestProxyServesStaleWhenOriginDown(t *testing.T) {
	var sw *down
	_, proxySrv, proxy, dec := resilientTestbed(t, fastResilience(), func(h http.Handler) http.Handler {
		sw = &down{next: h}
		return sw
	})
	// Healthy first fetch: the proxy remembers the object.
	resp, _ := get(t, proxySrv.URL, 9, 2000)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("warm request: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	// Origin dies; the object is not yet DC-resident (Bloom admits on the
	// second miss), so the miss path runs, retries fail, and degraded mode
	// serves the remembered object stale.
	sw.broken.Store(true)
	resp, body := get(t, proxySrv.URL, 9, 2000)
	if resp.StatusCode != http.StatusOK || len(body) != 2000 {
		t.Fatalf("degraded: status %d, body %d", resp.StatusCode, len(body))
	}
	if got := resp.Header.Get("X-Cache"); got != "stale" {
		t.Fatalf("X-Cache = %q, want stale", got)
	}
	if resp.Header.Get("Warning") == "" {
		t.Fatal("stale response missing Warning header")
	}
	if st := proxy.Stats(); st.StaleServes != 1 {
		t.Fatalf("stats = %+v, want 1 stale serve", st)
	}
	// The stale serve is not accounted as a cache request either.
	if m := dec.Metrics(); m.Requests != 1 {
		t.Fatalf("metrics = %+v, want only the healthy request accounted", m)
	}
	// An object the proxy has never seen still 502s.
	resp, _ = get(t, proxySrv.URL, 999, 100)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("unknown object during outage: status %d, want 502", resp.StatusCode)
	}
}

func TestProxyCoalescesConcurrentMisses(t *testing.T) {
	origin, proxySrv, proxy, dec := resilientTestbed(t, fastResilience(), nil)
	origin.Latency = 30 * time.Millisecond // hold the fetch open so misses pile up

	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/obj/77?size=4000", proxySrv.URL))
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK || len(body) != 4000 {
				errs <- fmt.Errorf("status %d, body %d", resp.StatusCode, len(body))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	reqs, _ := origin.Stats()
	if reqs != 1 {
		t.Fatalf("origin saw %d fetches for %d concurrent misses, want 1", reqs, n)
	}
	st := proxy.Stats()
	if st.Coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
	// Every client request was committed to the decider after the shared
	// fetch succeeded.
	if m := dec.Metrics(); m.Requests != n {
		t.Fatalf("metrics = %+v, want %d accounted requests", m, n)
	}
}

// truncatingOrigin declares size bytes but sends only half.
func truncatingOrigin() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, size, err := parseObjectURL(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		w.WriteHeader(http.StatusOK)
		writeBody(w, size/2)
	})
}

// TestBarePipelineNoPhantomAdmit: with every resilience and overload stage
// absent the pipeline still fetches before it commits, so an origin that
// fails or truncates yields a clean 502 — never a short 200 — and leaves no
// trace in the decider: no request, no miss, no admission.
func TestBarePipelineNoPhantomAdmit(t *testing.T) {
	origins := map[string]http.Handler{
		"500": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "origin broken", http.StatusInternalServerError)
		}),
		"truncated": truncatingOrigin(),
	}
	for name, origin := range origins {
		t.Run(name, func(t *testing.T) {
			originSrv := httptest.NewServer(origin)
			defer originSrv.Close()
			dec := staticDecider(t, 1)
			proxy := NewOverloadProxy(dec, originSrv.URL, 0, Resilience{}, Overload{})
			proxySrv := httptest.NewServer(proxy)
			defer proxySrv.Close()

			resp, _ := get(t, proxySrv.URL, 3, 10000)
			if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("status = %d, want 502", resp.StatusCode)
			}
			if st := proxy.Stats(); st.Errors != 1 || st.OriginFetches != 1 {
				t.Fatalf("stats = %+v, want one fetch and one proxy error", st)
			}
			if m := dec.Metrics(); m != (cache.Metrics{}) {
				t.Fatalf("phantom accounting after failed fetch: %+v", m)
			}
		})
	}
}

func TestResilientProxyRetriesTruncatedOrigin(t *testing.T) {
	// A truncating origin under the resilient proxy: the fetch validator
	// detects the short body and retries; with a permanently-truncating
	// origin and no stale copy the client gets a clean 502, never a short 200.
	res := fastResilience()
	res.ServeStale = false
	originSrv := httptest.NewServer(truncatingOrigin())
	defer originSrv.Close()
	dec := staticDecider(t, 1)
	proxy := NewOverloadProxy(dec, originSrv.URL, 0, res, Overload{})
	proxySrv := httptest.NewServer(proxy)
	defer proxySrv.Close()

	resp, _ := get(t, proxySrv.URL, 4, 10000)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if st := proxy.Stats(); st.OriginFetches != int64(res.MaxAttempts) {
		t.Fatalf("stats = %+v, want %d validation-failed attempts", st, res.MaxAttempts)
	}
}

func TestRunLoadClassification(t *testing.T) {
	// id%4: 0 → 503, 1 → truncated body, 2 → stale serve, 3 → clean 200.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, size, err := parseObjectURL(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch id % 4 {
		case 0:
			http.Error(w, "down", http.StatusServiceUnavailable)
		case 1:
			w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
			w.WriteHeader(http.StatusOK)
			writeBody(w, size/2)
		case 2:
			w.Header().Set("X-Cache", "stale")
			w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
			w.WriteHeader(http.StatusOK)
			writeBody(w, size)
		default:
			w.Header().Set("X-Cache", "hoc-hit")
			w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
			w.WriteHeader(http.StatusOK)
			writeBody(w, size)
		}
	}))
	defer srv.Close()

	var reqs []trace.Request
	for id := uint64(0); id < 40; id++ {
		reqs = append(reqs, trace.Request{ID: id, Size: 4000})
	}
	res, err := RunLoad(context.Background(), &trace.Trace{Requests: reqs}, LoadConfig{ProxyURL: srv.URL, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status5xx != 10 || res.Truncated != 10 {
		t.Fatalf("classification = %+v", res)
	}
	if res.Errors != res.Status5xx+res.Truncated+res.Timeouts+res.OtherErrors {
		t.Fatalf("error classes don't sum: %+v", res)
	}
	if res.StaleServes != 10 || res.HOCHits != 10 {
		t.Fatalf("success breakdown = %+v", res)
	}
	if res.Requests != 20 || res.Requests+res.Errors != 40 {
		t.Fatalf("accounting = %+v", res)
	}
	if res.ErrorRate() != 0.5 {
		t.Fatalf("error rate = %v", res.ErrorRate())
	}
}

func TestProxyConcurrentMixedLoad(t *testing.T) {
	// Race-detector workout: concurrent hits, misses, coalesced fetches, and
	// metric reads against one resilient proxy.
	_, proxySrv, proxy, dec := resilientTestbed(t, fastResilience(), nil)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := uint64((seed*perWorker + i) % 20) // overlapping ids → hits + coalescing
				resp, err := http.Get(fmt.Sprintf("%s/obj/%d?size=%d", proxySrv.URL, id, 1000+id*10))
				if err != nil {
					failures.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				if i%10 == 0 {
					proxy.Metrics()
					proxy.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d failed requests", failures.Load())
	}
	if m := dec.Metrics(); m.Requests != workers*perWorker {
		t.Fatalf("accounted %d requests, want %d", m.Requests, workers*perWorker)
	}
}

// TestServeStaleCoversEveryRecord: serve-stale reads the engine's record, so
// it has no cap of its own. 65,537 distinct objects — one more than the 64k
// set the proxy once kept beside the engine — are each served once, the
// origin goes away, and every one of them is answered stale; an object never
// served still gets 502.
func TestServeStaleCoversEveryRecord(t *testing.T) {
	const n = 64<<10 + 1
	originSrv := httptest.NewServer(&Origin{})
	proxy := NewOverloadProxy(staticDecider(t, 1), originSrv.URL, 0, Resilience{ServeStale: true}, Overload{})
	serve := func(id uint64) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		proxy.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/obj/"+strconv.FormatUint(id, 10)+"?size=10", nil))
		return w
	}
	for id := uint64(1); id <= n; id++ {
		if w := serve(id); w.Code != http.StatusOK {
			t.Fatalf("object %d with the origin up: status %d", id, w.Code)
		}
	}
	originSrv.Close()
	for id := uint64(1); id <= n; id++ {
		if w := serve(id); w.Code != http.StatusOK || w.Header().Get("X-Cache") != "stale" {
			t.Fatalf("object %d with the origin down: status %d, X-Cache %q, want a stale 200", id, w.Code, w.Header().Get("X-Cache"))
		}
	}
	if st := proxy.Stats(); st.StaleServes != n {
		t.Fatalf("stale serves %d, want %d", st.StaleServes, n)
	}
	if w := serve(n + 1); w.Code != http.StatusBadGateway {
		t.Fatalf("never-served object with the origin down: status %d, want 502", w.Code)
	}
}
