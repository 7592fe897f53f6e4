package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"darwin/internal/cache"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// staticDecider builds the static-expert decider the package's tests share,
// over a sharded engine with the given shard count (1 = one lock, the serial
// hierarchy's behaviour).
func staticDecider(t testing.TB, shards int) *cache.Sharded {
	t.Helper()
	dec, err := cache.NewSharded(cache.Config{HOCBytes: 256 << 10, DCBytes: 32 << 20,
		Expert: cache.Expert{Freq: 1, MaxSize: 1 << 20}}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// testbed spins up an origin and a bare-pipeline proxy around a static expert.
func testbed(t *testing.T, originLatency, dcLatency time.Duration) (*httptest.Server, *httptest.Server, *Proxy) {
	t.Helper()
	origin := &Origin{Latency: originLatency}
	originSrv := httptest.NewServer(origin)
	t.Cleanup(originSrv.Close)
	dec := staticDecider(t, 1)
	proxy := NewOverloadProxy(dec, originSrv.URL, dcLatency, Resilience{}, Overload{})
	proxySrv := httptest.NewServer(proxy)
	t.Cleanup(proxySrv.Close)
	return originSrv, proxySrv, proxy
}

func get(t *testing.T, base string, id uint64, size int64) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/obj/%d?size=%d", base, id, size))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestOriginServesExactBytes(t *testing.T) {
	origin := &Origin{}
	srv := httptest.NewServer(origin)
	defer srv.Close()
	resp, body := get(t, srv.URL, 42, 100000)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(body) != 100000 {
		t.Fatalf("body = %d bytes", len(body))
	}
	reqs, bytes := origin.Stats()
	if reqs != 1 || bytes != 100000 {
		t.Fatalf("stats = %d/%d", reqs, bytes)
	}
}

func TestOriginRejectsBadURL(t *testing.T) {
	srv := httptest.NewServer(&Origin{})
	defer srv.Close()
	for _, path := range []string{"/obj/abc?size=10", "/obj/1?size=-5", "/nope", "/obj/1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("path %q: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestProxyCacheTransitions(t *testing.T) {
	_, proxySrv, _ := testbed(t, 0, 0)
	// Same object four times: miss, miss(->DC), dc-hit(->HOC), hoc-hit.
	want := []string{"miss", "miss", "dc-hit", "hoc-hit"}
	for i, w := range want {
		resp, body := get(t, proxySrv.URL, 7, 5000)
		if got := resp.Header.Get("X-Cache"); got != w {
			t.Fatalf("request %d: X-Cache = %q, want %q", i+1, got, w)
		}
		if len(body) != 5000 {
			t.Fatalf("request %d: body %d bytes", i+1, len(body))
		}
	}
}

func TestProxyMidgressDropsWithCaching(t *testing.T) {
	_, proxySrv, _ := testbed(t, 0, 0)
	for i := 0; i < 10; i++ {
		get(t, proxySrv.URL, 99, 1000)
	}
	// After the object is cached, the origin must not see all 10 requests.
	resp, _ := get(t, proxySrv.URL, 99, 1000)
	if resp.Header.Get("X-Cache") != "hoc-hit" {
		t.Fatalf("object not HOC-resident after repeats: %s", resp.Header.Get("X-Cache"))
	}
}

func TestProxyLatencyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("latency injection test")
	}
	_, proxySrv, _ := testbed(t, 30*time.Millisecond, 10*time.Millisecond)
	timeGet := func() (time.Duration, string) {
		start := time.Now()
		resp, _ := get(t, proxySrv.URL, 5, 2000)
		return time.Since(start), resp.Header.Get("X-Cache")
	}
	d1, c1 := timeGet() // miss: origin latency
	timeGet()           // second miss → DC admit
	d3, c3 := timeGet() // dc hit: disk latency, promotes to HOC
	d4, c4 := timeGet() // hoc hit: fast
	if c1 != "miss" || c3 != "dc-hit" || c4 != "hoc-hit" {
		t.Fatalf("transitions: %s %s %s", c1, c3, c4)
	}
	if d4 >= d3 || d3 >= d1 {
		t.Fatalf("latency ordering violated: hoc %v, dc %v, miss %v", d4, d3, d1)
	}
}

// TestConstructorRefusesSerialDecider: the proxy calls its decider from many
// goroutines, so a decider over a bare Hierarchy is refused at construction
// with a message naming the one-shard replacement.
func TestConstructorRefusesSerialDecider(t *testing.T) {
	dec, err := cache.New(cache.Config{HOCBytes: 256 << 10, DCBytes: 32 << 20,
		Expert: cache.Expert{Freq: 1, MaxSize: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"not safe for concurrent callers", "NewSharded(cfg, 1)"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	NewOverloadProxy(dec, "http://unused", 0, Resilience{}, Overload{})
	t.Fatal("constructor accepted a decider with Concurrent() == false")
}

// TestStageMatrixInvisibleWhenIdle: a stage with nothing to do changes
// nothing. The same 2k-request script against a fault-free origin, one
// request at a time, yields identical X-Cache sequences and identical decider
// metrics whether the pipeline is bare, carries the resilience stages, or
// carries the whole deployed stack.
func TestStageMatrixInvisibleWhenIdle(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 2000, 23)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(&Origin{})
	defer originSrv.Close()
	run := func(res Resilience, ov Overload) (string, cache.Metrics) {
		dec := staticDecider(t, 1)
		proxy := NewOverloadProxy(dec, originSrv.URL, 0, res, ov)
		var seq strings.Builder
		for _, r := range tr.Requests {
			w := httptest.NewRecorder()
			proxy.ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/obj/%d?size=%d", r.ID, r.Size), nil))
			if w.Code != http.StatusOK {
				t.Fatalf("object %d: status %d", r.ID, w.Code)
			}
			seq.WriteString(w.Header().Get("X-Cache"))
			seq.WriteByte('\n')
		}
		return seq.String(), dec.Metrics()
	}
	wantSeq, wantM := run(Resilience{}, Overload{})
	if wantM.Requests != 2000 || wantM.HOCHits == 0 || wantM.DCHits == 0 || wantM.Misses == 0 {
		t.Fatalf("script does not exercise every outcome: %+v", wantM)
	}
	for _, arm := range []struct {
		name string
		res  Resilience
		ov   Overload
	}{
		{"resilient", DefaultResilience(), Overload{}},
		{"deployed", DefaultResilience(), DefaultOverload()},
	} {
		seq, m := run(arm.res, arm.ov)
		if seq != wantSeq {
			t.Errorf("%s: X-Cache sequence differs from the bare pipeline's", arm.name)
		}
		if m != wantM {
			t.Errorf("%s: decider metrics %+v, bare pipeline %+v", arm.name, m, wantM)
		}
	}
}

func TestProxyMetrics(t *testing.T) {
	_, proxySrv, proxy := testbed(t, 0, 0)
	for i := 0; i < 4; i++ {
		get(t, proxySrv.URL, 3, 1000)
	}
	m := proxy.Metrics()
	if m.Requests != 4 || m.HOCHits != 1 || m.DCHits != 1 || m.Misses != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestRunLoadBasics(t *testing.T) {
	_, proxySrv, _ := testbed(t, 0, 0)
	tr, err := tracegen.ImageDownloadMix(50, 300, 71)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLoad(context.Background(), tr, LoadConfig{ProxyURL: proxySrv.URL, Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Requests != 300 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.HOCHits+res.DCHits+res.Misses != 300 {
		t.Fatalf("X-Cache breakdown inconsistent: %d+%d+%d", res.HOCHits, res.DCHits, res.Misses)
	}
	if len(res.FirstByte) != 300 {
		t.Fatalf("latencies = %d", len(res.FirstByte))
	}
	if res.ThroughputBps() <= 0 {
		t.Fatal("no throughput")
	}
	if res.LatencyPercentile(50) <= 0 {
		t.Fatal("no median latency")
	}
	var want int64
	for _, r := range tr.Requests {
		want += r.Size
	}
	if res.Bytes != want {
		t.Fatalf("bytes = %d, want %d", res.Bytes, want)
	}
}

func TestRunLoadValidation(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{{ID: 1, Size: 1}}}
	if _, err := RunLoad(context.Background(), tr, LoadConfig{ProxyURL: "http://x", Concurrency: 0}); err == nil {
		t.Error("zero concurrency accepted")
	}
	if _, err := RunLoad(context.Background(), &trace.Trace{}, LoadConfig{ProxyURL: "http://x", Concurrency: 1}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestRunLoadCountsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusBadGateway)
	}))
	defer srv.Close()
	tr := &trace.Trace{Requests: []trace.Request{{ID: 1, Size: 10}, {ID: 2, Size: 10}}}
	res, err := RunLoad(context.Background(), tr, LoadConfig{ProxyURL: srv.URL, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 5xx responses are classified as errors; accounting must stay
	// consistent either way.
	if res.Requests+res.Errors != 2 {
		t.Fatalf("accounting off: %+v", res)
	}
	if res.Status5xx != 2 {
		t.Fatalf("5xx not classified: %+v", res)
	}
}

func TestLoadResultZero(t *testing.T) {
	var r LoadResult
	if r.ThroughputBps() != 0 || r.LatencyPercentile(99) != 0 {
		t.Fatal("zero result should yield zeros")
	}
	// Out-of-range percentiles clamp to the extremes; they used to index out
	// of bounds (101 samples make p = -1 and p = 101 land one slot outside).
	for i := 101; i >= 1; i-- {
		r.FirstByte = append(r.FirstByte, time.Duration(i))
	}
	for p, want := range map[float64]time.Duration{-1: 1, 0: 1, 100: 101, 101: 101} {
		if got := r.LatencyPercentile(p); got != want {
			t.Errorf("LatencyPercentile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestProxyBadGatewayOnOriginFailure(t *testing.T) {
	dec, err := cache.NewSharded(cache.Config{HOCBytes: 1 << 20, DCBytes: 1 << 24, Expert: cache.Expert{Freq: 1, MaxSize: 1 << 20}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewOverloadProxy(dec, "http://127.0.0.1:1", 0, Resilience{}, Overload{}) // nothing listening
	srv := httptest.NewServer(proxy)
	defer srv.Close()
	resp, _ := get(t, srv.URL, 1, 100)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
}

// TestStatsCopiesEveryCounter: Stats copies every ProxyStats field. Bumping
// every field by a distinct amount, split over two updates, must surface every
// amount in exactly its own field.
func TestStatsCopiesEveryCounter(t *testing.T) {
	_, _, proxy := testbed(t, 0, 0)
	n := reflect.TypeFor[ProxyStats]().NumField()
	for i := 0; i < n; i++ {
		for _, amount := range []int64{1000, int64(i)} {
			proxy.stats.add(func(s *ProxyStats) {
				f := reflect.ValueOf(s).Elem().Field(i)
				f.SetInt(f.Int() + amount)
			})
		}
	}
	v := reflect.ValueOf(proxy.Stats())
	for i := 0; i < n; i++ {
		if got := v.Field(i).Int(); got != int64(1000+i) {
			t.Errorf("ProxyStats.%s = %d, want %d", v.Type().Field(i).Name, got, 1000+i)
		}
	}
}

// racingDecider answers Lookup and Serve from fixed values: the two sides of
// a commit race, forced.
type racingDecider struct{ lookup, serve cache.Result }

func (d racingDecider) Lookup(uint64) cache.Result       { return d.lookup }
func (d racingDecider) Serve(trace.Request) cache.Result { return d.serve }
func (d racingDecider) Metrics() cache.Metrics           { return cache.Metrics{} }
func (d racingDecider) Concurrent() bool                 { return true }

// TestCommitRaced: a commit whose Serve disagrees with the residency the
// request was routed on is counted — evicted between Lookup and Serve, or
// admitted by another request before this one's commit — and served anyway.
// Agreement, including HOC against DC, is not a race.
func TestCommitRaced(t *testing.T) {
	originSrv := httptest.NewServer(&Origin{})
	defer originSrv.Close()
	for _, tc := range []struct {
		lookup, serve cache.Result
		raced         int64
	}{
		{cache.HOCHit, cache.Miss, 1},  // evicted in between
		{cache.DCHit, cache.Miss, 1},   // evicted in between
		{cache.Miss, cache.DCHit, 1},   // admitted first by another request
		{cache.Seen, cache.HOCHit, 1},  // admitted first by another request
		{cache.DCHit, cache.HOCHit, 0}, // still a hit
		{cache.Miss, cache.Miss, 0},
		{cache.Seen, cache.Miss, 0},
	} {
		proxy := NewOverloadProxy(racingDecider{tc.lookup, tc.serve}, originSrv.URL, 0, Resilience{}, Overload{})
		w := httptest.NewRecorder()
		proxy.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/obj/1?size=100", nil))
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != tc.serve.String() {
			t.Errorf("Lookup %v, Serve %v: status %d, X-Cache %q, want 200 %v", tc.lookup, tc.serve, w.Code, w.Header().Get("X-Cache"), tc.serve)
		}
		if got := proxy.Stats().CommitRaced; got != tc.raced {
			t.Errorf("Lookup %v, Serve %v: CommitRaced %d, want %d", tc.lookup, tc.serve, got, tc.raced)
		}
	}
}
