package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
)

// nullRW is a ResponseWriter with a pre-allocated header map and a discarding
// body writer, so allocation measurements see only the proxy's own work — not
// net/http's connection machinery or the recorder's body buffer.
type nullRW struct {
	h http.Header
	n int64
}

func (w *nullRW) Header() http.Header { return w.h }

func (w *nullRW) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (w *nullRW) WriteHeader(int) {}

// hitProxy builds a proxy over a sharded static decider, warms object 1 into
// the HOC (miss → dc-hit → hoc-hit takes three serves), and returns it.
func hitProxy(t testing.TB, res Resilience, ov Overload) *Proxy {
	t.Helper()
	dec := staticDecider(t, 4)
	origin := httptest.NewServer(&Origin{})
	t.Cleanup(origin.Close)
	proxy := NewOverloadProxy(dec, origin.URL, 0, res, ov)
	for i := 0; i < 3; i++ {
		w := httptest.NewRecorder()
		proxy.ServeHTTP(w, httptest.NewRequest("GET", "/obj/1?size=4096", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("warm serve %d: status %d", i, w.Code)
		}
	}
	return proxy
}

// TestServeHitZeroAllocs is the committed form of the fast path's headline
// claim: the pipeline's hit path — URL parse, admission, Lookup, decider
// commit (including batched counter publication), pre-serialized headers,
// static-chunk body — performs zero heap allocations per request above
// net/http, with every optional stage absent and with every one present.
func TestServeHitZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  Resilience
		ov   Overload
	}{
		{"bare", Resilience{}, Overload{}},
		{"deployed", DefaultResilience(), DefaultOverload()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proxy := hitProxy(t, tc.res, tc.ov)
			w := &nullRW{h: make(http.Header, 4)}
			req := httptest.NewRequest("GET", "/obj/1?size=4096", nil)
			allocs := testing.AllocsPerRun(1000, func() {
				w.n = 0
				proxy.ServeHTTP(w, req)
				if w.n != 4096 {
					t.Fatalf("body: %d bytes, want 4096", w.n)
				}
			})
			if allocs != 0 {
				t.Errorf("serve-hit path: %.1f allocs/op, want 0", allocs)
			}
			if got := w.h.Get("X-Cache"); got != "hoc-hit" {
				t.Fatalf("X-Cache = %q, want hoc-hit", got)
			}
			if got := w.h.Get("Content-Length"); got != "4096" {
				t.Fatalf("Content-Length = %q, want 4096", got)
			}
		})
	}
}

// BenchmarkProxyServeHitDirect times the serve-hit path without the HTTP
// transport (direct handler call on a discarding ResponseWriter); ReportAllocs
// keeps the 0 allocs/op claim visible in `make microbench` output.
func BenchmarkProxyServeHitDirect(b *testing.B) {
	proxy := hitProxy(b, DefaultResilience(), DefaultOverload())
	w := &nullRW{h: make(http.Header, 4)}
	req := httptest.NewRequest("GET", "/obj/1?size=4096", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proxy.ServeHTTP(w, req)
	}
}

// TestCopyBufPoolStress drives the pooled-buffer seam from concurrent
// goroutines (run under -race by `make race`): buffers come back full-size
// and writes to a borrowed buffer never race.
func TestCopyBufPoolStress(t *testing.T) {
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b := getCopyBuf()
				if len(*b) != copyBufSize {
					t.Errorf("pooled buffer len %d, want %d", len(*b), copyBufSize)
				}
				(*b)[0] = byte(i)
				(*b)[copyBufSize-1] = byte(seed)
				putCopyBuf(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestContentLengthValueConcurrent hammers the lock-free Content-Length cache
// with colliding sizes from many goroutines: whatever entry a slot holds, the
// returned value must always serialize the requested size.
func TestContentLengthValueConcurrent(t *testing.T) {
	const workers, iters = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// A small size set forces both cache hits and slot collisions.
				size := int64((seed*31+i)%17 + 1)
				v := contentLengthValue(size)
				if len(v) != 1 || v[0] != strconv.FormatInt(size, 10) {
					t.Errorf("contentLengthValue(%d) = %v", size, v)
				}
			}
		}(g)
	}
	wg.Wait()
}
