package server

import (
	"net/http/httptest"
	"testing"
)

func BenchmarkOriginAccountAtomic(b *testing.B) {
	var o Origin
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			o.account(1000)
		}
	})
}

// BenchmarkProxyHOCHit measures the proxy's in-memory fast path under
// parallel load: the decider call is the only serialized section; header and
// body writes run outside the lock.
func BenchmarkProxyHOCHit(b *testing.B) {
	dec := staticDecider(b, 1)
	origin := httptest.NewServer(&Origin{})
	defer origin.Close()
	proxy := NewOverloadProxy(dec, origin.URL, 0, DefaultResilience(), DefaultOverload())
	// Promote object 1 into the HOC: miss, miss → DC, dc-hit → HOC.
	for i := 0; i < 3; i++ {
		w := httptest.NewRecorder()
		proxy.ServeHTTP(w, httptest.NewRequest("GET", "/obj/1?size=4096", nil))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			w := httptest.NewRecorder()
			proxy.ServeHTTP(w, httptest.NewRequest("GET", "/obj/1?size=4096", nil))
			if w.Code != 200 || w.Header().Get("X-Cache") != "hoc-hit" {
				b.Fatalf("status %d, X-Cache %q", w.Code, w.Header().Get("X-Cache"))
			}
		}
	})
}
