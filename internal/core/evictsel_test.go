package core

import (
	"testing"

	"darwin/internal/cache"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

func evictHier(t *testing.T) *cache.Hierarchy {
	t.Helper()
	h, err := cache.New(cache.Config{HOCBytes: 256 << 10, DCBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestEvictionSelectorValidation(t *testing.T) {
	h := evictHier(t)
	if _, err := NewEvictionSelector(nil, EvictionSelectorConfig{Epoch: 1000, Round: 100}); err == nil {
		t.Error("nil hierarchy accepted")
	}
	if _, err := NewEvictionSelector(h, EvictionSelectorConfig{Epoch: 100, Round: 100}); err == nil {
		t.Error("epoch too short accepted")
	}
}

func TestEvictionSelectorIdentifies(t *testing.T) {
	h := evictHier(t)
	// One epoch spans the trace, so identification must finish inside it.
	s, err := NewEvictionSelector(h, EvictionSelectorConfig{Epoch: 20001, Round: 500})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.ImageDownloadMix(50, 20000, 88)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Requests {
		s.Serve(r)
	}
	if !s.exploiting {
		t.Fatal("selector never committed to a policy")
	}
	deployed := s.Deployed()
	found := false
	for _, p := range []string{"lru", "s4lru", "lfu", "gdsf"} {
		if deployed == p {
			found = true
		}
	}
	if !found {
		t.Fatalf("deployed policy %q not a candidate", deployed)
	}
	if m := s.Metrics(); m.Requests != int64(tr.Len()) {
		t.Fatalf("requests = %d", m.Requests)
	}
}

func TestEvictionSelectorEpochRollover(t *testing.T) {
	h := evictHier(t)
	s, err := NewEvictionSelector(h, EvictionSelectorConfig{Epoch: 6000, Round: 300})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.ImageDownloadMix(100, 13000, 89)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Requests {
		s.Serve(r)
	}
	// Two completed epochs: the third has counted the last 1,000 requests.
	if s.epochReqs != 1000 {
		t.Fatalf("epoch position %d after 13,000 requests, want 1000", s.epochReqs)
	}
}

func TestSetHOCEvictionMigratesState(t *testing.T) {
	h := evictHier(t)
	h.SetExpert(cache.Expert{Freq: 1, MaxSize: 1 << 20})
	// Make one object HOC-resident under LRU.
	for i := 0; i < 4; i++ {
		h.Serve(cacheReq(7, 1000, int64(i)))
	}
	if h.Lookup(7) != cache.HOCHit {
		t.Fatal("setup: object not resident")
	}
	hocBytes := func() (n int64) {
		for _, o := range h.State().HOC {
			n += o.Size
		}
		return n
	}
	before := hocBytes()
	if err := h.SetHOCEviction("lfu"); err != nil {
		t.Fatal(err)
	}
	if h.Lookup(7) != cache.HOCHit {
		t.Fatal("resident object lost in migration")
	}
	if after := hocBytes(); after != before {
		t.Fatalf("bytes changed in migration: %d -> %d", before, after)
	}
	if err := h.SetHOCEviction("belady"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// cacheReq builds a request for the migration test.
func cacheReq(id uint64, size int64, ts int64) trace.Request {
	return trace.Request{ID: id, Size: size, Time: ts}
}
