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
	s, err := NewEvictionSelector(h, EvictionSelectorConfig{Epoch: 20000, Round: 500})
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
	if !s.Exploiting() && len(s.Choices()) == 0 {
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
	if len(s.Choices()) < 2 {
		t.Fatalf("choices = %v, want 2 completed epochs", s.Choices())
	}
}

func TestSetHOCEvictionMigratesState(t *testing.T) {
	h := evictHier(t)
	h.SetExpert(cache.Expert{Freq: 1, MaxSize: 1 << 20})
	// Make one object HOC-resident under LRU.
	for i := 0; i < 4; i++ {
		h.Serve(cacheReq(7, 1000, int64(i)))
	}
	if !h.HOCContains(7) {
		t.Fatal("setup: object not resident")
	}
	before := h.HOCBytes()
	if err := h.SetHOCEviction("lfu"); err != nil {
		t.Fatal(err)
	}
	if !h.HOCContains(7) {
		t.Fatal("resident object lost in migration")
	}
	if h.HOCBytes() != before {
		t.Fatalf("bytes changed in migration: %d -> %d", before, h.HOCBytes())
	}
	if err := h.SetHOCEviction("belady"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// cacheReq builds a request for the migration test.
func cacheReq(id uint64, size int64, ts int64) trace.Request {
	return trace.Request{ID: id, Size: size, Time: ts}
}
