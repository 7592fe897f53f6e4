package cache

import (
	"testing"
	"testing/quick"

	"darwin/internal/tracegen"
)

func TestS4LRUImplementsEviction(t *testing.T) {
	var _ Eviction = NewS4LRU(0)
	if _, err := NewEviction("s4lru"); err != nil {
		t.Fatal(err)
	}
}

func TestS4LRUBasics(t *testing.T) {
	s := drive(NewS4LRU(0))
	if _, ok := s.Victim(); ok {
		t.Fatal("empty policy has victim")
	}
	s.insert(1, 100)
	s.insert(2, 200)
	if s.Len() != 2 || s.Bytes() != 300 {
		t.Fatalf("Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	if s.size(2) != 200 {
		t.Fatal("lookup broken")
	}
	s.remove(1)
	if s.Len() != 1 || s.Bytes() != 200 {
		t.Fatal("remove broken")
	}
	s.insert(2, 250) // re-admission at a new size
	if s.Bytes() != 250 || s.Len() != 1 {
		t.Fatalf("reinsert: Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	if err := s.consistent(); err != nil {
		t.Fatal(err)
	}
}

func TestS4LRUPromotedSurvivesColdInserts(t *testing.T) {
	// A once-hit object sits in segment 1; cold objects flood segment 0 and
	// must be evicted before it.
	s := drive(NewS4LRU(0))
	s.insert(1, 1)
	s.touch(1) // promote to segment 1
	for id := uint64(100); id < 110; id++ {
		s.insert(id, 1)
	}
	for i := 0; i < 10; i++ {
		vid, ok := s.victim()
		if !ok {
			t.Fatal("no victim")
		}
		if vid == 1 {
			t.Fatalf("promoted object evicted before %d cold objects", 10-i)
		}
		s.remove(vid)
	}
	if !s.contains(1) {
		t.Fatal("promoted object lost")
	}
}

func TestS4LRUBalancingDemotes(t *testing.T) {
	// With a capacity hint, an over-full upper segment demotes its tail.
	p := NewS4LRU(40) // per-segment budget 10
	s := drive(p)
	for id := uint64(1); id <= 4; id++ {
		s.insert(id, 5)
		s.touch(id) // everything lands in segment 1 (20 bytes > 10 budget)
	}
	// The balance pass must have demoted some objects back to segment 0.
	if p.segBytes[1] > 10 {
		t.Fatalf("segment 1 holds %d bytes, budget 10", p.segBytes[1])
	}
	if s.Bytes() != 20 || s.Len() != 4 {
		t.Fatalf("totals wrong: %d/%d", s.Bytes(), s.Len())
	}
	// Every node's recorded segment is the list it sits on.
	for seg, list := range p.segs {
		for i := p.arena.nodes[list].next; i != list; i = p.arena.nodes[i].next {
			if int(p.seg[i]) != seg {
				t.Fatalf("node %d sits in segment %d but records %d", i, seg, p.seg[i])
			}
		}
	}
}

func TestS4LRUBytesInvariant(t *testing.T) {
	type op struct {
		Kind uint8
		ID   uint8
		Size uint16
	}
	f := func(ops []op) bool {
		p := NewS4LRU(1000)
		s := drive(p)
		for _, o := range ops {
			id := uint64(o.ID % 16)
			switch o.Kind % 3 {
			case 0:
				s.insert(id, int64(o.Size%100)+1)
			case 1:
				s.touch(id)
			case 2:
				s.remove(id)
			}
			if s.consistent() != nil || p.segBytes[0]+p.segBytes[1]+p.segBytes[2]+p.segBytes[3] != s.Bytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyWithS4LRU(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 20000, 61)
	if err != nil {
		t.Fatal(err)
	}
	cfg := EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20, WarmupFrac: 0.1, HOCEviction: "s4lru"}
	m, err := Evaluate(tr, Expert{Freq: 2, MaxSize: 50 << 10}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.HOCHits == 0 {
		t.Fatal("no HOC hits under s4lru")
	}
	// And capacity must hold.
	h, err := New(Config{HOCBytes: 64 << 10, DCBytes: 1 << 20, HOCEviction: "s4lru", Expert: Expert{Freq: 1, MaxSize: 50 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Requests[:5000] {
		h.Serve(r)
		if h.HOCBytes() > 64<<10 {
			t.Fatalf("HOC over capacity under s4lru: %d", h.HOCBytes())
		}
	}
}
