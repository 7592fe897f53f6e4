package cache

import (
	"testing"
	"testing/quick"

	"darwin/internal/tracegen"
)

func TestGDSFImplementsEviction(t *testing.T) {
	var _ Eviction = NewGDSF()
	if _, err := NewEviction("gdsf"); err != nil {
		t.Fatal(err)
	}
}

func TestGDSFPrefersSmallFrequent(t *testing.T) {
	g := drive(NewGDSF())
	g.insert(1, 10)   // small
	g.insert(2, 1000) // large, same frequency → lower priority
	if id, _ := g.victim(); id != 2 {
		t.Fatalf("victim = %d, want the large object", id)
	}
	// Touch the large object repeatedly: frequency can overcome size.
	for i := 0; i < 200; i++ {
		g.touch(2)
	}
	if id, _ := g.victim(); id != 1 {
		t.Fatalf("victim = %d, want the now-cold small object", id)
	}
}

func TestGDSFInflationAges(t *testing.T) {
	p := NewGDSF()
	g := drive(p)
	g.insert(1, 100)
	for i := 0; i < 50; i++ {
		g.touch(1) // high priority
	}
	// Evict something to raise L, then a fresh insert competes fairly.
	g.insert(2, 100)
	vid, _ := g.victim()
	if vid != 2 {
		t.Fatalf("victim = %d, want cold newcomer", vid)
	}
	g.remove(2) // advances L to 2's priority
	g.insert(3, 100)
	// Object 3 enters at L + 1/100, not at 1/100: aging protects it from
	// being starved behind historical high-frequency objects forever.
	if prio := p.e[g.h[3]].key; prio <= 1.0/100 {
		t.Fatalf("newcomer priority %v not inflated", prio)
	}
}

func TestGDSFBytesInvariant(t *testing.T) {
	type op struct {
		Kind uint8
		ID   uint8
		Size uint16
	}
	f := func(ops []op) bool {
		g := drive(NewGDSF())
		for _, o := range ops {
			id := uint64(o.ID % 16)
			switch o.Kind % 3 {
			case 0:
				g.insert(id, int64(o.Size%1000)+1)
			case 1:
				g.touch(id)
			case 2:
				g.remove(id)
			}
			if g.consistent() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyWithGDSF(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 20000, 62)
	if err != nil {
		t.Fatal(err)
	}
	cfg := EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20, WarmupFrac: 0.1, HOCEviction: "gdsf"}
	m, err := Evaluate(tr, Expert{Freq: 2, MaxSize: 50 << 10}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.HOCHits == 0 {
		t.Fatal("no HOC hits under gdsf")
	}
}
