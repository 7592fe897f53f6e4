package cache

import (
	"testing"
	"testing/quick"
)

func TestExpertAdmit(t *testing.T) {
	e := Expert{Freq: 2, MaxSize: 100}
	cases := []struct {
		count int
		size  int64
		want  bool
	}{
		{1, 50, false}, // too few requests
		{2, 50, false}, // count must be strictly greater than f
		{3, 50, true},
		{3, 100, true},  // size at threshold is admitted
		{3, 101, false}, // size above threshold
	}
	for _, c := range cases {
		if got := e.Admit(c.count, c.size, -1); got != c.want {
			t.Errorf("Admit(%d,%d) = %v, want %v", c.count, c.size, got, c.want)
		}
	}
}

func TestExpertString(t *testing.T) {
	cases := []struct {
		e    Expert
		want string
	}{
		{Expert{Freq: 2, MaxSize: 50 << 10}, "f2s50k"},
		{Expert{Freq: 1, MaxSize: 5 << 20}, "f1s5M"},
		{Expert{Freq: 3, MaxSize: 777}, "f3s777"},
		{Expert{Freq: 2, MaxSize: 1 << 10, MaxAge: 500}, "f2s1kr500"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid([]int{2, 3}, []int64{10, 20, 30})
	if len(g) != 6 {
		t.Fatalf("len = %d, want 6", len(g))
	}
	seen := map[Expert]bool{}
	for _, e := range g {
		if seen[e] {
			t.Fatalf("duplicate expert %v", e)
		}
		seen[e] = true
	}
}

func TestDefaultGridMatchesPaperShape(t *testing.T) {
	g := DefaultGrid()
	if len(g) != 36 {
		t.Fatalf("default grid has %d experts, want 36 (6 freqs x 6 sizes)", len(g))
	}
}

func TestGrid3(t *testing.T) {
	g := Grid3([]int{2, 3}, []int64{10, 20}, []int64{100, 200, 300})
	if len(g) != 12 {
		t.Fatalf("len = %d, want 12", len(g))
	}
}

func TestNearestExact(t *testing.T) {
	g := DefaultGrid()
	for _, e := range g {
		got := Nearest(g, float64(e.Freq), float64(e.MaxSize))
		if got != e {
			t.Fatalf("Nearest(%v) = %v", e, got)
		}
	}
}

func TestNearestOffGrid(t *testing.T) {
	g := Grid([]int{2, 5}, []int64{10, 1000})
	got := Nearest(g, 4.6, 900)
	if got != (Expert{Freq: 5, MaxSize: 1000}) {
		t.Fatalf("Nearest = %v", got)
	}
	if Nearest(nil, 1, 1) != (Expert{}) {
		t.Fatal("Nearest of empty set should be zero expert")
	}
}

// Admission is monotone: raising the frequency requirement or lowering the
// size threshold can only reject more.
func TestAdmissionMonotoneProperty(t *testing.T) {
	f := func(count uint8, size uint16, freq uint8, maxSize uint16) bool {
		c, s := int(count), int64(size)
		e1 := Expert{Freq: int(freq % 8), MaxSize: int64(maxSize)}
		e2 := Expert{Freq: e1.Freq + 1, MaxSize: e1.MaxSize / 2}
		if e2.Admit(c, s, -1) && !e1.Admit(c, s, -1) {
			return false // stricter expert admitted what looser rejected
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
