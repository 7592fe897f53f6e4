package trace

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Trace {
	return &Trace{
		Name: "sample",
		Requests: []Request{
			{ID: 1, Size: 100, Time: 0},
			{ID: 2, Size: 200, Time: 10},
			{ID: 1, Size: 100, Time: 20},
			{ID: 3, Size: 50, Time: 30},
		},
	}
}

func TestWindowBounds(t *testing.T) {
	tr := sample()
	w := tr.Window(1, 3)
	if w.Len() != 2 || w.Requests[0].ID != 2 || w.Requests[1].ID != 1 {
		t.Fatalf("Window(1,3) = %+v", w.Requests)
	}
	if tr.Window(-5, 100).Len() != 4 {
		t.Fatal("clamped window should cover whole trace")
	}
	if tr.Window(3, 1).Len() != 0 {
		t.Fatal("inverted window should be empty")
	}
}

func TestConcatShiftsTime(t *testing.T) {
	a := &Trace{Requests: []Request{{ID: 1, Size: 1, Time: 0}, {ID: 2, Size: 1, Time: 5}}}
	b := &Trace{Requests: []Request{{ID: 3, Size: 1, Time: 0}, {ID: 4, Size: 1, Time: 7}}}
	c := Concat("joined", a, b)
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	times := []int64{0, 5, 6, 13}
	for i, want := range times {
		if c.Requests[i].Time != want {
			t.Errorf("req %d time = %d, want %d", i, c.Requests[i].Time, want)
		}
	}
	// Originals untouched.
	if b.Requests[0].Time != 0 {
		t.Fatal("Concat mutated input trace")
	}
}

func TestConcatMonotoneProperty(t *testing.T) {
	f := func(lens []uint8) bool {
		var parts []*Trace
		for _, l := range lens {
			n := int(l % 5)
			tr := &Trace{}
			for i := 0; i < n; i++ {
				tr.Requests = append(tr.Requests, Request{ID: uint64(i), Size: 1, Time: int64(i * 3)})
			}
			parts = append(parts, tr)
		}
		joined := Concat("j", parts...)
		for i := 1; i < joined.Len(); i++ {
			if joined.Requests[i].Time < joined.Requests[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScale(t *testing.T) {
	tr := sample()
	scaled := tr.Scale(2, 0.2, 1)
	if scaled.Len() != tr.Len() {
		t.Fatal("Scale changed length")
	}
	// Per-object consistency: requests 0 and 2 are the same object.
	if scaled.Requests[0].Size != scaled.Requests[2].Size {
		t.Fatal("Scale must perturb per-object, not per-request")
	}
	for i, r := range scaled.Requests {
		orig := float64(tr.Requests[i].Size)
		if f := float64(r.Size); f < orig*2*0.79 || f > orig*2*1.21 {
			t.Fatalf("req %d scaled size %d outside 2x±20%% of %v", i, r.Size, orig)
		}
	}
	// Deterministic for the same seed.
	again := tr.Scale(2, 0.2, 1)
	for i := range scaled.Requests {
		if scaled.Requests[i] != again.Requests[i] {
			t.Fatal("Scale not deterministic for fixed seed")
		}
	}
}

func TestScaleMinimumSize(t *testing.T) {
	tr := &Trace{Requests: []Request{{ID: 1, Size: 1, Time: 0}}}
	s := tr.Scale(0.0001, 0, 1)
	if s.Requests[0].Size < 1 {
		t.Fatal("scaled size must stay >= 1")
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sample()
	got, err := Read(strings.NewReader("1 100 0\n2 200 10\n1 100 20\n3 50 30\n"), "sample")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Len() != tr.Len() {
		t.Fatalf("read %q with %d requests, want %q with %d", got.Name, got.Len(), tr.Name, tr.Len())
	}
	for i := range tr.Requests {
		if got.Requests[i] != tr.Requests[i] {
			t.Fatalf("req %d = %+v, want %+v", i, got.Requests[i], tr.Requests[i])
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1 10 0\n  \n2 20 5\n"
	tr, err := Read(strings.NewReader(in), "x")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{"1 10", "a 10 0", "1 -5 0", "1 10 b", "1 2 3 4"}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in), "x"); !errors.Is(err, ErrBadRecord) {
			t.Errorf("input %q: err = %v, want ErrBadRecord", in, err)
		}
	}
}
