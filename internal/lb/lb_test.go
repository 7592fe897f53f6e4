package lb

import (
	"testing"
	"time"

	"darwin/internal/breaker"
	"darwin/internal/tracegen"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewRing(Config{Servers: 0}); err == nil {
		t.Error("zero servers accepted")
	}
}

func TestRouteDeterministicByObject(t *testing.T) {
	b, err := NewRing(Config{Servers: 4, RebalanceEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// Within one window (no spilling pressure), the same object routes to
	// the same server: content-affinity is the point of CDN load balancing.
	first := b.Route(42)
	for i := 0; i < 50; i++ {
		b.Route(uint64(1000 + i))
	}
	if got := b.Route(42); got != first {
		t.Fatalf("object 42 moved from server %d to %d without load pressure", first, got)
	}
}

func TestRouteBalancesLoad(t *testing.T) {
	b, err := NewRing(Config{Servers: 4, LoadFactor: 0.25, RebalanceEvery: 8000})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.ImageDownloadMix(50, 8000, 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, r := range tr.Requests {
		counts[b.Route(r.ID)]++
	}
	// Bounded loads: no server may exceed (1+ε)·N/servers (plus the final
	// overflow fallback, which should be rare).
	budget := int(1.25*8000/4) + 10
	for s, c := range counts {
		if c > budget {
			t.Fatalf("server %d took %d requests, budget %d", s, c, budget)
		}
		if c == 0 {
			t.Fatalf("server %d starved", s)
		}
	}
}

func TestWeightsShiftTraffic(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 20000, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Server 0 drains (weight 0.1) in window 1+.
	cfg := Config{
		Servers:        3,
		RebalanceEvery: 10000,
		WeightSchedule: func(window int) []float64 {
			if window == 0 {
				return []float64{1, 1, 1}
			}
			return []float64{0.1, 1, 1}
		},
	}
	b, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var w0, w1 int // server 0's load in window 0 and 1
	for i, r := range tr.Requests {
		s := b.Route(r.ID)
		if s == 0 {
			if i < 10000 {
				w0++
			} else {
				w1++
			}
		}
	}
	if w1*3 > w0 {
		t.Fatalf("drained server kept too much traffic: window0=%d window1=%d", w0, w1)
	}
}

func TestSplitPreservesRequests(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 10000, 2)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := Split(tr, Config{Servers: 4, RebalanceEvery: 2500})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sub := range subs {
		total += sub.Len()
		// Timestamps must remain monotone within each sub-trace.
		for i := 1; i < sub.Len(); i++ {
			if sub.Requests[i].Time < sub.Requests[i-1].Time {
				t.Fatal("sub-trace timestamps not monotone")
			}
		}
	}
	if total != tr.Len() {
		t.Fatalf("split lost requests: %d != %d", total, tr.Len())
	}
}

// TestSplitShiftsPerServerMix is the §2.1 claim: with a weight change, a
// server's traffic composition (here: mean object size) shifts between
// windows even though the global workload is stationary.
func TestSplitShiftsPerServerMix(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 40000, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Servers:        4,
		RebalanceEvery: 10000,
		LoadFactor:     0.1,
		WeightSchedule: func(window int) []float64 {
			if window < 2 {
				return []float64{1, 1, 1, 1}
			}
			// Two servers drain: survivors absorb spilled traffic, changing
			// their mixes.
			return []float64{1, 1, 0.05, 0.05}
		},
	}
	subs, err := Split(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Split the surviving server's sub-trace at the global time boundary
	// between the uniform windows (0-1) and the drained windows (2-3).
	boundary := tr.Requests[20000].Time
	sub := subs[0]
	cut := 0
	for cut < sub.Len() && sub.Requests[cut].Time < boundary {
		cut++
	}
	s1 := sub.Window(0, cut).Summarize()
	s2 := sub.Window(cut, sub.Len()).Summarize()
	if s1.Requests == 0 || s2.Requests == 0 {
		t.Fatal("empty window")
	}
	// The surviving server absorbs the drained servers' spillover: its
	// request volume must grow substantially across the boundary.
	if float64(s2.Requests) < 1.2*float64(s1.Requests) {
		t.Fatalf("surviving server volume did not grow: %d -> %d", s1.Requests, s2.Requests)
	}
	t.Logf("server 0: %d -> %d requests, mean size %.0f -> %.0f",
		s1.Requests, s2.Requests, s1.MeanSize, s2.MeanSize)
}

// TestReadinessShedsRingWeight wires a real circuit breaker into the
// balancer's readiness hook: while server 1's origin breaker is open, the
// next rebalance boundary strips its ring weight and bounded-loads spill
// redistributes its share — the lb half of health-gated routing.
func TestReadinessShedsRingWeight(t *testing.T) {
	now := time.Unix(0, 0)
	brk := breaker.New(breaker.Config{
		Window:           time.Second,
		Buckets:          10,
		FailureThreshold: 0.5,
		MinRequests:      4,
		OpenFor:          time.Minute,
		HalfOpenProbes:   1,
		Clock:            func() time.Time { return now },
	})
	cfg := Config{
		Servers:        3,
		RebalanceEvery: 5000,
		LoadFactor:     0.1,
		Readiness: func(window, server int) float64 {
			if server == 1 && brk.State() == breaker.Open {
				return 0
			}
			return 1
		},
	}
	b, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.ImageDownloadMix(50, 10000, 7)
	if err != nil {
		t.Fatal(err)
	}
	var w0, w1 int // server 1's load in window 0 (healthy) and window 1 (open)
	for i, r := range tr.Requests {
		if i == 5000 {
			// Trip server 1's breaker right before the rebalance boundary.
			for j := 0; j < 4; j++ {
				if brk.Allow() {
					brk.Record(false)
				}
			}
			if brk.State() != breaker.Open {
				t.Fatalf("breaker did not trip: state %v", brk.State())
			}
		}
		if b.Route(r.ID) == 1 {
			if i < 5000 {
				w0++
			} else {
				w1++
			}
		}
	}
	if w0 == 0 {
		t.Fatal("server 1 starved while healthy")
	}
	if w1 != 0 {
		t.Fatalf("open-breaker server still routed %d requests (healthy window: %d)", w1, w0)
	}
}
