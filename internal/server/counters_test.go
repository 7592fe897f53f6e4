package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"darwin/internal/faults"
)

// quad is a stats struct for the counters tests: A and B are bumped in two
// updates, C and D in one.
type quad struct{ A, B, C, D int64 }

// TestCountersTotalsAndOrdering runs writers that each bump A then B in two
// updates and C with D in one, while the test's goroutine polls snapshot. A
// snapshot is one copy under the mutex, so A leads B by at most the writers
// that are between their two updates — never negative, never more than the
// writer count — C never differs from D, and the final totals are exact.
func TestCountersTotalsAndOrdering(t *testing.T) {
	const writers, iters = 8, 5_000
	var c counters[quad]
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.add(func(q *quad) { q.A++ })
				c.add(func(q *quad) { q.B++ })
				c.add(func(q *quad) { q.C++; q.D++ })
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for {
		q := c.snapshot()
		if lead := q.A - q.B; lead < 0 || lead > writers {
			t.Fatalf("torn snapshot: A leads B by %d (%+v), want 0..%d", lead, q, writers)
		}
		if q.C != q.D {
			t.Fatalf("torn snapshot: one update's C and D differ (%+v)", q)
		}
		select {
		case <-done:
			if q := c.snapshot(); q != (quad{writers * iters, writers * iters, writers * iters, writers * iters}) {
				t.Fatalf("totals = %+v, want %d each", q, writers*iters)
			}
			return
		default:
		}
	}
}

// TestCountersSameKeyNeverTorn has every writer bump all four fields in one
// update, so a snapshot — one copy under the same mutex — sees each update
// whole or not at all: the four fields are always equal, and the final
// totals are exact.
func TestCountersSameKeyNeverTorn(t *testing.T) {
	const writers, iters = 4, 5_000
	var c counters[quad]
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.add(func(q *quad) { q.A++; q.B++; q.C++; q.D++ })
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for {
		q := c.snapshot()
		if q.A != q.B || q.B != q.C || q.C != q.D {
			t.Fatalf("torn snapshot: one update's fields differ (%+v)", q)
		}
		select {
		case <-done:
			if q := c.snapshot(); q.A != writers*iters || q.D != writers*iters {
				t.Fatalf("totals = %+v, want %d each", q, writers*iters)
			}
			return
		default:
		}
	}
}

// TestCountersAddAllocatesNothing: a non-capturing update literal is a static
// function value, so add costs no allocation on the request path.
func TestCountersAddAllocatesNothing(t *testing.T) {
	var c counters[ProxyStats]
	allocs := testing.AllocsPerRun(1000, func() {
		c.add(func(s *ProxyStats) { s.Hedges++; s.OriginFetches++ })
	})
	if allocs != 0 {
		t.Errorf("add: %.1f allocs/op, want 0", allocs)
	}
}

func TestReadMetricsRefusesDuplicatesAndMalformedLines(t *testing.T) {
	for _, body := range []string{"a 1\nb 2\na 3\n", "a 1\nnovalue\n", " 1\n"} {
		if _, err := ReadMetrics(strings.NewReader(body)); err == nil {
			t.Errorf("ReadMetrics(%q): no error", body)
		}
	}
	var buf bytes.Buffer
	WriteMetrics(&buf, "x_", quad{A: 1, D: -4})
	e, err := ReadMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := e.Int("x_d"); err != nil || v != -4 {
		t.Fatalf("x_d = %d, %v; want -4", v, err)
	}
	if _, err := e.Int("x_e"); err == nil {
		t.Fatal("a missing name is not an error")
	}
}

// TestStatsInvariantsHoldOnEveryRead: an event that moves several counters
// moves them in one update, so no snapshot sees a deadline shed that is not
// yet a shed, a hedge win before its hedge, or a retry before the fetch it
// repeats. Deadline-doomed misses are shed in-process while fetches against
// a failing, stalling origin retry and hedge, and the poller checks every
// read. (Run under -race by `make race`.)
func TestStatsInvariantsHoldOnEveryRead(t *testing.T) {
	ov := Overload{MinFetchBudget: 50 * time.Millisecond, Hedge: 2 * time.Millisecond}
	_, proxy := overloadTestbed(t, fastResilience(), ov, func(h http.Handler) http.Handler {
		return faults.New(faults.Config{Seed: 7, ErrorRate: 0.3, StallRate: 0.2, Stall: 10 * time.Millisecond}).Wrap(h)
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	serve := func(base uint64, deadline string) {
		defer wg.Done()
		for i := base; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req := httptest.NewRequest(http.MethodGet, "/obj/"+strconv.FormatUint(i, 10)+"?size=1000", nil)
			if deadline != "" {
				req.Header.Set(DeadlineHeader, deadline)
			}
			proxy.ServeHTTP(&nullRW{h: make(http.Header)}, req)
		}
	}
	for g := uint64(0); g < 2; g++ {
		wg.Add(2)
		go serve(1<<40+g<<32, "1") // every id cold: a deadline shed each
		go serve(1<<41+g<<32, "")  // every id cold: a fetch, often retried or hedged
	}
	var st ProxyStats
	start := time.Now()
	for reads := 0; ; reads++ {
		st = proxy.Stats()
		if st.DeadlineSheds > st.Shed || st.HedgeWins > st.Hedges || st.Retries > st.OriginFetches {
			close(stop)
			wg.Wait()
			t.Fatalf("read %d is torn: %+v", reads, st)
		}
		exercised := st.DeadlineSheds > 0 && st.HedgeWins > 0 && st.Retries > 0
		if exercised && time.Since(start) > 300*time.Millisecond || time.Since(start) > 20*time.Second {
			break
		}
	}
	close(stop)
	wg.Wait()
	if st.DeadlineSheds == 0 || st.HedgeWins == 0 || st.Retries == 0 {
		t.Fatalf("stats %+v: the traffic never exercised every invariant", st)
	}
}
