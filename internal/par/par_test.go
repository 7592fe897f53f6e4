package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// withWidth runs f with the process-wide width pinned to p, restoring the
// previous width afterwards.
func withWidth(p int, f func()) {
	prev := SetDefault(p)
	defer SetDefault(prev)
	f()
}

func TestForEachFillsAllSlotsInOrder(t *testing.T) {
	for _, p := range []int{1, 2, 4, 16} {
		out := make([]int, 1000)
		var err error
		withWidth(p, func() {
			err = ForEach(len(out), func(i int) error {
				out[i] = i * i
				return nil
			})
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("p=%d: out[%d] = %d", p, i, v)
			}
		}
	}
}

func TestDoAggregatesAllErrors(t *testing.T) {
	wantFail := map[int]bool{3: true, 7: true, 42: true}
	boom := errors.New("boom")
	var err error
	withWidth(8, func() {
		err = ForEach(100, func(i int) error {
			if wantFail[i] {
				return fmt.Errorf("%w %d", boom, i)
			}
			return nil
		})
	})
	// Every failure, each with its index, in index order.
	if want := "task 3: boom 3\ntask 7: boom 7\ntask 42: boom 42"; err == nil || err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("errors.Is(err, boom) = false: %v", err)
	}
}

func TestDoBoundsConcurrency(t *testing.T) {
	const p = 3
	var cur, max atomic.Int64
	var err error
	withWidth(p, func() {
		err = ForEach(50, func(i int) error {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > p {
		t.Fatalf("observed %d concurrent tasks, bound is %d", got, p)
	}
}

func TestSerialPathRunsInline(t *testing.T) {
	// At width 1 tasks run on the calling goroutine in index order.
	var order []int
	var err error
	withWidth(1, func() {
		err = ForEach(10, func(i int) error {
			order = append(order, i) // safe only if inline
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; serial path must preserve index order", i, v)
		}
	}
}

func TestMapPreservesOrder(t *testing.T) {
	in := make([]int, 257)
	for i := range in {
		in[i] = i
	}
	var out []string
	var err error
	withWidth(8, func() {
		out, err = Map(in, func(i, v int) (string, error) {
			return fmt.Sprintf("v%d", v), nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		if want := fmt.Sprintf("v%d", i); s != want {
			t.Fatalf("out[%d] = %q, want %q", i, s, want)
		}
	}
}

func TestMapError(t *testing.T) {
	var err error
	withWidth(2, func() {
		_, err = Map([]int{1, 2, 3}, func(i, v int) (int, error) {
			if v == 2 {
				return 0, errors.New("nope")
			}
			return v, nil
		})
	})
	if err == nil || !strings.Contains(err.Error(), "task 1: nope") {
		t.Fatalf("error %v, want task 1's", err)
	}
}

func TestSetDefault(t *testing.T) {
	prev := SetDefault(3)
	defer SetDefault(prev)
	if Default() != 3 {
		t.Fatalf("Default() = %d, want 3", Default())
	}
	SetDefault(0)
	if Default() != runtime.NumCPU() {
		t.Fatalf("Default() = %d, want NumCPU", Default())
	}
}

func TestZeroTasks(t *testing.T) {
	if err := ForEach(0, func(i int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}
