// Package hotpath is a darwinlint golden fixture for the hot-path allocation
// rule: the configured roots are H.Serve and the Ev.Hit interface method, so
// every function below is on the hot path except cold() (unreachable) and
// slowExit() (reachable, but configured cold).
package hotpath

import (
	"container/list"
	"fmt"
)

// Ev mirrors the cache's Eviction interface; the fixture root Ev.Hit must
// fan out to the concrete implementation.
type Ev interface {
	Hit(id uint64) bool
}

// ListEv implements Ev on container/list, which is banned on the hot path.
type ListEv struct {
	l *list.List
}

// Hit is reachable via the Ev.Hit interface root.
func (e *ListEv) Hit(id uint64) bool {
	e.l.PushFront(id) /* want "container/list" */
	return true
}

// table mirrors the cache's generic id table: the walk must enter the
// declared body of an instantiated type's method.
type table[V any] struct {
	v V
}

func (t *table[V]) get(id uint64) *V {
	_ = fmt.Sprint(id) /* want "fmt.Sprint allocates" */
	return &t.v
}

// H mirrors the Hierarchy shape.
type H struct {
	ev Ev
	t  table[int]
	n  int
}

// Serve is a configured hot-path root.
func (h *H) Serve(id uint64) string {
	h.n += *h.t.get(id)
	if h.ev.Hit(id) {
		return describe(id)
	}
	if err := check(id); err != nil {
		return err.Error() // reporting a failure: Error is not followed
	}
	if id == 0 {
		return slowExit(id)
	}
	get := func() int { return h.n } /* want "closure captures h" */
	_ = get()
	return "miss:" + suffix(id) /* want "string concatenation allocates" */
}

func describe(id uint64) string {
	return fmt.Sprintf("obj-%d", id) /* want "fmt.Sprintf allocates" */
}

func suffix(id uint64) string {
	s := "x"
	s += "y" /* want "string concatenation allocates" */
	return s
}

// check builds an error: leaving the hot path, not a hazard on it.
func check(id uint64) error {
	if id > 1<<40 {
		return fmt.Errorf("id %d out of range", id)
	}
	return nil
}

// badID would be flagged if error.Error calls fanned out to it.
type badID uint64

func (b badID) Error() string { return fmt.Sprintf("bad id %d", uint64(b)) }

// slowExit is configured cold: the walk does not enter it.
func slowExit(id uint64) string {
	return fmt.Sprintf("slow-%d", id)
}

// cold is not reachable from any root; its allocations are fine.
func cold() string {
	return fmt.Sprintf("cold-%d", 1)
}
