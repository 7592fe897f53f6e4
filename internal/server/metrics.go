package server

// A counter is declared once, as a field of a stats struct: the struct is the
// storage, the snapshot and, by field name, the /metrics line.

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// counters is one stats struct T under one mutex. An update runs inside the
// critical section, so the fields one event changes are changed together,
// and a snapshot is a copy taken at one instant: no read sees an update
// torn, and an ordering between two updates (a hedge launched before it
// wins) holds in every snapshot.
type counters[T any] struct {
	mu sync.Mutex
	v  T // guarded by mu
}

// add runs update on the counters inside their critical section. update must
// only increment fields of *T; a function literal that captures nothing also
// keeps the call free of allocations.
func (c *counters[T]) add(update func(*T)) {
	c.mu.Lock()
	update(&c.v)
	c.mu.Unlock()
}

// snapshot returns a copy of the counters taken under their mutex.
func (c *counters[T]) snapshot() T {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// WriteMetrics writes one "name value" line per field of the struct stats,
// in declaration order. The name is prefix followed by the field's name in
// snake_case (HOCHits → hoc_hits), or, where a field carries one, its
// `metric:"…"` tag verbatim. Values print as fmt's %v does, so a field whose
// type has a String method prints that. Write errors are dropped: a /metrics
// reader that went away has nothing left to tell.
func WriteMetrics(w io.Writer, prefix string, stats any) {
	v := reflect.ValueOf(stats)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := f.Tag.Get("metric")
		if name == "" {
			name = prefix + snakeCase(f.Name)
		}
		_, _ = fmt.Fprintf(w, "%s %v\n", name, v.Field(i))
	}
}

// snakeCase lower-cases an exported Go identifier with an underscore at each
// word boundary: before an upper-case letter that follows a lower-case one,
// or that ends an acronym (the C of "DCHits" does not, the H does).
func snakeCase(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if isUpper(c) && i > 0 && (!isUpper(name[i-1]) || i+1 < len(name) && !isUpper(name[i+1])) {
			b.WriteByte('_')
		}
		if isUpper(c) {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}

func isUpper(c byte) bool { return 'A' <= c && c <= 'Z' }

// Exposition is a parsed /metrics body: each line's value, as written, by
// name.
type Exposition map[string]string

// ReadMetrics parses a /metrics body. A line that is not "name value" and a
// name that appears twice are errors.
func ReadMetrics(r io.Reader) (Exposition, error) {
	e := make(Exposition)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || name == "" || value == "" {
			return nil, fmt.Errorf("server: malformed metrics line %q", sc.Text())
		}
		if _, dup := e[name]; dup {
			return nil, fmt.Errorf("server: metric %s appears twice", name)
		}
		e[name] = value
	}
	return e, sc.Err()
}

// Int returns name's value as an integer. A missing name is an error.
func (e Exposition) Int(name string) (int64, error) {
	v, ok := e[name]
	if !ok {
		return 0, fmt.Errorf("server: no metric %s", name)
	}
	return strconv.ParseInt(v, 10, 64)
}
