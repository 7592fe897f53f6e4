package server

// A counter is declared once, as an int64 field of a stats struct: the struct
// is the striped storage, the snapshot and, by field name, the /metrics line.

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"darwin/internal/cache"
)

// statStripes is the stripe count (a power of two) for the proxy's and the
// front's counters: enough to keep unrelated objects off each other's mutex
// at high concurrency, small enough that a snapshot stays cheap.
const statStripes = 32

// counters is a set of key-striped copies of the stats struct T, every field
// of which is an int64. An update hashes its key to a stripe and runs under
// that stripe's mutex, so unrelated keys never contend; snapshot takes the
// same mutexes, one stripe at a time, for the length of a copy.
//
// Coherence: each stripe is read at one instant, so fields changed in one add
// are never seen torn, and an ordering between two updates under one key (a
// hedge launched before it wins) holds in every snapshot. The sum keeps any
// per-stripe inequality (DeadlineSheds <= Shed); stripes may be read at
// slightly different instants relative to each other.
type counters[T any] struct {
	stripes [statStripes]statStripe[T]
}

// statStripe pads each stripe past a cache line so the tail of one stripe's
// counters never false-shares with the next stripe's mutex.
type statStripe[T any] struct {
	mu sync.Mutex
	v  T // guarded by mu
	_  [64]byte
}

// newCounters builds zeroed counters. It panics unless T is a struct of int64
// fields: snapshot sums them.
func newCounters[T any]() *counters[T] {
	t := reflect.TypeFor[T]()
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Type.Kind() != reflect.Int64 {
			panic(fmt.Sprintf("server: counters of %v: field %s is %v, want int64", t, f.Name, f.Type))
		}
	}
	return new(counters[T])
}

// add runs update on the stripe owning key, inside its critical section: the
// fields one event changes are changed together. update runs under the
// stripe's mutex, so it must only increment fields of *T; a function literal
// that captures nothing also keeps the call free of allocations.
func (c *counters[T]) add(key uint64, update func(*T)) {
	s := &c.stripes[cache.Mix64(key)&(statStripes-1)]
	s.mu.Lock()
	update(&s.v)
	s.mu.Unlock()
}

// snapshot returns the field-wise sum of every stripe, each copied under its
// mutex.
func (c *counters[T]) snapshot() T {
	var sum T
	dst := reflect.ValueOf(&sum).Elem()
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		v := s.v
		s.mu.Unlock()
		src := reflect.ValueOf(&v).Elem()
		for f := 0; f < dst.NumField(); f++ {
			dst.Field(f).SetInt(dst.Field(f).Int() + src.Field(f).Int())
		}
	}
	return sum
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
