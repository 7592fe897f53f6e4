// Package trace defines the CDN request-trace model used throughout the
// Darwin reproduction. A trace is a time-ordered sequence of requests, each
// identified by the triple (object ID, object size, timestamp) exactly as
// described in Appendix A.1 of the paper.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
)

// Request is a single client request observed at a CDN server.
type Request struct {
	// ID identifies the requested object. Requests with equal IDs refer to
	// the same object.
	ID uint64
	// Size is the object size in bytes.
	Size int64
	// Time is the request arrival time in microseconds since trace start.
	Time int64
}

// Trace is an ordered request sequence.
type Trace struct {
	Requests []Request
	// Name labels the trace (e.g. "download-70:30-seed4") in reports.
	Name string
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Requests) }

// Window returns a sub-trace view of requests [lo, hi). Bounds are clamped.
// The returned trace shares backing storage with t.
func (t *Trace) Window(lo, hi int) *Trace {
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.Requests) {
		hi = len(t.Requests)
	}
	if lo > hi {
		lo = hi
	}
	return &Trace{
		Requests: t.Requests[lo:hi],
		Name:     fmt.Sprintf("%s[%d:%d]", t.Name, lo, hi),
	}
}

// Concat joins traces end-to-end, shifting timestamps so that each segment
// begins right after the previous one ends. It models the traffic-mix shifts
// a CDN load balancer imposes on one server (§2.1).
func Concat(name string, traces ...*Trace) *Trace {
	var total int
	for _, tr := range traces {
		total += tr.Len()
	}
	out := &Trace{Name: name, Requests: make([]Request, 0, total)}
	var offset int64
	for _, tr := range traces {
		if len(tr.Requests) == 0 {
			continue
		}
		var last int64
		for _, r := range tr.Requests {
			r.Time += offset
			out.Requests = append(out.Requests, r)
			last = r.Time
		}
		offset = last + 1
	}
	return out
}

// Scale returns a copy of t with every object size multiplied by factor and
// then perturbed uniformly by ±perturb (e.g. 0.2 for ±20%). This mirrors the
// paper's construction of traces for larger cache sizes (§6, "CDN Traces"):
// scale object sizes by 2x/5x and perturb each object's size randomly by
// ±20%. Perturbation is per-object (consistent across requests for the same
// ID) and deterministic for a given seed.
func (t *Trace) Scale(factor float64, perturb float64, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	perObj := make(map[uint64]float64)
	out := &Trace{
		Name:     fmt.Sprintf("%s-x%.1f", t.Name, factor),
		Requests: make([]Request, len(t.Requests)),
	}
	for i, r := range t.Requests {
		m, ok := perObj[r.ID]
		if !ok {
			m = 1 + (rng.Float64()*2-1)*perturb
			perObj[r.ID] = m
		}
		size := int64(float64(r.Size) * factor * m)
		if size < 1 {
			size = 1
		}
		out.Requests[i] = Request{ID: r.ID, Size: size, Time: r.Time}
	}
	return out
}

// ErrBadRecord reports a malformed trace line.
var ErrBadRecord = errors.New("trace: malformed record")

// Read decodes a trace in the "id size time" line format: one request per
// line, with blank lines and "#" comments skipped.
func Read(r io.Reader, name string) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	out := &Trace{Name: name}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%w: line %d: %q", ErrBadRecord, lineNo, line)
		}
		id, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d id: %v", ErrBadRecord, lineNo, err)
		}
		size, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || size < 0 {
			return nil, fmt.Errorf("%w: line %d size: %q", ErrBadRecord, lineNo, fields[1])
		}
		ts, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d time: %v", ErrBadRecord, lineNo, err)
		}
		out.Requests = append(out.Requests, Request{ID: id, Size: size, Time: ts})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
