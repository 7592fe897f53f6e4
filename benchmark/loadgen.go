package main

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"darwin/internal/server"
	"darwin/internal/trace"
)

// This load generator belongs to the benchmark, not to the program under
// test: server.RunLoad could be edited by a change that then "gains" on it.
// It keeps RunLoad's discipline — URLs rendered before the clock starts, one
// reused http.Request and read buffer per client, no compression — and is
// closed-loop: a client sends its next request only when the previous one
// has completed, because it shares the host's cores with the system under
// test and an open loop would measure its own backlog.

// plan is a trace rendered for the wire.
type plan struct {
	paths, queries []string
	sizes          []int64
}

func renderPlan(tr *trace.Trace) *plan {
	p := &plan{
		paths:   make([]string, tr.Len()),
		queries: make([]string, tr.Len()),
		sizes:   make([]int64, tr.Len()),
	}
	var buf []byte
	for i, r := range tr.Requests {
		buf = strconv.AppendUint(append(buf[:0], "/obj/"...), r.ID, 10)
		p.paths[i] = string(buf)
		buf = strconv.AppendInt(append(buf[:0], "size="...), r.Size, 10)
		p.queries[i] = string(buf)
		p.sizes[i] = r.Size
	}
	return p
}

// tally is what the clients saw over one run.
type tally struct {
	attempted, failed, shed int
	hoc, dc, miss, peerFill int
	missBytes               int64 // Σ size of misses the origin (not a sibling) filled
	firstByte               []int64
	fullNS                  int64 // Σ send → body drained, over successes
	wall                    time.Duration
}

func (a *tally) merge(b *tally) {
	a.attempted += b.attempted
	a.failed += b.failed
	a.shed += b.shed
	a.hoc += b.hoc
	a.dc += b.dc
	a.miss += b.miss
	a.peerFill += b.peerFill
	a.missBytes += b.missBytes
	a.firstByte = append(a.firstByte, b.firstByte...)
	a.fullNS += b.fullNS
}

func (a *tally) ok() int { return a.attempted - a.failed }

// client is one closed-loop client on one keep-alive connection.
type client struct {
	transport *http.Transport
	http      *http.Client
	url       url.URL
	req       *http.Request
	buf       []byte
}

type loadgen struct {
	plan    *plan
	clients []*client
	t       *tracer // nil = no client spans
}

func newLoadgen(base string, p *plan, clients int, t *tracer) (*loadgen, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("loadgen: bad base URL: %w", err)
	}
	lg := &loadgen{plan: p, t: t}
	for i := 0; i < clients; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		c := &client{
			transport: tr,
			http:      &http.Client{Transport: tr, Timeout: 30 * time.Second},
			url:       *u,
			buf:       make([]byte, 64<<10),
		}
		c.req = &http.Request{
			Method: http.MethodGet, URL: &c.url, Host: u.Host,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: make(http.Header),
		}
		lg.clients = append(lg.clients, c)
	}
	return lg, nil
}

func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.transport.CloseIdleConnections()
	}
}

// run sends plan requests [lo, hi) and returns what the clients saw. The
// clients draw indexes from one counter, so the global order follows the
// trace as closely as two concurrent clients can.
func (lg *loadgen) run(lo, hi int) *tally {
	var next atomic.Int64
	next.Store(int64(lo))
	parts := make([]*tally, len(lg.clients))
	var wg sync.WaitGroup
	begin := time.Now()
	for k, c := range lg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := &tally{firstByte: make([]int64, 0, (hi-lo)/len(lg.clients)+1)}
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					break
				}
				c.do(lg.plan, i, part, lg.t)
			}
			parts[k] = part
		}()
	}
	wg.Wait()
	total := &tally{wall: time.Since(begin)}
	for _, p := range parts {
		total.merge(p)
	}
	sort.Slice(total.firstByte, func(i, j int) bool { return total.firstByte[i] < total.firstByte[j] })
	return total
}

// do issues request i and folds its outcome into out. A request fails if the
// transport errs, the status is not 200, or the body is not exactly the
// requested size; a failed request contributes no latency sample.
func (c *client) do(p *plan, i int, out *tally, t *tracer) {
	c.url.Path, c.url.RawQuery = p.paths[i], p.queries[i]
	out.attempted++
	start := time.Now()
	resp, err := c.http.Do(c.req)
	if err != nil {
		out.failed++
		return
	}
	// First byte: response headers plus the first body read.
	n, rerr := resp.Body.Read(c.buf)
	first := time.Since(start)
	got := int64(n)
	for rerr == nil {
		n, rerr = resp.Body.Read(c.buf)
		got += int64(n)
	}
	full := time.Since(start)
	_ = resp.Body.Close() // drained above; nothing left for Close to report
	if resp.StatusCode != http.StatusOK || rerr != io.EOF || got != p.sizes[i] {
		out.failed++
		if len(resp.Header[server.ShedHeader]) > 0 {
			out.shed++
		}
		return
	}
	xc := resp.Header["X-Cache"]
	if len(xc) == 0 {
		out.failed++ // every answer of the data plane names where it was served from
		return
	}
	switch xc[0] {
	case "hoc-hit":
		out.hoc++
	case "dc-hit":
		out.dc++
	case "miss":
		out.miss++
		if len(resp.Header[server.PeerHeader]) > 0 {
			out.peerFill++
		} else {
			out.missBytes += got
		}
	default:
		out.failed++ // "stale": the origin never fails here, so a degraded answer is wrong
		return
	}
	if t != nil {
		s := int64(start.Sub(t.t0))
		t.add(lyLoadgen, s, s+int64(full))
	}
	out.firstByte = append(out.firstByte, int64(first))
	out.fullNS += int64(full)
}
