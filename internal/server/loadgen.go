package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"darwin/internal/trace"
)

// LoadResult aggregates a load-generation run (§6.4's measurements).
type LoadResult struct {
	// Requests completed successfully (including degraded stale serves).
	Requests int
	// Errors counts failed requests; the classification fields below break
	// it down (timeout vs upstream 5xx vs mid-stream truncation).
	Errors int
	// Timeouts counts requests that hit the client deadline (a stalled or
	// unreachable proxy/origin).
	Timeouts int
	// Status5xx counts 5xx (and other non-2xx) responses.
	Status5xx int
	// Truncated counts responses whose body ended short of the declared
	// Content-Length (mid-stream truncation).
	Truncated int
	// OtherErrors counts transport failures that fit none of the above.
	OtherErrors int
	// StaleServes counts degraded-mode responses (X-Cache: stale): the proxy
	// answered stale because the origin was down. They are successes from
	// the client's point of view and also count in Requests.
	StaleServes int
	// OnTime counts successful requests that completed within the client
	// deadline (== Requests when no deadline is configured) — the goodput
	// numerator: work the client could actually use.
	OnTime int
	// Shed counts 503 responses carrying the proxy's shed marker (admission,
	// breaker, or deadline rejects). They are also counted in Errors and
	// Status5xx; this field separates deliberate load shedding from
	// unclassified upstream failure.
	Shed int
	// Bytes is the total payload bytes received.
	Bytes int64
	// Wall is the end-to-end run duration.
	Wall time.Duration
	// FirstByte holds per-request first-byte latencies.
	FirstByte []time.Duration
	// HOCHits/DCHits/Misses are derived from the X-Cache response header.
	HOCHits, DCHits, Misses int
	// PeerFills counts responses carrying the peer-fill marker: misses a
	// cluster node answered from a ring sibling instead of the origin (a
	// subset of Misses).
	PeerFills int
}

// ThroughputBps returns the application throughput in bits per second.
func (r LoadResult) ThroughputBps() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / r.Wall.Seconds()
}

// ErrorRate returns the client-visible error fraction.
func (r LoadResult) ErrorRate() float64 {
	total := r.Requests + r.Errors
	if total == 0 {
		return 0
	}
	return float64(r.Errors) / float64(total)
}

// GoodputRate returns the fraction of all issued requests that completed
// successfully within the client deadline — the §5.6-style claim restated
// for overload: not "how many answers", but "how many answers that arrived
// while the client still wanted them".
func (r LoadResult) GoodputRate() float64 {
	total := r.Requests + r.Errors
	if total == 0 {
		return 0
	}
	return float64(r.OnTime) / float64(total)
}

// LatencyPercentile returns the p-th percentile first-byte latency; p is
// clamped to [0, 100].
func (r LoadResult) LatencyPercentile(p float64) time.Duration {
	if len(r.FirstByte) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.FirstByte...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(min(max(p, 0), 100) / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// LoadConfig configures RunLoad.
type LoadConfig struct {
	// ProxyURL is the CDN proxy base URL.
	ProxyURL string
	// Concurrency is the number of closed-loop client workers.
	Concurrency int
	// ClientLatency is an injected client→proxy delay added to each request
	// (the paper injects 10 ms; tests use 0).
	ClientLatency time.Duration
	// RequestTimeout bounds each client request end to end (default 60 s).
	RequestTimeout time.Duration
	// Deadline, when > 0, is the client's per-request freshness deadline: it
	// is advertised to the proxy via DeadlineHeader (driving deadline
	// propagation and shedding) and used client-side to classify OnTime
	// completions. It does not abort the request — RequestTimeout does that
	// — so late responses are still measured, they just miss goodput.
	Deadline time.Duration
	// Burst, when non-nil, switches dispatch from pure closed-loop to the
	// seeded flash-crowd arrival schedule.
	Burst *Burst
}

// Burst is the seeded flash-crowd arrival mode: dispatch is paced by a
// deterministic gap schedule in which every period of Every requests opens
// with Len requests released back-to-back (the flash crowd slamming the
// edge) followed by jittered Gap-spaced arrivals (the baseline). The
// schedule is a pure function of (Seed, Gap, Every, Len, n), so a chaos run
// is reproducible gap-for-gap and its report can cite the exact arrival
// pattern.
type Burst struct {
	// Seed drives the gap jitter.
	Seed int64
	// Gap is the mean inter-dispatch gap outside bursts (jittered uniformly
	// over [Gap/2, 3·Gap/2]). <= 0 means no pacing outside bursts either.
	Gap time.Duration
	// Every is the burst period in requests (default 500).
	Every int
	// Len is the burst length in requests, dispatched with zero gap
	// (default Every/4).
	Len int
}

// Gaps returns the deterministic inter-dispatch schedule for n requests:
// gaps[i] is slept before dispatching request i. Burst positions get zero
// gap; baseline positions get the jittered Gap.
func (b Burst) Gaps(n int) []time.Duration {
	every := b.Every
	if every <= 0 {
		every = 500
	}
	length := b.Len
	if length <= 0 {
		length = every / 4
	}
	rng := rand.New(rand.NewSource(b.Seed))
	gaps := make([]time.Duration, n)
	for i := range gaps {
		if i%every < length || b.Gap <= 0 {
			continue // inside a flash crowd: back-to-back dispatch
		}
		gaps[i] = b.Gap/2 + time.Duration(rng.Int63n(int64(b.Gap)+1))
	}
	return gaps
}

// classify folds one request outcome into res (caller holds the lock).
func classify(res *LoadResult, err error) {
	res.Errors++
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		res.Timeouts++
	case errors.Is(err, io.ErrUnexpectedEOF):
		res.Truncated++
	default:
		res.OtherErrors++
	}
}

// RunLoad replays tr against a proxy with the configured concurrency,
// measuring first-byte latency per request and classifying failures.
// Cancelling ctx stops dispatching new requests; in-flight requests drain
// before RunLoad returns the partial result and ctx.Err().
func RunLoad(ctx context.Context, tr *trace.Trace, cfg LoadConfig) (LoadResult, error) {
	if cfg.Concurrency <= 0 {
		return LoadResult{}, fmt.Errorf("server: concurrency must be > 0")
	}
	if tr.Len() == 0 {
		return LoadResult{}, fmt.Errorf("server: empty trace")
	}
	timeout := cfg.RequestTimeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	base, err := url.Parse(cfg.ProxyURL)
	if err != nil {
		return LoadResult{}, fmt.Errorf("server: bad proxy URL: %w", err)
	}
	transport := &http.Transport{
		MaxIdleConns:        cfg.Concurrency * 2,
		MaxIdleConnsPerHost: cfg.Concurrency * 2,
		// Neither the proxy nor the origin compresses; advertising gzip would
		// only add a request header and a decompression check per response.
		DisableCompression: true,
	}
	client := &http.Client{Transport: transport, Timeout: timeout}
	defer transport.CloseIdleConnections()

	// Pre-render every request's URL strings before the clock starts: the
	// load generator is the measuring instrument, not the system under test,
	// so request formatting (and its allocations) stays out of the measured
	// loop — the same discipline benchServe applies to trace generation.
	type urlParts struct{ path, query string }
	parts := make([]urlParts, tr.Len())
	{
		var pathBuf, queryBuf []byte
		for i, r := range tr.Requests {
			pathBuf = append(append(pathBuf[:0], base.Path...), "/obj/"...)
			pathBuf = strconv.AppendUint(pathBuf, r.ID, 10)
			queryBuf = append(queryBuf[:0], "size="...)
			queryBuf = strconv.AppendInt(queryBuf, r.Size, 10)
			parts[i] = urlParts{path: string(pathBuf), query: string(queryBuf)}
		}
	}

	work := make(chan int)
	var (
		mu  sync.Mutex
		res LoadResult
		wg  sync.WaitGroup
	)
	res.FirstByte = make([]time.Duration, 0, tr.Len())
	worker := func() {
		defer wg.Done()
		// The body read buffer is borrowed from the process-wide pool for
		// the worker's lifetime — one buffer per worker, zero per request.
		bufp := getCopyBuf()
		defer putCopyBuf(bufp)
		buf := *bufp
		// One request object per worker, rebuilt in place: the URL struct is
		// pre-parsed once and only its Path/RawQuery strings swap per
		// request, so no url.Parse, header map, or Request allocation sits
		// in the measurement loop.
		u := *base
		hdr := make(http.Header, 1)
		if cfg.Deadline > 0 {
			hdr.Set(DeadlineHeader, strconv.FormatInt(cfg.Deadline.Milliseconds(), 10))
		}
		hreq := &http.Request{
			Method:     http.MethodGet,
			URL:        &u,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     hdr,
			Host:       base.Host,
		}
		for i := range work {
			if cfg.ClientLatency > 0 {
				time.Sleep(cfg.ClientLatency)
			}
			u.Path = parts[i].path
			u.RawQuery = parts[i].query
			start := time.Now()
			resp, err := client.Do(hreq)
			if err != nil {
				mu.Lock()
				classify(&res, err)
				mu.Unlock()
				continue
			}
			// First byte: the response headers plus the first body read.
			var n int64
			m, rerr := resp.Body.Read(buf)
			fb := time.Since(start)
			n += int64(m)
			for rerr == nil {
				m, rerr = resp.Body.Read(buf)
				n += int64(m)
			}
			// Completion time is only read against a configured deadline;
			// skip the clock otherwise.
			onTime := true
			if cfg.Deadline > 0 {
				onTime = time.Since(start) <= cfg.Deadline
			}
			_ = resp.Body.Close() // body fully drained above; close can't fail usefully
			mu.Lock()
			switch {
			case resp.StatusCode >= 400:
				res.Errors++
				res.Status5xx++
				if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get(ShedHeader) != "" {
					res.Shed++
				}
			case rerr != nil && rerr != io.EOF:
				classify(&res, rerr)
			default:
				res.Requests++
				res.Bytes += n
				res.FirstByte = append(res.FirstByte, fb)
				if onTime {
					res.OnTime++
				}
				switch resp.Header.Get("X-Cache") {
				case "hoc-hit":
					res.HOCHits++
				case "dc-hit":
					res.DCHits++
				case "miss":
					res.Misses++
				case "stale":
					res.StaleServes++
				}
				if len(resp.Header[PeerHeader]) > 0 {
					res.PeerFills++
				}
			}
			mu.Unlock()
		}
	}
	begin := time.Now()
	wg.Add(cfg.Concurrency)
	for i := 0; i < cfg.Concurrency; i++ {
		go worker()
	}
	var gaps []time.Duration
	if cfg.Burst != nil {
		gaps = cfg.Burst.Gaps(tr.Len())
	}
	var dispatchErr error
	if done := ctx.Done(); done == nil && gaps == nil {
		// Uncancellable unpaced dispatch (the benchmark path): a plain send
		// per request instead of a two-case select keeps the dispatcher's
		// scheduler cost off the measured loop.
		for i := range tr.Requests {
			work <- i
		}
	} else {
	dispatch:
		for i := range tr.Requests {
			if gaps != nil && gaps[i] > 0 {
				if err := sleepCtx(ctx, gaps[i]); err != nil {
					dispatchErr = err
					break dispatch
				}
			}
			select {
			case work <- i:
			case <-ctx.Done():
				dispatchErr = ctx.Err()
				break dispatch
			}
		}
	}
	close(work)
	wg.Wait()
	res.Wall = time.Since(begin)
	return res, dispatchErr
}
