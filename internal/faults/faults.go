// Package faults is a deterministic, seedable fault injector for the HTTP
// prototype's origin server. The paper's §6.4 testbed only models a healthy
// origin; real CDN edges are defined by how they behave when the origin is
// slow or down, so the chaos experiment (internal/exp) wraps the origin in
// an Injector and measures how the proxy's resilience layer absorbs the
// injected faults.
//
// The injector models five fault classes, each drawn independently per
// request from a seeded RNG so a given (seed, schedule) reproduces the same
// aggregate fault mix run after run:
//
//   - hard errors: the origin answers an immediate 5xx
//   - outage windows: wall-clock intervals during which every request is
//     refused with 503 (a crashed or partitioned origin)
//   - latency spikes: an extra delay before the response starts
//   - stalls: the response headers hang before the first byte (a wedged
//     upstream, the slow-origin case clients experience as a timeout)
//   - truncation: the origin declares a full Content-Length but cuts the
//     body short mid-stream, so the connection closes with a short body
package faults

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Window is a wall-clock outage interval relative to the injector's epoch
// (the moment New was called, or the epoch set with Restart).
type Window struct {
	// Start is the offset at which the outage begins.
	Start time.Duration
	// End is the offset at which the outage ends (exclusive).
	End time.Duration
}

// ParseOutages parses a comma-separated outage schedule of
// "<start>+<duration>" items, e.g. "150ms+150ms,2s+500ms".
func ParseOutages(s string) ([]Window, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var ws []Window
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		parts := strings.SplitN(item, "+", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("faults: bad outage %q (want start+duration)", item)
		}
		start, err := time.ParseDuration(parts[0])
		if err != nil {
			return nil, fmt.Errorf("faults: bad outage start %q: %v", parts[0], err)
		}
		dur, err := time.ParseDuration(parts[1])
		if err != nil {
			return nil, fmt.Errorf("faults: bad outage duration %q: %v", parts[1], err)
		}
		if start < 0 || dur <= 0 {
			return nil, fmt.Errorf("faults: outage %q must have start >= 0 and duration > 0", item)
		}
		ws = append(ws, Window{Start: start, End: start + dur})
	}
	return ws, nil
}

// Config parameterises an Injector. All rates are probabilities in [0, 1];
// a zero Config injects nothing and passes every request through.
type Config struct {
	// Seed makes the per-request fault draws deterministic.
	Seed int64
	// ErrorRate is the probability of an immediate hard error response (a
	// 500).
	ErrorRate float64
	// SpikeRate is the probability of an added latency spike.
	SpikeRate float64
	// Spike is the injected spike duration.
	Spike time.Duration
	// StallRate is the probability the response stalls before its first byte.
	StallRate float64
	// Stall is the injected stall duration.
	Stall time.Duration
	// TruncateRate is the probability the response body is cut short after
	// half of its declared length.
	TruncateRate float64
	// Outages are hard outage windows relative to the injector epoch.
	Outages []Window
}

// Stats counts injected faults by class. Requests is the total seen;
// Passed is how many were forwarded unmodified.
type Stats struct {
	Requests, Passed                                 int64
	Errors, OutageDrops, Spikes, Stalls, Truncations int64
}

// Injector wraps an http.Handler with the configured fault schedule.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	epoch time.Time

	now func() time.Time // test seam

	requests, passed, errors, outages, spikes, stalls, truncations atomic.Int64
}

// New builds an Injector whose outage clock starts now.
func New(cfg Config) *Injector {
	return &Injector{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		epoch: time.Now(),
		now:   time.Now,
	}
}

// Restart resets the outage clock so windows are relative to t. The chaos
// experiment calls this right before replaying a trace so the schedule
// aligns with the run, not with injector construction.
func (in *Injector) Restart(t time.Time) {
	in.mu.Lock()
	in.epoch = t
	in.mu.Unlock()
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Requests:    in.requests.Load(),
		Passed:      in.passed.Load(),
		Errors:      in.errors.Load(),
		OutageDrops: in.outages.Load(),
		Spikes:      in.spikes.Load(),
		Stalls:      in.stalls.Load(),
		Truncations: in.truncations.Load(),
	}
}

// draws holds one request's fault decisions. All four dice are always
// rolled so the RNG stream advances identically regardless of which faults
// fire — the aggregate mix depends only on the seed and request count.
type draws struct {
	err, spike, stall, truncate bool
}

func (in *Injector) roll() draws {
	in.mu.Lock()
	defer in.mu.Unlock()
	return draws{
		err:      in.rng.Float64() < in.cfg.ErrorRate,
		spike:    in.rng.Float64() < in.cfg.SpikeRate,
		stall:    in.rng.Float64() < in.cfg.StallRate,
		truncate: in.rng.Float64() < in.cfg.TruncateRate,
	}
}

func (in *Injector) inOutage() bool {
	if len(in.cfg.Outages) == 0 {
		return false
	}
	in.mu.Lock()
	d := in.now().Sub(in.epoch)
	in.mu.Unlock()
	for _, w := range in.cfg.Outages {
		if d >= w.Start && d < w.End {
			return true
		}
	}
	return false
}

// Wrap returns a handler that applies the fault schedule in front of next.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in.requests.Add(1)
		if in.inOutage() {
			in.outages.Add(1)
			http.Error(w, "faults: origin outage", http.StatusServiceUnavailable)
			return
		}
		d := in.roll()
		if d.err {
			in.errors.Add(1)
			http.Error(w, "faults: injected origin error", http.StatusInternalServerError)
			return
		}
		if d.spike {
			in.spikes.Add(1)
			time.Sleep(in.cfg.Spike)
		}
		if !d.stall && !d.truncate {
			in.passed.Add(1)
			next.ServeHTTP(w, r)
			return
		}
		fw := &faultWriter{ResponseWriter: w, truncateAt: -1}
		if d.stall {
			in.stalls.Add(1)
			fw.stall = in.cfg.Stall
		}
		if d.truncate {
			in.truncations.Add(1)
			fw.truncate = true
		}
		next.ServeHTTP(fw, r)
	})
}

// faultWriter stalls before the first byte and/or silently stops writing
// after a fraction of the declared Content-Length. The handler keeps
// writing into the void; when it returns, the HTTP server notices the short
// body and closes the connection, which clients observe as an unexpected
// EOF mid-download — the mid-stream truncation failure mode.
type faultWriter struct {
	http.ResponseWriter
	stall       time.Duration
	truncate    bool
	truncateAt  int64 // -1: no cut; set from Content-Length at WriteHeader
	written     int64
	stalled     bool
	wroteHeader bool
}

// truncateFrac is the fraction of a truncated body that is delivered.
const truncateFrac = 0.5

func (f *faultWriter) WriteHeader(code int) {
	if f.wroteHeader {
		return
	}
	f.wroteHeader = true
	if f.truncate {
		if cl, err := strconv.ParseInt(f.Header().Get("Content-Length"), 10, 64); err == nil && cl > 0 {
			f.truncateAt = int64(float64(cl) * truncateFrac)
		}
	}
	if f.stall > 0 && !f.stalled {
		f.stalled = true
		time.Sleep(f.stall)
	}
	f.ResponseWriter.WriteHeader(code)
}

func (f *faultWriter) Write(p []byte) (int, error) {
	if !f.wroteHeader {
		f.WriteHeader(http.StatusOK)
	}
	n := len(p)
	if f.truncateAt >= 0 {
		remain := f.truncateAt - f.written
		if remain <= 0 {
			f.written += int64(n)
			return n, nil // discard: body stays short of Content-Length
		}
		if int64(n) > remain {
			if _, err := f.ResponseWriter.Write(p[:remain]); err != nil {
				return 0, err
			}
			f.written += int64(n)
			return n, nil
		}
	}
	m, err := f.ResponseWriter.Write(p)
	f.written += int64(m)
	return m, err
}
